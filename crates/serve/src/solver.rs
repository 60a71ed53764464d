//! Glue between the wire protocol and the GA stack: load an instance
//! (named classic, `gen-*` generated name, or inline text), build the
//! family's toolkit/decoder pair, race the portfolio on the service's
//! racer pool, and decode the winning genome into a validated schedule.
//!
//! The family-generic instance type is [`shop::gen::AnyInstance`];
//! this module only adds the protocol-level resolution
//! ([`load_instance`]) and the racing glue ([`solve_hooked`]). Each
//! family is a `FamilyCodec` (genome, toolkit, incremental decoder,
//! reference decoder), and `race_codec` is the one race path over any
//! codec — the four static families here and the session's
//! frozen-prefix suffix alike. Because races run as tasks on a
//! persistent pool (see [`crate::scheduler`]), all race members share
//! one `Arc`-cached flat operation table ([`shop::decoder::table`])
//! built once per solve; each member run wraps it in its own
//! incremental re-decoder, so consecutive evaluations of
//! near-identical genomes (mutation traffic) re-time only the changed
//! suffix. The final winning genome is decoded by the family's
//! reference decoder and validated — the hot path never gets to answer
//! unchecked.

use crate::obs::phase::PhaseAcc;
use crate::obs::trace::MemberTrace;
use crate::portfolio::{
    plan_lineup, race_core_hooked, run_member, MemberObs, MemberRunner, ModelKind, RaceResult,
    StopRule, WatchSink,
};
use crate::protocol::{InstanceSpec, Objective, Solution};
use crate::scheduler::RacerPool;
use ga::crossover::{PermCrossover, RepCrossover};
use ga::dual::DualGenome;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use pga::telemetry::RunTelemetry;
use rand::seq::SliceRandom;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::decoder::table::{
    DecodeCounters, FlexTable, IncrementalFlex, IncrementalFlow, IncrementalJob,
    IncrementalOpenOrder, OpTable,
};
use shop::gen::AnyInstance;
use shop::instance::{FlexibleInstance, FlowShopInstance, JobShopInstance, OpenShopInstance};
use shop::schedule::Schedule;
use shop::Problem;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The parsed problem instance a request resolves to. Kept as an alias
/// of [`shop::gen::AnyInstance`] — the family-generic operations
/// (hashing, validation, text round-trips) live in `shop::gen` so
/// every layer shares one definition.
pub type LoadedInstance = AnyInstance;

/// Error loading an instance from a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot load instance: {}", self.0)
    }
}

impl std::error::Error for LoadError {}

/// Resolves a request's instance spec. Named instances cover the
/// embedded classics of all four families plus canonical `gen-*`
/// generated names (`shop::gen::GenSpec::from_name`); inline text uses
/// the `shop::instance::parse` formats.
pub fn load_instance(spec: &InstanceSpec) -> Result<AnyInstance, LoadError> {
    match spec {
        InstanceSpec::Named(name) => match AnyInstance::resolve_named(name) {
            // A name in the gen-* grammar gets the generator's own
            // error on a bad parameter space ("jobs >= 1", dim caps)
            // instead of being misreported as an unknown name.
            Some(resolved) => resolved.map_err(|e| LoadError(e.to_string())),
            None => Err(LoadError(format!(
                "unknown named instance {name:?} (classics: ft06, ft10, ft20, la01, \
                 flow05, open_latin3, flex03; or a gen-<family>-<jobs>x<machines>-s<seed> name)"
            ))),
        },
        InstanceSpec::Inline { family, text } => {
            AnyInstance::parse(*family, text).map_err(|e| LoadError(e.to_string()))
        }
    }
}

/// Objective value of `schedule` for `problem` — the one evaluator
/// behind solve answers and session repair/resolve values.
pub(crate) fn objective_of(
    problem: &dyn Problem,
    schedule: &Schedule,
    objective: Objective,
) -> f64 {
    match objective {
        Objective::Makespan => schedule.makespan() as f64,
        Objective::TotalCompletion => schedule
            .completion_times(problem.n_jobs())
            .iter()
            .map(|&c| c as f64)
            .sum(),
    }
}

/// Everything a solved request reports back.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The best validated-decodable solution of the race.
    pub solution: Solution,
    /// The member that found it (`solution.model` is its name).
    pub winner: ModelKind,
    /// Per-member structural telemetry, in lineup order (members the
    /// pool cancelled before they started are absent).
    pub models: Vec<(String, RunTelemetry)>,
    /// True when the wall-clock budget cut the race short before
    /// `gen_cap` or a certified target — including members that never
    /// got a pool slot: a rerun with a larger budget could do better
    /// (see `portfolio::RaceResult::deadline_bound`). Drives the
    /// cache's replay-vs-re-race policy.
    pub deadline_bound: bool,
    /// Longest time any of the race's pooled members waited for a racer
    /// slot (see `portfolio::RaceResult::pool_wait`).
    pub pool_wait: std::time::Duration,
    /// Per-member anytime timelines (with retained convergence
    /// samples), recorded only by traced or watched solves; empty
    /// otherwise.
    pub timelines: Vec<MemberTrace>,
    /// Summed wall-clock nanoseconds the race members actually ran
    /// (always recorded — see `portfolio::RaceResult::run_ns`).
    pub run_ns: u64,
}

/// Observation hooks for one race, threaded from the solver and the
/// session to every member. All default off; none of them changes the
/// search trajectory (the bit-identity contract the watch tests pin).
#[derive(Default, Clone)]
pub struct SolveHooks {
    /// Record per-member improvement timelines and retained
    /// convergence samples into [`SolveOutcome::timelines`].
    pub traced: bool,
    /// Stream start/sample/best/finish frames live.
    pub watch: Option<Arc<dyn WatchSink>>,
    /// Accumulate per-phase search time (select / breed / evaluate /
    /// migrate from the engines, decode from the codec race's
    /// evaluation closure).
    pub phases: Option<Arc<PhaseAcc>>,
}

/// A problem family as the race sees it: genome, operators, per-member
/// incremental decoder and reference decoder. Implemented by the four
/// static families below and `session::SuffixCodec`.
pub(crate) trait FamilyCodec: Send + Sync + 'static {
    /// The genome the race evolves.
    type Genome: Clone + Send + Sync + 'static;
    /// One member run's incremental decoder state.
    type Decoder: Send;
    /// A fresh operator toolkit (one per engine or island).
    fn toolkit(&self) -> Toolkit<Self::Genome>;
    /// A fresh incremental decoder for one member run.
    fn decoder(&self) -> Self::Decoder;
    /// `genome`'s `objective` value through the member's decoder.
    fn cost(decoder: &mut Self::Decoder, genome: &Self::Genome, objective: Objective) -> f64;
    /// The decoder's divergence counters (for the member's telemetry).
    fn counters(decoder: &Self::Decoder) -> DecodeCounters;
    /// `genome` decoded by the family's reference decoder.
    fn materialise(&self, genome: &Self::Genome) -> Schedule;
}

/// Everything a codec race needs besides the codec itself.
pub(crate) struct RacePlan<'p> {
    pub(crate) pool: &'p RacerPool,
    pub(crate) lineup: Vec<ModelKind>,
    pub(crate) objective: Objective,
    pub(crate) seed: u64,
    pub(crate) deadline: Instant,
    pub(crate) gen_cap: u64,
    /// Early-exit target cost (reaching it certifies optimality).
    pub(crate) target: f64,
    pub(crate) hooks: SolveHooks,
}

/// Races `plan.lineup` over `codec`, each member pricing genomes with
/// its own incremental decoder (timed into the decode phase when
/// profiled), and materialises the winner through the reference decoder.
pub(crate) fn race_codec<C: FamilyCodec>(
    codec: C,
    plan: RacePlan<'_>,
) -> (Schedule, RaceResult<C::Genome>) {
    let codec = Arc::new(codec);
    let objective = plan.objective;
    let runner: Arc<MemberRunner<C::Genome>> = {
        let codec = Arc::clone(&codec);
        Arc::new(move |member, mseed, stop: &StopRule, obs: &MemberObs| {
            // The mutex satisfies the `Fn + Sync` evaluator bound and
            // is uncontended — one evaluator per member run.
            let decoder = Mutex::new(codec.decoder());
            let profile = obs.phases;
            let eval = |genome: &C::Genome| {
                let mut decoder = decoder.lock().unwrap();
                let t0 = profile.map(|_| Instant::now());
                let v = C::cost(&mut decoder, genome, objective);
                if let (Some(acc), Some(t0)) = (profile, t0) {
                    acc.add_decode(t0.elapsed());
                }
                v
            };
            let (best, mut tel, hit) =
                run_member(member, mseed, &|| codec.toolkit(), &eval, stop, obs);
            let c = C::counters(&decoder.lock().unwrap());
            tel.decode_calls = c.decodes;
            tel.retimed_positions = c.retimed_positions;
            (best, tel, hit)
        })
    };
    let outcome = race_core_hooked(
        plan.pool,
        &plan.lineup,
        runner,
        plan.seed,
        plan.deadline,
        plan.gen_cap,
        plan.target,
        plan.hooks,
    );
    (codec.materialise(&outcome.best.genome), outcome)
}

/// Races the portfolio on `inst` until `deadline` on `pool` and returns
/// the best schedule found, decoded and ready to validate, with any
/// combination of the [`SolveHooks`]. `threads` bounds the number of
/// racing models, `gen_cap` bounds each racer's generations (the
/// determinism anchor: when every racer hits its cap before the
/// deadline — which under the pool also requires every member got a
/// slot in time — the outcome is machine-independent).
#[allow(clippy::too_many_arguments)]
pub fn solve_hooked(
    pool: &RacerPool,
    inst: &Arc<LoadedInstance>,
    objective: Objective,
    seed: u64,
    deadline: Instant,
    gen_cap: u64,
    threads: usize,
    hooks: SolveHooks,
) -> SolveOutcome {
    let plan = RacePlan {
        pool,
        lineup: plan_lineup(inst.family(), inst.total_ops(), threads),
        objective,
        seed,
        deadline,
        gen_cap,
        // The makespan lower bound certifies optimality; other
        // objectives have no cheap bound, so they race to the cap.
        target: match objective {
            Objective::Makespan => inst.makespan_lower_bound() as f64,
            Objective::TotalCompletion => 0.0,
        },
        hooks,
    };
    match &**inst {
        LoadedInstance::Flow(f) => finish(inst, Codec::new(f, OpTable::from_flow), plan),
        LoadedInstance::Job(j) => finish(inst, Codec::new(j, OpTable::from_job), plan),
        LoadedInstance::Open(o) => finish(inst, Codec::new(o, OpTable::from_open), plan),
        LoadedInstance::Flexible(f) => finish(inst, Codec::new(f, FlexTable::from_flexible), plan),
    }
}

/// A static family's codec: its instance (for the toolkit and the
/// reference decoder) and one flat table shared by every member's
/// incremental decoder.
struct Codec<I, T> {
    inst: I,
    table: Arc<T>,
}

impl<I: Clone, T> Codec<I, T> {
    fn new(inst: &I, table: fn(&I) -> T) -> Self {
        Codec {
            inst: inst.clone(),
            table: Arc::new(table(inst)),
        }
    }
}

/// Operations per job of `inst`.
fn ops_per_job(inst: &dyn Problem) -> Vec<usize> {
    (0..inst.n_jobs()).map(|j| inst.n_ops(j)).collect()
}

/// Flow shops: job permutations.
impl FamilyCodec for Codec<FlowShopInstance, OpTable> {
    type Genome = Vec<usize>;
    type Decoder = IncrementalFlow;

    fn toolkit(&self) -> Toolkit<Vec<usize>> {
        perm_toolkit(self.inst.n_jobs(), SeqMutation::Swap)
    }

    fn decoder(&self) -> IncrementalFlow {
        IncrementalFlow::new(Arc::clone(&self.table))
    }

    fn cost(decoder: &mut IncrementalFlow, perm: &Vec<usize>, objective: Objective) -> f64 {
        match objective {
            Objective::Makespan => decoder.decode(perm) as f64,
            Objective::TotalCompletion => decoder.decode_completion_sum(perm) as f64,
        }
    }

    fn counters(decoder: &IncrementalFlow) -> DecodeCounters {
        decoder.counters()
    }

    fn materialise(&self, perm: &Vec<usize>) -> Schedule {
        FlowDecoder::new(&self.inst).schedule(perm)
    }
}

/// Job shops: operation sequences (permutations with repetition),
/// materialised as semi-active schedules.
impl FamilyCodec for Codec<JobShopInstance, OpTable> {
    type Genome = Vec<usize>;
    type Decoder = IncrementalJob;

    fn toolkit(&self) -> Toolkit<Vec<usize>> {
        let ops_per_job = ops_per_job(&self.inst);
        let n_jobs = ops_per_job.len();
        Toolkit {
            init: Box::new(move |rng| {
                let mut seq = Vec::new();
                for (j, &k) in ops_per_job.iter().enumerate() {
                    seq.extend(std::iter::repeat_n(j, k));
                }
                seq.shuffle(rng);
                seq
            }),
            crossover: Box::new(move |a, b, rng| RepCrossover::JobOrder.apply(a, b, n_jobs, rng)),
            mutate: Box::new(|g, rng| SeqMutation::Swap.apply(g, rng)),
            seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
        }
    }

    fn decoder(&self) -> IncrementalJob {
        IncrementalJob::new(Arc::clone(&self.table))
    }

    fn cost(decoder: &mut IncrementalJob, seq: &Vec<usize>, objective: Objective) -> f64 {
        match objective {
            Objective::Makespan => decoder.decode(seq) as f64,
            Objective::TotalCompletion => decoder.decode_completion_sum(seq) as f64,
        }
    }

    fn counters(decoder: &IncrementalJob) -> DecodeCounters {
        decoder.counters()
    }

    fn materialise(&self, seq: &Vec<usize>) -> Schedule {
        JobDecoder::new(&self.inst).semi_active(seq)
    }
}

/// Open shops: permutations of the `n × m` operations, gene `v` being
/// operation `(v / m, v % m)`.
impl FamilyCodec for Codec<OpenShopInstance, OpTable> {
    type Genome = Vec<usize>;
    type Decoder = IncrementalOpenOrder;

    fn toolkit(&self) -> Toolkit<Vec<usize>> {
        let n_ops = self.inst.n_jobs() * self.inst.n_machines();
        perm_toolkit(n_ops, SeqMutation::Swap)
    }

    fn decoder(&self) -> IncrementalOpenOrder {
        IncrementalOpenOrder::new(Arc::clone(&self.table))
    }

    fn cost(decoder: &mut IncrementalOpenOrder, perm: &Vec<usize>, objective: Objective) -> f64 {
        match objective {
            Objective::Makespan => decoder.decode(perm) as f64,
            Objective::TotalCompletion => decoder.decode_completion_sum(perm) as f64,
        }
    }

    fn counters(decoder: &IncrementalOpenOrder) -> DecodeCounters {
        decoder.counters()
    }

    fn materialise(&self, perm: &Vec<usize>) -> Schedule {
        let m = self.inst.n_machines();
        let order: Vec<(usize, usize)> = perm.iter().map(|&v| (v / m, v % m)).collect();
        OpenDecoder::new(&self.inst).by_op_order(&order)
    }
}

/// Flexible shops: dual assignment + sequencing genomes.
impl FamilyCodec for Codec<FlexibleInstance, FlexTable> {
    type Genome = DualGenome;
    type Decoder = IncrementalFlex;

    fn toolkit(&self) -> Toolkit<DualGenome> {
        let inst = &self.inst;
        let max_choices = (0..inst.n_jobs())
            .flat_map(|j| (0..inst.n_ops(j)).map(move |s| inst.op(j, s).choices.len()))
            .max()
            .unwrap_or(1);
        let ops_per_job = ops_per_job(inst);
        let n_jobs = ops_per_job.len();
        Toolkit {
            init: Box::new(move |rng| DualGenome::random(&ops_per_job, max_choices, rng)),
            crossover: Box::new(move |a, b, rng| DualGenome::crossover(a, b, n_jobs, rng)),
            mutate: Box::new(move |g, rng| g.mutate(max_choices, rng)),
            seq_view: Some(Box::new(|g: &DualGenome| g.seq.clone())),
        }
    }

    fn decoder(&self) -> IncrementalFlex {
        IncrementalFlex::new(Arc::clone(&self.table))
    }

    fn cost(decoder: &mut IncrementalFlex, g: &DualGenome, objective: Objective) -> f64 {
        match objective {
            Objective::Makespan => decoder.decode(&g.assign, &g.seq) as f64,
            Objective::TotalCompletion => decoder.decode_completion_sum(&g.assign, &g.seq) as f64,
        }
    }

    fn counters(decoder: &IncrementalFlex) -> DecodeCounters {
        decoder.counters()
    }

    fn materialise(&self, g: &DualGenome) -> Schedule {
        FlexDecoder::new(&self.inst).decode(&g.assign, &g.seq)
    }
}

/// Races `codec` under `plan` and renders the answer for `inst`.
fn finish<C: FamilyCodec>(inst: &LoadedInstance, codec: C, plan: RacePlan<'_>) -> SolveOutcome {
    let objective = plan.objective;
    let (schedule, outcome) = race_codec(codec, plan);
    SolveOutcome {
        solution: Solution {
            objective,
            value: objective_of(inst.problem(), &schedule, objective),
            makespan: schedule.makespan(),
            model: outcome.winner.name().to_string(),
            schedule: schedule.ops,
        },
        winner: outcome.winner,
        models: outcome.models,
        deadline_bound: outcome.deadline_bound,
        pool_wait: outcome.pool_wait,
        timelines: outcome.timelines,
        run_ns: outcome.run_ns,
    }
}

/// Toolkit over permutations of `0..n`: order crossover plus
/// `mutation` (flow shops, open-shop orders, session suffix orders).
pub(crate) fn perm_toolkit(n: usize, mutation: SeqMutation) -> Toolkit<Vec<usize>> {
    Toolkit {
        init: Box::new(move |rng| {
            let mut p: Vec<usize> = (0..n).collect();
            p.shuffle(rng);
            p
        }),
        crossover: Box::new(|a, b, rng| PermCrossover::Order.apply(a, b, rng)),
        mutate: Box::new(move |g, rng| mutation.apply(g, rng)),
        seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Family;
    use std::time::Duration;

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    #[test]
    fn loads_named_and_inline_instances() {
        let ft = load_instance(&InstanceSpec::Named("ft06".into())).unwrap();
        assert_eq!(ft.family(), Family::Job);
        assert_eq!(ft.total_ops(), 36);
        let inline = load_instance(&InstanceSpec::Inline {
            family: Family::Flow,
            text: "2 2\n3 4\n5 1\n".into(),
        })
        .unwrap();
        assert_eq!(inline.family(), Family::Flow);
        assert!(load_instance(&InstanceSpec::Named("nope".into())).is_err());
        assert!(load_instance(&InstanceSpec::Inline {
            family: Family::Job,
            text: "bogus".into(),
        })
        .is_err());
    }

    #[test]
    fn named_and_inline_ft06_share_a_cache_hash() {
        let named = load_instance(&InstanceSpec::Named("ft06".into())).unwrap();
        let LoadedInstance::Job(inst) = &named else {
            panic!("ft06 is a job shop");
        };
        let inline = load_instance(&InstanceSpec::Inline {
            family: Family::Job,
            text: format!("{inst}"),
        })
        .unwrap();
        assert_eq!(named.canonical_hash(), inline.canonical_hash());
    }

    #[test]
    fn solves_every_family_feasibly() {
        let pool = RacerPool::new(2);
        for (spec, cap) in [
            (InstanceSpec::Named("flow05".into()), 60),
            (InstanceSpec::Named("ft06".into()), 60),
            (InstanceSpec::Named("open_latin3".into()), 60),
            (InstanceSpec::Named("flex03".into()), 60),
        ] {
            let inst = Arc::new(load_instance(&spec).unwrap());
            let out = crate::solve(&pool, &inst, Objective::Makespan, 1, deadline(), cap, 2);
            let schedule = Schedule::new(out.solution.schedule.clone());
            assert!(
                inst.validate(&schedule).is_ok(),
                "{spec:?} produced an infeasible schedule"
            );
            assert_eq!(out.solution.makespan, schedule.makespan());
            assert!(!out.models.is_empty());
        }
    }

    #[test]
    fn total_completion_objective_is_consistent() {
        let pool = RacerPool::new(1);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("flow05".into())).unwrap());
        let out = crate::solve(
            &pool,
            &inst,
            Objective::TotalCompletion,
            3,
            deadline(),
            40,
            1,
        );
        let schedule = Schedule::new(out.solution.schedule.clone());
        let LoadedInstance::Flow(flow) = &*inst else {
            panic!("flow05 is a flow shop");
        };
        let sum: u64 = schedule.completion_times(flow.n_jobs()).iter().sum();
        assert_eq!(out.solution.value, sum as f64);
        assert!(inst.validate(&schedule).is_ok());
    }

    #[test]
    fn solve_is_deterministic_when_caps_bind() {
        let pool = RacerPool::new(3);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("ft06".into())).unwrap());
        let run = || crate::solve(&pool, &inst, Objective::Makespan, 42, deadline(), 150, 3);
        let a = run();
        let b = run();
        assert_eq!(a.solution.schedule, b.solution.schedule);
        // Model equality is safe to assert *here* because ft06's
        // makespan lower bound sits below the optimum: the target is
        // never certified, every racer runs to the cap, and the winner
        // label is pinned. It is not part of the general contract.
        assert_eq!(a.solution.model, b.solution.model);
        assert_eq!(a.solution.makespan, b.solution.makespan);
        assert!(!a.deadline_bound, "cap-bound solve is budget-independent");
    }

    #[test]
    fn clock_cut_solve_reports_deadline_bound() {
        let pool = RacerPool::new(2);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("ft06".into())).unwrap());
        // Uncapped generations, unreachable target, tiny deadline: the
        // clock is the only stopping criterion that can fire.
        let out = crate::solve(
            &pool,
            &inst,
            Objective::Makespan,
            42,
            Instant::now() + Duration::from_millis(50),
            u64::MAX,
            2,
        );
        assert!(out.deadline_bound);
    }
}
