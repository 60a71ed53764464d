//! Portfolio racing: pick a starting lineup of parallel-GA models for
//! the instance size (ranked by the `hpc` cost models on a multicore
//! platform), then race the models against a shared deadline on the
//! service's **persistent racer pool** (see [`crate::scheduler`]).
//! Every racer reports improvements into a shared best-so-far cell the
//! moment they happen (cooperative anytime behaviour), and the service
//! answers with the global best when the race ends.
//!
//! A race does not own threads. The submitting thread runs the
//! predicted-cheapest member *inline* — so a race always makes
//! progress, even with the pool saturated — and submits the remaining
//! members as cancellable tasks. Members that never get a pool slot
//! before the deadline are skipped (the race is then reported as
//! deadline-bound: more capacity could have done better); members
//! running at the deadline stop within one cooperative chunk.
//!
//! Determinism: racer `i` derives its seed as `split_seed(seed, i)` over
//! a lineup that is itself a pure function of `(instance size, thread
//! budget)`, so each racer's trajectory is reproducible. The *race
//! outcome* is deterministic when every racer runs to its generation
//! cap — which, under the pool, additionally requires that every
//! member got a slot before the deadline (always true when the pool is
//! not saturated). When the target is certified before the cap, rivals
//! are cut short at a timing-dependent generation, so which member
//! holds the best solution (the winner label) can vary run to run even
//! though the certified cost cannot.

use crate::json::Json;
use crate::obs::phase::PhaseAcc;
use crate::obs::trace::{sample_json, MemberTrace};
use crate::scheduler::{CancelToken, RacerPool, TaskRun};
use crate::solver::SolveHooks;
use ga::engine::{Engine, GaConfig, GaPhase, Generational, Individual, SampleEmit, Toolkit};
use ga::rng::split_seed;
use ga::stats::GenerationSample;
use ga::termination::Termination;
use ga::Evaluator;
use hpc::model::{cellular_time, island_time, master_slave_time, RunShape};
use hpc::Platform;
use pga::telemetry::RunTelemetry;
use pga::{CellularConfig, CellularGa, IslandConfig, IslandGa, MigrationConfig, RayonEvaluator};
use shop::gen::Family;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a watched race's live frames go. The server implements this
/// over the subscribing connection (and the re-attach hub); the
/// portfolio only ever *emits*. Emission happens from racer threads
/// concurrently, so implementations must serialise internally, and
/// must never block the race on a slow consumer (drop or buffer —
/// the race's trajectory must not depend on who is watching). A
/// pooled member popped just before cancellation can still run to
/// completion after the race core has returned at the deadline, so
/// `emit` may be called *after* the submitting thread moved on:
/// implementations that write a terminal record must disarm
/// themselves first (the server's sink drops post-seal frames).
pub trait WatchSink: Send + Sync {
    /// Delivers one frame (rendered line-delimited JSON downstream).
    fn emit(&self, frame: &Json);
}

/// One portfolio member: a parallel model with its sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Panmictic GA with fanned-out evaluation (`pop` individuals).
    MasterSlave {
        /// Population size.
        pop: usize,
    },
    /// Coarse-grained islands on a ring.
    Island {
        /// Island count.
        islands: usize,
        /// Per-island population size.
        island_pop: usize,
    },
    /// Fine-grained torus.
    Cellular {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
}

impl ModelKind {
    /// Stable wire/telemetry label of the model.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::MasterSlave { .. } => "master_slave",
            ModelKind::Island { .. } => "island",
            ModelKind::Cellular { .. } => "cellular",
        }
    }
}

/// Shared monotone best-so-far cell: an `AtomicU64` holding the bit
/// pattern of a non-negative `f64` cost (IEEE-754 order matches numeric
/// order for non-negative floats, so `fetch_min` on the bits is a
/// lock-free numeric min).
#[derive(Debug)]
pub struct BestSoFar(AtomicU64);

impl Default for BestSoFar {
    fn default() -> Self {
        BestSoFar(AtomicU64::new(f64::INFINITY.to_bits()))
    }
}

impl BestSoFar {
    /// Reports a candidate cost; keeps the minimum.
    pub fn report(&self, cost: f64) {
        debug_assert!(cost >= 0.0);
        self.0.fetch_min(cost.to_bits(), Ordering::Relaxed);
    }

    /// Current global best (`f64::INFINITY` before any report).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Prices candidate configurations of all three models for a `family`
/// instance with `total_ops` operations on a multicore platform of
/// `threads` width, returning them ranked cheapest-first as
/// `(predicted seconds, model)`. The per-evaluation cost uses the
/// family's nominal decode cost from [`hpc::calibrate`] — a flexible
/// decode costs several times a flow decode of the same operation
/// count, and pricing all families with one shared constant left the
/// generated-sweep predictions 3–10x off on the flexible/open
/// families. The constants are still nominal (the ranking stays
/// machine-independent); the generated-sweep bench
/// (`g01_generated_sweep`) records predicted next to observed runtimes
/// to track how the model scales with size.
pub fn price_lineup(family: Family, total_ops: usize, threads: usize) -> Vec<(f64, ModelKind)> {
    let threads = threads.clamp(1, 3);
    // Population scales with instance size, bounded for latency.
    let pop = (2 * total_ops).clamp(32, 128);
    let decode_op_s = match family {
        Family::Flow => hpc::calibrate::DECODE_OP_S_FLOW,
        Family::Job => hpc::calibrate::DECODE_OP_S_JOB,
        Family::Open => hpc::calibrate::DECODE_OP_S_OPEN,
        Family::Flexible => hpc::calibrate::DECODE_OP_S_FLEXIBLE,
    };
    let shape = RunShape {
        generations: 100,
        evals_per_gen: pop as u64,
        eval_s: decode_op_s * total_ops as f64,
        serial_gen_s: 150e-9 * pop as f64,
        genome_bytes: 8.0 * total_ops as f64,
    };
    let platform = Platform::multicore(threads.max(2));
    let islands = 4usize;
    let island_pop = (pop / islands).max(8);
    let side = (pop as f64).sqrt().round().max(2.0) as usize;
    let candidates = [
        (
            master_slave_time(&shape, &platform),
            ModelKind::MasterSlave { pop },
        ),
        (
            island_time(&shape, islands, 5, 2, islands as u64, &platform),
            ModelKind::Island {
                islands,
                island_pop,
            },
        ),
        (
            cellular_time(&shape, side * side, 4, &platform),
            ModelKind::Cellular {
                rows: side,
                cols: side,
            },
        ),
    ];
    let mut ranked: Vec<(f64, ModelKind)> = candidates.to_vec();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.truncate(threads);
    ranked
}

/// Picks the starting lineup for a `family` instance with `total_ops`
/// operations given `threads` racer threads: the [`price_lineup`]
/// ranking's cheapest `threads` (at most 3) race. Pure function of its
/// arguments — the lineup is part of the service's determinism
/// contract.
///
/// ```
/// use serve::portfolio::plan_lineup;
/// use shop::gen::Family;
///
/// let lineup = plan_lineup(Family::Job, 36, 3); // ft06-sized, 3 threads
/// assert_eq!(lineup.len(), 3);
/// assert_eq!(lineup, plan_lineup(Family::Job, 36, 3)); // pure function
/// ```
pub fn plan_lineup(family: Family, total_ops: usize, threads: usize) -> Vec<ModelKind> {
    price_lineup(family, total_ops, threads)
        .into_iter()
        .map(|(_, m)| m)
        .collect()
}

/// Outcome of one race.
#[derive(Debug, Clone)]
pub struct RaceResult<G> {
    /// Best individual found by any member that completed.
    pub best: Individual<G>,
    /// Name of the member that held the returned solution.
    /// Informational only: whenever the race exits early on a certified
    /// target, rival cut-off points are timing-dependent, so this label
    /// is not part of the deterministic contract (only cap-bound races
    /// pin it).
    pub winner: String,
    /// Structural counters per *completed* member, in lineup order.
    /// Members cancelled before getting a pool slot are absent.
    pub models: Vec<(String, RunTelemetry)>,
    /// True when the wall-clock budget — rather than `gen_cap` or a
    /// certified `target` — limited the search: at least one racer was
    /// cut off by the clock *or never got a pool slot before the
    /// deadline*, so a rerun with a larger budget (or an idler pool)
    /// could find a better solution.
    pub deadline_bound: bool,
    /// Longest time any of this race's pooled members waited for a
    /// racer slot (zero when every member started immediately, and for
    /// single-member lineups, which run entirely inline).
    pub pool_wait: Duration,
    /// Per-member anytime improvement timelines, in lineup order —
    /// recorded only for traced (or watched) races, empty otherwise.
    /// Members cancelled before getting a pool slot are absent.
    pub timelines: Vec<MemberTrace>,
    /// Summed wall-clock nanoseconds the members actually ran (always
    /// recorded — two `Instant` reads per member). Feeds the
    /// cost-model drift gauge: observed ns/op is `run_ns /
    /// (evaluations × total_ops)`.
    pub run_ns: u64,
}

/// A racer's stopping parameters, kept as parts (rather than one
/// prebuilt [`Termination`]) so the chunked loop can also poll the
/// shared best-so-far cell between chunks.
#[derive(Debug, Clone, Copy)]
pub struct StopRule {
    /// Absolute wall-clock deadline shared by the whole race.
    pub deadline: Instant,
    /// Per-racer generation cap (the determinism anchor).
    pub gen_cap: u64,
    /// Early-exit target cost (reaching it certifies optimality).
    pub target: f64,
}

/// This member's slice of a watched race: where frames go and how to
/// label them.
struct WatchCtx<'a> {
    sink: &'a dyn WatchSink,
    member: usize,
    model: &'static str,
    t0: Instant,
}

impl WatchCtx<'_> {
    /// Renders and emits one frame: `{"frame": kind, "member": i,
    /// "model": name, ...extra}`.
    fn emit(&self, kind: &str, extra: Vec<(String, Json)>) {
        let mut fields = vec![
            ("frame".to_string(), Json::Str(kind.to_string())),
            ("member".to_string(), (self.member as u64).into()),
            ("model".to_string(), Json::Str(self.model.to_string())),
        ];
        fields.extend(extra);
        self.sink.emit(&Json::Obj(fields));
    }
}

/// What one race member reports through: the shared best-so-far cell,
/// plus — when the race is traced — this member's improvement-timeline
/// accumulator, plus — when watched — the live frame sink, plus — when
/// profiled — the phase-time accumulator. [`MemberObs::report`] is the
/// single funnel every model improvement passes on its way to the
/// cooperative race state, and [`MemberObs::sample`] the funnel for
/// per-generation convergence samples — which is what lets tracing,
/// watching and profiling ride along without touching the GA layers.
pub(crate) struct MemberObs<'a> {
    /// The race-wide monotone best cell (the anytime contract).
    pub(crate) best: &'a BestSoFar,
    /// `(race start, this member's accumulator)` when traced.
    timeline: Option<(Instant, &'a Mutex<MemberAcc>)>,
    /// Live watch context, when the race has a subscriber.
    watch: Option<WatchCtx<'a>>,
    /// Best value already announced on the watch stream (models
    /// re-report their best every chunk; the stream keeps strict
    /// improvements only). Single-threaded per member run.
    watch_best: Cell<f64>,
    /// Phase-time accumulator, when the race is profiled.
    pub(crate) phases: Option<&'a PhaseAcc>,
}

/// Retained convergence samples are capped per member; on overflow the
/// retained set is halved and the stride doubled, so a long run keeps
/// a bounded, evenly thinned history whose tail is always fresh.
const SAMPLE_CAP: usize = 256;

/// A traced member's in-flight accumulator (slot of
/// `RaceState::timelines`).
#[derive(Debug, Default)]
pub(crate) struct MemberAcc {
    start_us: u64,
    dur_us: u64,
    points: Vec<(u64, f64)>,
    samples: Vec<GenerationSample>,
    /// Keep every `sample_stride`-th emitted sample (doubles on cap).
    sample_stride: u64,
    /// Samples emitted so far (the decimation counter).
    sample_seen: u64,
}

impl MemberAcc {
    /// Retains `s` under the cap-and-double decimation scheme.
    fn retain_sample(&mut self, s: GenerationSample) {
        let stride = self.sample_stride.max(1);
        self.sample_seen += 1;
        if !self.sample_seen.is_multiple_of(stride) {
            return;
        }
        self.samples.push(s);
        if self.samples.len() >= SAMPLE_CAP {
            let mut keep = false;
            self.samples.retain(|_| {
                keep = !keep;
                keep
            });
            self.sample_stride = stride * 2;
        }
    }
}

impl MemberObs<'_> {
    /// Reports a candidate cost into the shared cell, recording an
    /// improvement point when traced and announcing it on the watch
    /// stream when watched. Models re-report their current best at
    /// every cooperative chunk boundary, so both the timeline and the
    /// stream keep only *strict* improvements (plus the member's very
    /// first report, its starting best).
    pub(crate) fn report(&self, cost: f64) {
        self.best.report(cost);
        if let Some((t0, acc)) = &self.timeline {
            let mut acc = acc.lock().expect("member timeline poisoned");
            if acc.points.last().is_none_or(|&(_, v)| cost < v) {
                let elapsed = t0.elapsed().as_micros() as u64;
                acc.points.push((elapsed, cost));
            }
        }
        if let Some(w) = &self.watch {
            if cost < self.watch_best.get() {
                self.watch_best.set(cost);
                w.emit(
                    "best",
                    vec![
                        ("value".to_string(), cost.into()),
                        (
                            "elapsed_us".to_string(),
                            (w.t0.elapsed().as_micros() as u64).into(),
                        ),
                    ],
                );
            }
        }
    }

    /// Funnels one per-generation convergence sample: streamed live
    /// when watched, retained (decimated) next to the improvement
    /// timeline when traced. No-op — and never called by [`drive`] —
    /// on bare races.
    pub(crate) fn sample(&self, s: GenerationSample) {
        if let Some(w) = &self.watch {
            let Json::Obj(fields) = sample_json(&s) else {
                unreachable!("sample_json renders an object")
            };
            w.emit("sample", fields);
        }
        if let Some((_, acc)) = &self.timeline {
            acc.lock()
                .expect("member timeline poisoned")
                .retain_sample(s);
        }
    }
}

/// The type-erased per-member work unit [`race_core_hooked`] schedules: run
/// `ModelKind` with the given derived seed under the stop rule,
/// reporting improvements through the member observer; return the
/// member's best, its telemetry, and whether the deadline alone cut it
/// short.
pub(crate) type MemberRunner<G> = dyn Fn(ModelKind, u64, &StopRule, &MemberObs) -> (Individual<G>, RunTelemetry, bool)
    + Send
    + Sync;

/// One lineup slot's eventual payload.
type RacerSlot<G> = Option<(Individual<G>, RunTelemetry, bool)>;

/// Progress accounting for the members handed to the pool.
struct Progress {
    /// Submitted, not yet picked up (or skipped).
    queued: usize,
    /// Picked up and currently racing.
    running: usize,
}

/// Everything a race shares between the submitting thread and its
/// pooled member tasks. `Arc`-owned by each task, so the submitter can
/// return at the deadline without waiting for queued stragglers — they
/// complete (as skips) against this state later and free their slots.
struct RaceState<G> {
    best: BestSoFar,
    results: Mutex<Vec<RacerSlot<G>>>,
    progress: Mutex<Progress>,
    done: Condvar,
    /// Max pool-queue wait over this race's members, in µs.
    pool_wait_us: AtomicU64,
    /// Summed member run wall-clock, in ns (always recorded).
    run_ns: AtomicU64,
    /// Race start — the zero point of every member timeline.
    t0: Instant,
    /// Per-member improvement accumulators; allocated only for traced
    /// (or watched) races so untraced requests pay nothing.
    timelines: Option<Vec<Mutex<MemberAcc>>>,
    /// The race's watch sink and phase accumulator.
    hooks: SolveHooks,
}

impl<G> RaceState<G> {
    fn new(members: usize, hooks: SolveHooks) -> Self {
        RaceState {
            best: BestSoFar::default(),
            results: Mutex::new((0..members).map(|_| None).collect()),
            progress: Mutex::new(Progress {
                queued: members - 1,
                running: 0,
            }),
            done: Condvar::new(),
            pool_wait_us: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            t0: Instant::now(),
            timelines: (hooks.traced || hooks.watch.is_some())
                .then(|| (0..members).map(|_| Mutex::default()).collect()),
            hooks,
        }
    }

    /// The observer member `i` (model label `model`) reports through.
    fn obs(&self, i: usize, model: &'static str) -> MemberObs<'_> {
        MemberObs {
            best: &self.best,
            timeline: self.timelines.as_ref().map(|tls| (self.t0, &tls[i])),
            watch: self.hooks.watch.as_deref().map(|sink| WatchCtx {
                sink,
                member: i,
                model,
                t0: self.t0,
            }),
            watch_best: Cell::new(f64::INFINITY),
            phases: self.hooks.phases.as_deref(),
        }
    }

    /// Announces member `i`'s run start/finish on the watch stream.
    fn watch_lifecycle(&self, i: usize, model: &'static str, kind: &str, best: Option<f64>) {
        if let Some(sink) = self.hooks.watch.as_deref() {
            let ctx = WatchCtx {
                sink,
                member: i,
                model,
                t0: self.t0,
            };
            let mut extra = vec![(
                "elapsed_us".to_string(),
                (self.t0.elapsed().as_micros() as u64).into(),
            )];
            if let Some(v) = best {
                extra.push(("best".to_string(), v.into()));
            }
            ctx.emit(kind, extra);
        }
    }

    /// Runs member `i` on the calling thread, stamping and announcing
    /// its start and finish, and stores its result.
    fn run_slot(
        &self,
        i: usize,
        member: ModelKind,
        runner: &MemberRunner<G>,
        seed: u64,
        stop: &StopRule,
    ) {
        let timeline = self.timelines.as_ref().map(|tls| &tls[i]);
        if let Some(acc) = timeline {
            acc.lock().expect("member timeline poisoned").start_us =
                self.t0.elapsed().as_micros() as u64;
        }
        self.watch_lifecycle(i, member.name(), "start", None);
        let run_t0 = Instant::now();
        let out = runner(
            member,
            split_seed(seed, i as u64),
            stop,
            &self.obs(i, member.name()),
        );
        self.run_ns
            .fetch_add(run_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(acc) = timeline {
            let mut acc = acc.lock().expect("member timeline poisoned");
            acc.dur_us = (self.t0.elapsed().as_micros() as u64).saturating_sub(acc.start_us);
        }
        self.watch_lifecycle(i, member.name(), "finish", Some(out.0.cost));
        self.results.lock().expect("results poisoned")[i] = Some(out);
    }

    fn begin_run(&self) {
        let mut p = self.progress.lock().expect("race progress poisoned");
        p.queued -= 1;
        p.running += 1;
    }

    fn finish_run(&self) {
        let mut p = self.progress.lock().expect("race progress poisoned");
        p.running -= 1;
        drop(p);
        self.done.notify_all();
    }

    fn skip_one(&self) {
        let mut p = self.progress.lock().expect("race progress poisoned");
        p.queued -= 1;
        drop(p);
        self.done.notify_all();
    }

    /// Blocks until every pooled member finished, or the race is over
    /// early (target certified with nothing left running), or the
    /// deadline passed with nothing left running. Cancels the race's
    /// queued tasks on every early exit so they free their pool slots
    /// in O(1) when popped.
    fn wait_for_members(&self, deadline: Instant, target: f64, cancel: &CancelToken) {
        let mut p = self.progress.lock().expect("race progress poisoned");
        loop {
            if p.queued == 0 && p.running == 0 {
                return;
            }
            // Only queued members remain and the target is already
            // certified: running them could not improve the answer.
            if p.running == 0 && self.best.get() <= target {
                cancel.cancel();
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                cancel.cancel();
                if p.running == 0 {
                    // Queued stragglers will be skipped at pop; their
                    // slots are not worth waiting for.
                    return;
                }
                // Running members notice the deadline within one
                // cooperative chunk; collect their telemetry.
                let (guard, _) = self
                    .done
                    .wait_timeout(p, Duration::from_millis(50))
                    .expect("race progress poisoned");
                p = guard;
            } else {
                let (guard, _) = self
                    .done
                    .wait_timeout(p, deadline - now)
                    .expect("race progress poisoned");
                p = guard;
            }
        }
    }
}

/// The one scheduling core, shared by [`race`] and the codec race: run
/// `lineup[0]` inline on the calling thread and the rest as cancellable
/// tasks on `pool`, then merge whatever completed. The hooks thread
/// tracing (per-member improvement timelines plus retained convergence
/// samples into `RaceResult::timelines`), live watch streaming
/// (start/sample/best/finish frames into the sink) and phase profiling
/// (engine phase times into the accumulator) through every member;
/// none of them changes any member's search trajectory.
#[allow(clippy::too_many_arguments)]
pub(crate) fn race_core_hooked<G: Send + 'static>(
    pool: &RacerPool,
    lineup: &[ModelKind],
    runner: Arc<MemberRunner<G>>,
    seed: u64,
    deadline: Instant,
    gen_cap: u64,
    target: f64,
    hooks: SolveHooks,
) -> RaceResult<G> {
    assert!(!lineup.is_empty(), "portfolio needs at least one member");
    let stop = StopRule {
        deadline,
        gen_cap,
        target,
    };
    let state: Arc<RaceState<G>> = Arc::new(RaceState::new(lineup.len(), hooks));
    let cancel = Arc::new(CancelToken::default());

    for (i, member) in lineup.iter().enumerate().skip(1) {
        let state = Arc::clone(&state);
        let runner = Arc::clone(&runner);
        let member = *member;
        pool.submit(
            deadline,
            Arc::clone(&cancel),
            Box::new(move |run: TaskRun| {
                // Record the queue wait for skipped members too: a
                // member cancelled while queued is precisely the one
                // that waited longest, and pool_wait is the documented
                // saturation gauge — it must not read zero at peak
                // contention.
                state
                    .pool_wait_us
                    .fetch_max(run.queue_wait.as_micros() as u64, Ordering::Relaxed);
                if run.skipped {
                    state.skip_one();
                    return;
                }
                state.begin_run();
                // Drop guard: even a panicking member must not leave
                // the race waiting on `running` forever.
                struct FinishGuard<'a, G>(&'a RaceState<G>);
                impl<G> Drop for FinishGuard<'_, G> {
                    fn drop(&mut self) {
                        self.0.finish_run();
                    }
                }
                let _guard = FinishGuard(&state);
                state.run_slot(i, member, &*runner, seed, &stop);
            }),
        );
    }

    // The predicted-cheapest member races inline on this thread: even a
    // fully saturated pool cannot starve a race of progress, and total
    // racing threads stay bounded by pool size + serving workers.
    state.run_slot(0, lineup[0], &*runner, seed, &stop);
    state.wait_for_members(deadline, target, &cancel);
    // Idempotent; covers the all-members-finished path too, where any
    // re-submitted key's stale queue entries no longer exist.
    cancel.cancel();

    let collected: Vec<RacerSlot<G>> = {
        let mut slots = state.results.lock().expect("results poisoned");
        slots.iter_mut().map(Option::take).collect()
    };
    // Snapshot the improvement timelines of every member that ran
    // (cloned under each member's own short lock — a straggler that is
    // still winding down can keep appending to its accumulator without
    // blocking this read).
    let timelines: Vec<MemberTrace> = match &state.timelines {
        Some(tls) => tls
            .iter()
            .enumerate()
            .filter(|&(i, _)| collected[i].is_some())
            .map(|(i, acc)| {
                let acc = acc.lock().expect("member timeline poisoned");
                MemberTrace {
                    member: lineup[i].name().to_string(),
                    start_us: acc.start_us,
                    dur_us: acc.dur_us,
                    points: acc.points.clone(),
                    samples: acc.samples.clone(),
                }
            })
            .collect(),
        None => Vec::new(),
    };
    let mut models = Vec::with_capacity(lineup.len());
    let mut winner: Option<(usize, Individual<G>)> = None;
    let mut any_timed_out = false;
    let mut missing = 0usize;
    for (i, slot) in collected.into_iter().enumerate() {
        let Some((best, telemetry, timed_out)) = slot else {
            // Cancelled before getting a pool slot: with more capacity
            // (or wall-clock) this member would have raced.
            missing += 1;
            continue;
        };
        models.push((lineup[i].name().to_string(), telemetry));
        any_timed_out |= timed_out;
        let better = match &winner {
            None => true,
            // Strict improvement only: ties go to the earliest lineup
            // member, which pins the winner when racer results are
            // reproducible (cap-bound races); after a timing-dependent
            // early exit it merely makes the pick a pure function of
            // the collected results.
            Some((_, cur)) => best.cost < cur.cost,
        };
        if better {
            winner = Some((i, best));
        }
    }
    let (idx, best) = winner.expect("the inline member always completes");
    debug_assert!(best.cost >= state.best.get());
    // A certified target is a proof of optimality, so extra wall-clock
    // could not improve on it even if some rival was cut off mid-search
    // or never started.
    let deadline_bound = (any_timed_out || missing > 0) && best.cost > target;
    RaceResult {
        best,
        winner: lineup[idx].name().to_string(),
        models,
        deadline_bound,
        pool_wait: Duration::from_micros(state.pool_wait_us.load(Ordering::Relaxed)),
        timelines,
        run_ns: state.run_ns.load(Ordering::Relaxed),
    }
}

/// Races `lineup` against `deadline` on the given racer pool. Member 0
/// (the predicted-cheapest) runs inline on the calling thread; the
/// rest are submitted as cancellable pool tasks. Each member runs with
/// derived seed `split_seed(seed, index)` until the first of deadline /
/// `gen_cap` generations / `target` cost fires, reporting every
/// improvement into a [`BestSoFar`] cell — which the other racers poll
/// between generation chunks, so the whole race ends (not just the
/// proving racer) as soon as anyone certifies the target. Returns the
/// global best individual, the winning member and per-member telemetry.
/// The racers' own trajectories are seed-deterministic; only *when* a
/// rival's target-hit cuts a racer short can depend on timing, so the
/// winner label (and, when several genomes attain the target cost, the
/// returned genome) is only guaranteed reproducible for races where
/// every member runs to `gen_cap`. The service's cache pins whichever
/// solution completed first.
///
/// ```
/// use serve::portfolio::{race, ModelKind};
/// use serve::scheduler::RacerPool;
/// use ga::engine::Toolkit;
/// use ga::crossover::PermCrossover;
/// use ga::mutate::SeqMutation;
/// use rand::seq::SliceRandom;
/// use std::time::{Duration, Instant};
///
/// // Minimise total displacement of a permutation (optimum: identity).
/// let eval = |p: &Vec<usize>| {
///     p.iter().enumerate().map(|(i, &v)| (i as f64 - v as f64).abs()).sum::<f64>()
/// };
/// let toolkit = || Toolkit::<Vec<usize>> {
///     init: Box::new(|rng| {
///         let mut p: Vec<usize> = (0..6).collect();
///         p.shuffle(rng);
///         p
///     }),
///     crossover: Box::new(|a, b, rng| PermCrossover::Order.apply(a, b, rng)),
///     mutate: Box::new(|g, rng| SeqMutation::Swap.apply(g, rng)),
///     seq_view: None,
/// };
/// let pool = RacerPool::new(2);
/// let outcome = race(
///     &pool,
///     &[ModelKind::MasterSlave { pop: 16 }],
///     toolkit,
///     eval,
///     7,                                        // seed
///     Instant::now() + Duration::from_secs(10), // deadline
///     300,                                      // generation cap
///     0.0,                                      // certified-optimum target
/// );
/// assert_eq!(outcome.best.cost, 0.0);
/// assert_eq!(outcome.best.genome, (0..6).collect::<Vec<usize>>());
/// ```
#[allow(clippy::too_many_arguments)]
pub fn race<G, TF, E>(
    pool: &RacerPool,
    lineup: &[ModelKind],
    toolkit_factory: TF,
    evaluator: E,
    seed: u64,
    deadline: Instant,
    gen_cap: u64,
    target: f64,
) -> RaceResult<G>
where
    G: Clone + Send + Sync + 'static,
    TF: Fn() -> Toolkit<G> + Send + Sync + 'static,
    E: Evaluator<G> + Send + Sync + 'static,
{
    let runner: Arc<MemberRunner<G>> = Arc::new(
        move |member: ModelKind, member_seed: u64, stop: &StopRule, obs: &MemberObs| {
            run_member(member, member_seed, &toolkit_factory, &evaluator, stop, obs)
        },
    );
    let hooks = SolveHooks::default();
    race_core_hooked(pool, lineup, runner, seed, deadline, gen_cap, target, hooks)
}

/// Generations per chunk between cooperative checks of the shared
/// best-so-far cell — small enough that a racer notices within
/// milliseconds when a rival has already proven the target.
const COOP_CHUNK: u64 = 10;

/// Runs one model in [`COOP_CHUNK`]-generation chunks until the stop
/// rule fires *or* the shared cell shows some racer already reached the
/// target — without this the race would always last as long as its
/// slowest member even after the optimum is certified. `run` advances
/// the model until the given criterion fires and returns the model's
/// best individual plus its current generation. The returned flag is
/// true when the deadline alone ended this racer — with more wall-clock
/// it would have kept searching.
fn run_chunked<G>(
    stop: &StopRule,
    shared: &BestSoFar,
    run: &mut dyn FnMut(&Termination) -> (Individual<G>, u64),
) -> (Individual<G>, bool) {
    let mut generation = 0;
    loop {
        let next = (generation + COOP_CHUNK).min(stop.gen_cap);
        let chunk = Termination::Any(vec![
            Termination::Generations(next),
            Termination::TargetCost(stop.target),
            Termination::Deadline(stop.deadline),
        ]);
        let (best, gen) = run(&chunk);
        generation = gen;
        let capped = generation >= stop.gen_cap;
        let on_target = best.cost <= stop.target || shared.get() <= stop.target;
        let timed_out = Instant::now() >= stop.deadline;
        if capped || on_target || timed_out {
            return (best, timed_out && !capped && !on_target);
        }
    }
}

/// Runs one portfolio member to completion under the stop rule. This is
/// the unit of work a racer-pool task executes; the codec race calls it
/// from its [`MemberRunner`].
pub(crate) fn run_member<G, TF, E>(
    member: ModelKind,
    seed: u64,
    toolkit_factory: &TF,
    evaluator: &E,
    stop: &StopRule,
    obs: &MemberObs,
) -> (Individual<G>, RunTelemetry, bool)
where
    G: Clone + Send + Sync,
    TF: Fn() -> Toolkit<G> + Sync,
    E: Evaluator<G> + Sync,
{
    // The engines skip their phase clock reads entirely when no hook
    // is installed, so this closure only exists for profiled races.
    let phase_hook = obs
        .phases
        .map(|acc| move |phase: GaPhase, d: Duration| acc.add(phase, d));
    match member {
        ModelKind::MasterSlave { pop } => {
            let cfg = GaConfig {
                pop_size: pop,
                seed,
                ..GaConfig::default()
            };
            // The member is priced by `master_slave_time`'s fan-out
            // model, so evaluation goes through RayonEvaluator: with
            // the offline rayon shim this is sequential (bit-identical
            // by the master-slave contract), with upstream rayon the
            // batch genuinely fans out.
            let fan_out = RayonEvaluator::new(|g: &G| evaluator.cost(g));
            let mut engine = Engine::new(cfg, toolkit_factory(), &fan_out);
            if let Some(hook) = &phase_hook {
                engine.set_phase_hook(hook);
            }
            let (best, timed_out) = drive(&mut engine, stop, obs);
            let telemetry = RunTelemetry {
                generations: engine.generation(),
                evaluations: engine.evaluations(),
                improvements: engine.improvements(),
                workers: 1, // logical master; slave count is rayon's pool
                ..Default::default()
            };
            (best, telemetry, timed_out)
        }
        ModelKind::Island {
            islands,
            island_pop,
        } => {
            let cfg = GaConfig {
                pop_size: island_pop,
                seed,
                ..GaConfig::default()
            };
            let mut ig = IslandGa::homogeneous(
                cfg,
                islands,
                &|_| toolkit_factory(),
                evaluator,
                IslandConfig::new(MigrationConfig::ring(5, 2)),
            );
            if let Some(hook) = &phase_hook {
                ig.set_phase_hook(hook);
            }
            let (best, timed_out) = drive(&mut ig, stop, obs);
            (best, ig.telemetry.clone(), timed_out)
        }
        ModelKind::Cellular { rows, cols } => {
            let cfg = CellularConfig::new(rows, cols, seed);
            let mut cga = CellularGa::new(cfg, toolkit_factory(), evaluator);
            if let Some(hook) = &phase_hook {
                cga.set_phase_hook(hook);
            }
            let (best, timed_out) = drive(&mut cga, stop, obs);
            (best, cga.telemetry.clone(), timed_out)
        }
    }
}

/// Drives a member's model through [`ga::engine::run`] in cooperative
/// chunks; bare races pass no sample emitter, so build no samples.
fn drive<G>(
    model: &mut dyn Generational<G>,
    stop: &StopRule,
    obs: &MemberObs,
) -> (Individual<G>, bool) {
    let sampled = obs.watch.is_some() || obs.timeline.is_some();
    let mut on_sample = |s| obs.sample(s);
    run_chunked(stop, obs.best, &mut |t| {
        let emit: Option<&mut SampleEmit> = sampled.then_some(&mut on_sample);
        let best = ga::engine::run(model, t, &mut |ind| obs.report(ind.cost), emit);
        (best, model.status().generation)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::crossover::PermCrossover;
    use ga::mutate::SeqMutation;
    use rand::seq::SliceRandom;
    use std::time::Duration;

    fn displacement(p: &[usize]) -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 - v as f64).abs())
            .sum()
    }

    fn toolkit(n: usize) -> Toolkit<Vec<usize>> {
        Toolkit {
            init: Box::new(move |rng| {
                let mut p: Vec<usize> = (0..n).collect();
                p.shuffle(rng);
                p
            }),
            crossover: Box::new(|a, b, rng| PermCrossover::Order.apply(a, b, rng)),
            mutate: Box::new(|g, rng| SeqMutation::Swap.apply(g, rng)),
            seq_view: None,
        }
    }

    /// Gate for a pool-occupying blocker task; opens on drop so a
    /// failing assertion unwinds without deadlocking the pool join.
    type Gate = Arc<(Mutex<bool>, Condvar)>;

    struct OpenOnDrop(Gate);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            *self.0 .0.lock().unwrap() = true;
            self.0 .1.notify_all();
        }
    }

    /// Parks the pool's (single) racer thread behind the returned gate.
    fn occupy_pool(pool: &RacerPool) -> (Gate, OpenOnDrop) {
        let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            pool.submit(
                Instant::now() + Duration::from_secs(30),
                Arc::new(CancelToken::default()),
                Box::new(move |_| {
                    let mut open = gate.0.lock().unwrap();
                    while !*open {
                        open = gate.1.wait(open).unwrap();
                    }
                }),
            );
        }
        let waited = Instant::now();
        while pool.queue_depth() > 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.queue_depth(), 0, "blocker was not picked up");
        let guard = OpenOnDrop(Arc::clone(&gate));
        (gate, guard)
    }

    #[test]
    fn lineup_is_deterministic_and_bounded() {
        let a = plan_lineup(Family::Job, 36, 3);
        let b = plan_lineup(Family::Job, 36, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(plan_lineup(Family::Job, 36, 1).len(), 1);
        assert_eq!(plan_lineup(Family::Job, 36, 16).len(), 3);
        // All three models appear exactly once.
        let names: std::collections::HashSet<&str> = a.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn best_so_far_is_a_numeric_min() {
        let b = BestSoFar::default();
        assert_eq!(b.get(), f64::INFINITY);
        b.report(10.0);
        b.report(55.0);
        assert_eq!(b.get(), 10.0);
        b.report(0.5);
        assert_eq!(b.get(), 0.5);
    }

    #[test]
    fn race_finds_optimum_and_is_seed_deterministic() {
        let pool = RacerPool::new(2);
        let lineup = plan_lineup(Family::Job, 10, 3);
        let run = || {
            race(
                &pool,
                &lineup,
                || toolkit(8),
                |g: &Vec<usize>| displacement(g),
                7,
                Instant::now() + Duration::from_secs(20),
                400,
                0.0,
            )
        };
        let a = run();
        let b = run();
        // Tiny instance and a generous budget: every run certifies cost
        // 0 well before the deadline, and the cost-0 genome (the
        // identity permutation) is unique, so cost and genome are
        // bit-identical across runs. The winner *label* is not asserted
        // equal: a target-certified race cuts rivals short at a
        // scheduling-dependent generation, so which member ends holding
        // the optimum is timing-dependent by design.
        assert_eq!(a.best.cost, 0.0);
        assert_eq!(a.best.genome, b.best.genome);
        assert!(
            !a.deadline_bound,
            "a certified target is never deadline-bound"
        );
        for r in [&a, &b] {
            assert!(
                lineup.iter().any(|m| m.name() == r.winner),
                "winner {:?} must be a lineup member",
                r.winner
            );
        }
        for (_, t) in &a.models {
            assert!(t.evaluations > 0);
        }
    }

    #[test]
    fn run_chunked_stops_when_a_rival_reached_the_target() {
        // A rival already reported a cost at the target: the racer must
        // stop after its first chunk instead of grinding to gen_cap.
        let shared = BestSoFar::default();
        shared.report(5.0);
        let stop = StopRule {
            deadline: Instant::now() + Duration::from_secs(3600),
            gen_cap: 1_000_000,
            target: 5.0,
        };
        let mut chunks = 0u64;
        let mut generation = 0u64;
        let (best, timed_out) = run_chunked(&stop, &shared, &mut |t| {
            chunks += 1;
            // Simulate a model that advances COOP_CHUNK generations per
            // chunk without ever improving past cost 9.
            generation += COOP_CHUNK;
            assert!(matches!(t, Termination::Any(_)));
            (
                Individual {
                    genome: (),
                    cost: 9.0,
                },
                generation,
            )
        });
        assert_eq!(chunks, 1, "must notice the rival's report after one chunk");
        assert_eq!(best.cost, 9.0);
        assert!(!timed_out, "rival target-hit is not a deadline cut-off");
    }

    #[test]
    fn cap_bound_race_is_not_deadline_bound() {
        // Unreachable target, distant deadline, small cap: every racer
        // runs to gen_cap, so the outcome is budget-independent.
        let pool = RacerPool::new(1);
        let lineup = [ModelKind::MasterSlave { pop: 16 }];
        let r = race(
            &pool,
            &lineup,
            || toolkit(12),
            |g: &Vec<usize>| 1.0 + displacement(g),
            3,
            Instant::now() + Duration::from_secs(3600),
            30,
            0.0,
        );
        assert!(!r.deadline_bound);
        assert!(r.best.cost >= 1.0);
    }

    #[test]
    fn race_respects_deadline_with_impossible_target() {
        let pool = RacerPool::new(1);
        let lineup = [ModelKind::MasterSlave { pop: 16 }];
        let started = Instant::now();
        let r = race(
            &pool,
            &lineup,
            || toolkit(30),
            |g: &Vec<usize>| 1.0 + displacement(g),
            1,
            started + Duration::from_millis(120),
            u64::MAX,
            0.0,
        );
        // Deadline is the only live criterion: the race must end near
        // it (generously bounded for slow CI) and still return a best.
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(r.best.cost >= 1.0);
        assert_eq!(r.winner, "master_slave");
        assert!(
            r.deadline_bound,
            "clock-cut race must report deadline_bound"
        );
    }

    /// A race whose pooled members never get a slot before the deadline
    /// still answers (from the inline member) and honestly reports
    /// itself deadline-bound; the stranded tasks free their pool slots
    /// as skips instead of racing after the fact.
    #[test]
    fn saturated_pool_races_degrade_to_the_inline_member() {
        let pool = RacerPool::new(1);
        // Occupy the only racer slot for the whole test.
        let (gate, _open_on_unwind) = occupy_pool(&pool);
        let lineup = plan_lineup(Family::Job, 10, 3);
        assert_eq!(lineup.len(), 3);
        let started = Instant::now();
        let r = race(
            &pool,
            &lineup,
            || toolkit(10),
            |g: &Vec<usize>| 1.0 + displacement(g),
            9,
            started + Duration::from_millis(150),
            u64::MAX, // unreachable cap
            0.0,      // unreachable target
        );
        // The race ends near its deadline with only the inline member's
        // result, reported as deadline-bound.
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(r.models.len(), 1, "only the inline member completed");
        assert!(r.deadline_bound);
        assert!(r.best.cost >= 1.0);
        // Release the blocker; the stranded tasks drain as skips.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let waited = Instant::now();
        while pool.queue_depth() > 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.queue_depth(), 0, "cancelled members freed the queue");
        let (_, _, skipped) = pool.stats();
        assert_eq!(skipped, 2, "both pooled members were skipped, not run");
    }

    /// Early target certification cancels members still waiting for a
    /// pool slot instead of letting them race pointlessly.
    #[test]
    fn certified_race_cancels_queued_members() {
        let pool = RacerPool::new(1);
        let (_gate, _open_on_unwind) = occupy_pool(&pool);
        // Tiny problem with target 0: the inline member certifies the
        // optimum almost immediately.
        let lineup = plan_lineup(Family::Job, 6, 2);
        let started = Instant::now();
        let r = race(
            &pool,
            &lineup,
            || toolkit(4),
            |g: &Vec<usize>| displacement(g),
            7,
            started + Duration::from_secs(30),
            100_000,
            0.0,
        );
        assert_eq!(r.best.cost, 0.0);
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "certification must not wait out the 30 s deadline"
        );
        assert!(!r.deadline_bound, "certified races are budget-independent");
        // The gate guard opens on drop; the stranded member drains as
        // a skip once the blocker exits.
    }
}
