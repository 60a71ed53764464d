//! The sequential GA engine (survey Table II):
//!
//! ```text
//! initialize();
//! while (termination criteria are not satisfied) {
//!     Generation++;
//!     Selection(); Crossover(); Mutation(); FitnessValueEvaluation();
//! }
//! ```
//!
//! The engine is generic over the genome type `G` via a [`Toolkit`] of
//! operator closures, and over evaluation via [`crate::Evaluator`] — the
//! seam the master-slave model plugs into. All randomness flows through
//! one seeded RNG owned by the engine, so a run is reproducible and, in
//! particular, *identical* under sequential and parallel evaluation (the
//! survey's defining property of the master-slave model).

use crate::fitness::FitnessTransform;
use crate::rng::root_rng;
use crate::select::Selection;
use crate::stats::{GenRecord, GenerationSample, History};
use crate::termination::{Progress, Termination};
use crate::Evaluator;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Fresh-random-genome constructor.
pub type InitFn<G> = dyn Fn(&mut ChaCha8Rng) -> G + Send + Sync;
/// Two parents to two children.
pub type CrossoverFn<G> = dyn Fn(&G, &G, &mut ChaCha8Rng) -> (G, G) + Send + Sync;
/// In-place mutation.
pub type MutateFn<G> = dyn Fn(&mut G, &mut ChaCha8Rng) + Send + Sync;
/// Integer-sequence view of a genome (diversity telemetry).
pub type SeqView<G> = dyn Fn(&G) -> Vec<usize> + Send + Sync;

/// Operator bundle for genome type `G`.
pub struct Toolkit<G> {
    /// Fresh random genome.
    pub init: Box<InitFn<G>>,
    /// Two parents to two children.
    pub crossover: Box<CrossoverFn<G>>,
    /// In-place mutation.
    pub mutate: Box<MutateFn<G>>,
    /// Optional integer-sequence view used for diversity telemetry.
    pub seq_view: Option<Box<SeqView<G>>>,
}

impl<G: Clone + Send + Sync + 'static> Toolkit<G> {
    /// First-class warm start: returns a toolkit whose first
    /// `seeds.len()` initial genomes are the given incumbents
    /// *verbatim*, the next `mutated_clones` are mutated clones of them
    /// (cycling through the seeds, perturbed with this toolkit's own
    /// mutation operator and the caller's RNG stream), and the rest
    /// come from the original random `init` — the standard population
    /// seeding for incremental re-solves, where an incumbent solution
    /// (e.g. the pre-disruption schedule in dynamic rescheduling) is
    /// known to be near-optimal and the GA should start *at* it rather
    /// than rediscover it.
    ///
    /// Placement is tracked with an internal counter, so the warm
    /// genomes land wherever the consuming model initialises its first
    /// individuals (engine population slots, cellular grid cells, one
    /// batch per island when each island receives its own warm-started
    /// toolkit from a factory). Construction-time init order is
    /// deterministic in every model of this workspace, which keeps
    /// warm-started runs seed-reproducible. The guarantee that matters
    /// downstream: with at least one seed and elitism (or any
    /// best-so-far tracking), the model's initial best cost is at most
    /// the best seed's cost.
    ///
    /// Because construction fills population slots in order, an
    /// evaluator sees the seeds first and their mutated clones
    /// immediately after — see the evaluation-order contract on
    /// [`Engine::new`], which is what lets incremental re-decoders
    /// (`shop::decoder::table`) warm their caches on a seed and then
    /// re-time only the mutated tail of each clone.
    ///
    /// ```
    /// use ga::engine::{Engine, GaConfig, Toolkit};
    /// use rand::Rng;
    ///
    /// // Minimise the number of `true` bits; the all-false incumbent is
    /// // already optimal.
    /// let toolkit = Toolkit::<Vec<bool>> {
    ///     init: Box::new(|rng| (0..16).map(|_| rng.gen_bool(0.5)).collect()),
    ///     crossover: Box::new(|a, _b, _| (a.clone(), a.clone())),
    ///     mutate: Box::new(|g, rng| {
    ///         let i = rng.gen_range(0..g.len());
    ///         g[i] = !g[i];
    ///     }),
    ///     seq_view: None,
    /// }
    /// .with_warm_start(vec![vec![false; 16]], 4);
    /// let eval = |g: &Vec<bool>| g.iter().filter(|&&b| b).count() as f64;
    /// let engine = Engine::new(GaConfig::default(), toolkit, &eval);
    /// assert_eq!(engine.best().cost, 0.0);
    /// ```
    pub fn with_warm_start(self, seeds: Vec<G>, mutated_clones: usize) -> Toolkit<G> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let Toolkit {
            init,
            crossover,
            mutate,
            seq_view,
        } = self;
        if seeds.is_empty() {
            // Nothing to seed: keep the toolkit untouched (no counter,
            // no indirection on the hot operators).
            return Toolkit {
                init,
                crossover,
                mutate,
                seq_view,
            };
        }
        let mutate: Arc<MutateFn<G>> = Arc::from(mutate);
        let init_mutate = Arc::clone(&mutate);
        let seeds = Arc::new(seeds);
        let handed_out = Arc::new(AtomicUsize::new(0));
        Toolkit {
            init: Box::new(move |rng| {
                let k = handed_out.fetch_add(1, Ordering::Relaxed);
                if k < seeds.len() {
                    return seeds[k].clone();
                }
                if k < seeds.len() + mutated_clones {
                    let mut g = seeds[k % seeds.len()].clone();
                    (init_mutate)(&mut g, rng);
                    return g;
                }
                (init)(rng)
            }),
            crossover,
            mutate: Box::new(move |g, rng| (mutate)(g, rng)),
            seq_view,
        }
    }
}

/// GA hyper-parameters.
#[derive(Debug, Clone)]
pub struct GaConfig {
    pub pop_size: usize,
    /// Probability a selected pair is crossed (else copied).
    pub crossover_rate: f64,
    /// Probability each child is mutated.
    pub mutation_rate: f64,
    /// Individuals carried over unchanged ("elitist strategy").
    pub elites: usize,
    /// Fraction of each generation regenerated randomly — the `c%`
    /// immigration of Huang et al. \[24\]. Usually 0.
    pub immigration_rate: f64,
    pub selection: Selection,
    pub fitness: FitnessTransform,
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            pop_size: 60,
            crossover_rate: 0.9,
            mutation_rate: 0.2,
            elites: 2,
            immigration_rate: 0.0,
            selection: Selection::Tournament(3),
            fitness: FitnessTransform::PopulationGap,
            seed: 0xC0FFEE,
        }
    }
}

/// A genome with its cached cost.
#[derive(Debug, Clone)]
pub struct Individual<G> {
    pub genome: G,
    pub cost: f64,
}

/// Snapshot a [`Generational`] model reports to [`run`].
#[derive(Debug, Clone, Copy)]
pub struct AnytimeStatus {
    pub generation: u64,
    pub evaluations: u64,
    pub best_cost: f64,
}

/// Search phase a [`PhaseHook`] attributes time to — the profiler's
/// view of one generation. `Breed` covers crossover *and* mutation (one
/// pipeline stage on the hot path); evaluation is the master-slave
/// fan-out seam; `Migrate` only fires for island models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaPhase {
    /// Parent selection (tournament/roulette picks).
    Select,
    /// Crossover and mutation of the selected parents.
    Breed,
    /// Fitness evaluation of the bred children.
    Evaluate,
    /// Inter-island individual exchange (island models only).
    Migrate,
}

/// Callback receiving per-generation phase timings when profiling is
/// enabled (see [`Engine::set_phase_hook`]). Invoked at most once per
/// phase per generation with that generation's accumulated duration.
/// Timing flows through [`crate::clock`] and is measurement-only: the
/// hook must not influence the search (the engine's RNG stream never
/// sees it), which keeps profiled runs bit-identical to bare runs.
pub type PhaseHook<'h> = dyn Fn(GaPhase, Duration) + Send + Sync + 'h;

/// The per-generation sample emitter a [`Generational::step`] reports
/// through.
pub type SampleEmit<'a> = dyn FnMut(GenerationSample) + 'a;

/// A generational search model — the survey's "while termination
/// criteria are not satisfied: select, breed, evaluate (, migrate)"
/// body, implemented by the sequential [`Engine`] and the `pga`
/// island and cellular models, and driven by [`run`].
pub trait Generational<G> {
    /// Progress counters and best cost as of the last generation.
    fn status(&self) -> AnytimeStatus;
    /// Advances one generation. With an emitter, reports that
    /// generation's [`GenerationSample`]s (one per island for island
    /// models); without one, builds no samples. Sampling reads recorded
    /// state only, so a sampled step is bit-identical to a bare one.
    fn step(&mut self, emit: Option<&mut SampleEmit<'_>>);
    /// The best individual found so far.
    fn best(&self) -> Individual<G>;
}

/// The generation loop: steps `model` until `termination` fires,
/// invoking `on_best` on the initial best and on every strict
/// improvement, and forwarding every per-generation sample to
/// `on_sample` when given. Within a generation the samples come first,
/// then the improvement. Wall time and improvement stagnation are
/// measured per call, from this call's start and the model's best cost.
pub fn run<G>(
    model: &mut dyn Generational<G>,
    termination: &Termination,
    on_best: &mut dyn FnMut(&Individual<G>),
    mut on_sample: Option<&mut SampleEmit<'_>>,
) -> Individual<G> {
    let started = crate::clock::now();
    let mut since_improvement = 0u64;
    let mut last_best = model.status().best_cost;
    on_best(&model.best());
    loop {
        let s = model.status();
        let progress = Progress {
            generation: s.generation,
            evaluations: s.evaluations,
            elapsed: crate::clock::elapsed_since(started),
            best_cost: s.best_cost,
            generations_since_improvement: since_improvement,
        };
        if termination.should_stop(&progress) {
            break;
        }
        model.step(on_sample.as_deref_mut());
        let now_best = model.status().best_cost;
        if now_best < last_best {
            last_best = now_best;
            since_improvement = 0;
            on_best(&model.best());
        } else {
            since_improvement += 1;
        }
    }
    model.best()
}

/// The engine itself. Create with [`Engine::new`], advance with
/// [`Engine::step`] or [`Engine::run`].
pub struct Engine<'a, G> {
    config: GaConfig,
    toolkit: Toolkit<G>,
    evaluator: &'a dyn Evaluator<G>,
    population: Vec<Individual<G>>,
    rng: ChaCha8Rng,
    generation: u64,
    evaluations: u64,
    best: Individual<G>,
    gens_since_improvement: u64,
    improvements: u64,
    history: History,
    phase_hook: Option<&'a PhaseHook<'a>>,
}

impl<'a, G: Clone> Engine<'a, G> {
    /// Initialises and evaluates the starting population.
    ///
    /// **Evaluation-order contract**: genomes are handed to the
    /// evaluator in population order — the initial population in slot
    /// order here, and each generation's children in the order they
    /// were bred (crossover pairs, then immigrants) in
    /// [`step`](Self::step). `Evaluator::cost_batch` receives them as
    /// one slice in that order, and the default implementation calls
    /// `cost` sequentially over it. Stateful caching evaluators (the
    /// incremental re-decoders in `shop::decoder::table`) rely on this:
    /// combined with [`Toolkit::with_warm_start`] placing seeds before
    /// their mutated clones, consecutive evaluations differ only past
    /// the mutation point, so a cache primed by one genome accelerates
    /// the next. Correctness never depends on the order — evaluators
    /// must return the same cost for the same genome regardless — but
    /// the performance of incremental evaluation does, so this order is
    /// a contract, not an implementation detail (pinned by the
    /// `evaluation_order_is_population_order` test).
    pub fn new(config: GaConfig, toolkit: Toolkit<G>, evaluator: &'a dyn Evaluator<G>) -> Self {
        assert!(config.pop_size >= 2, "population of at least 2 required");
        assert!(config.elites < config.pop_size);
        let mut rng = root_rng(config.seed);
        let genomes: Vec<G> = (0..config.pop_size)
            .map(|_| (toolkit.init)(&mut rng))
            .collect();
        let costs = evaluator.cost_batch(&genomes);
        let population: Vec<Individual<G>> = genomes
            .into_iter()
            .zip(costs)
            .map(|(genome, cost)| Individual { genome, cost })
            .collect();
        let best = population
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("non-empty population")
            .clone();
        let evaluations = population.len() as u64;
        let mut engine = Engine {
            config,
            toolkit,
            evaluator,
            population,
            rng,
            generation: 0,
            evaluations,
            best,
            gens_since_improvement: 0,
            improvements: 0,
            history: History::default(),
            phase_hook: None,
        };
        engine.record();
        engine
    }

    /// Enables the phase profiler: `hook` receives this engine's
    /// per-generation `Select`/`Breed`/`Evaluate` timings from every
    /// subsequent [`step`](Self::step). Timing reads go through
    /// [`crate::clock`] and happen *only* while a hook is installed, so
    /// unprofiled runs pay nothing and profiled runs stay bit-identical
    /// (the RNG stream never depends on the clock).
    pub fn set_phase_hook(&mut self, hook: &'a PhaseHook<'a>) {
        self.phase_hook = Some(hook);
    }

    /// Seeds some individuals (e.g. NEH or heuristic solutions) into the
    /// initial population, replacing the worst.
    pub fn seed_individuals(&mut self, genomes: Vec<G>) {
        let costs = self.evaluator.cost_batch(&genomes);
        self.evaluations += genomes.len() as u64;
        self.population.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        let n = self.population.len();
        for (k, (genome, cost)) in genomes.into_iter().zip(costs).enumerate() {
            if k >= n {
                break;
            }
            let slot = n - 1 - k;
            self.population[slot] = Individual { genome, cost };
        }
        self.refresh_best();
    }

    fn refresh_best(&mut self) {
        if let Some(b) = self
            .population
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
        {
            if b.cost < self.best.cost {
                self.best = b.clone();
                self.gens_since_improvement = 0;
                self.improvements += 1;
            }
        }
    }

    fn record(&mut self) {
        let mean =
            self.population.iter().map(|i| i.cost).sum::<f64>() / self.population.len() as f64;
        let diversity = match &self.toolkit.seq_view {
            Some(view) => {
                let seqs: Vec<Vec<usize>> =
                    self.population.iter().map(|i| view(&i.genome)).collect();
                crate::stats::mean_hamming(&seqs)
            }
            None => 0.0,
        };
        self.history.push(GenRecord {
            generation: self.generation,
            best_cost: self.best.cost,
            mean_cost: mean,
            diversity,
        });
    }

    /// Runs one generation: Selection, Crossover, Mutation, Evaluation.
    pub fn step(&mut self) {
        self.generation += 1;
        let pop = self.config.pop_size;
        let elites = self.config.elites;
        let immigrants = ((pop - elites) as f64 * self.config.immigration_rate).floor() as usize;
        let offspring_target = pop - elites - immigrants;

        // Fitness for selection.
        let costs: Vec<f64> = self.population.iter().map(|i| i.cost).collect();
        let fitness = self.config.fitness.apply_all(&costs);

        // Breed offspring. Phase timing reads the clock only when a
        // hook is installed; the RNG call sequence is identical either
        // way (the profiled run stays bit-identical to the bare run).
        let profiled = self.phase_hook.is_some();
        let mut select_ns = 0u64;
        let mut breed_ns = 0u64;
        let mut children: Vec<G> = Vec::with_capacity(offspring_target + immigrants);
        while children.len() < offspring_target {
            let t0 = profiled.then(crate::clock::now);
            let a = self.config.selection.pick(&fitness, &mut self.rng);
            let b = self.config.selection.pick(&fitness, &mut self.rng);
            let t1 = profiled.then(crate::clock::now);
            let (mut c1, mut c2) = if self.rng.gen_bool(self.config.crossover_rate) {
                (self.toolkit.crossover)(
                    &self.population[a].genome,
                    &self.population[b].genome,
                    &mut self.rng,
                )
            } else {
                (
                    self.population[a].genome.clone(),
                    self.population[b].genome.clone(),
                )
            };
            if self.rng.gen_bool(self.config.mutation_rate) {
                (self.toolkit.mutate)(&mut c1, &mut self.rng);
            }
            if self.rng.gen_bool(self.config.mutation_rate) {
                (self.toolkit.mutate)(&mut c2, &mut self.rng);
            }
            if let (Some(t0), Some(t1)) = (t0, t1) {
                select_ns += t1.saturating_duration_since(t0).as_nanos() as u64;
                breed_ns += crate::clock::elapsed_since(t1).as_nanos() as u64;
            }
            children.push(c1);
            if children.len() < offspring_target {
                children.push(c2);
            }
        }
        // Immigration (Huang et al. [24]): brand-new random individuals.
        for _ in 0..immigrants {
            children.push((self.toolkit.init)(&mut self.rng));
        }

        // Batch evaluation — the master-slave seam.
        let te = profiled.then(crate::clock::now);
        let child_costs = self.evaluator.cost_batch(&children);
        self.evaluations += children.len() as u64;
        if let (Some(hook), Some(te)) = (self.phase_hook, te) {
            hook(GaPhase::Evaluate, crate::clock::elapsed_since(te));
            hook(GaPhase::Select, Duration::from_nanos(select_ns));
            hook(GaPhase::Breed, Duration::from_nanos(breed_ns));
        }

        // Elites survive unchanged.
        let mut next: Vec<Individual<G>> = Vec::with_capacity(pop);
        if elites > 0 {
            let mut sorted: Vec<&Individual<G>> = self.population.iter().collect();
            sorted.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            next.extend(sorted.into_iter().take(elites).cloned());
        }
        next.extend(
            children
                .into_iter()
                .zip(child_costs)
                .map(|(genome, cost)| Individual { genome, cost }),
        );
        self.population = next;

        self.gens_since_improvement += 1;
        self.refresh_best();
        self.record();
    }

    /// Runs until `termination` fires; returns the best individual found.
    pub fn run(&mut self, termination: &Termination) -> Individual<G> {
        run(self, termination, &mut |_| {}, None)
    }

    /// The engine's latest generation as a [`GenerationSample`]
    /// (`island: None`, `migration: false` — the island model tags its
    /// engines' samples itself).
    pub fn last_sample(&self) -> GenerationSample {
        self.history
            .last_sample(self.evaluations, self.gens_since_improvement)
            .expect("recorded since construction")
    }

    pub fn best(&self) -> &Individual<G> {
        &self.best
    }

    pub fn population(&self) -> &[Individual<G>] {
        &self.population
    }

    /// Replaces individual `idx` (used by migration operators).
    pub fn replace(&mut self, idx: usize, ind: Individual<G>) {
        self.population[idx] = ind;
        self.refresh_best();
    }

    pub fn history(&self) -> &History {
        &self.history
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Strict improvements of the best-so-far since construction (the
    /// initial population's best is the baseline, not an improvement).
    /// This is the count an anytime observer sees fire via [`run`], and
    /// the basis of the serve layer's per-member improvement timelines.
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// The toolkit's optional integer-sequence view (diversity telemetry
    /// and stagnation detection).
    pub fn seq_view(&self) -> Option<&SeqView<G>> {
        self.toolkit.seq_view.as_deref()
    }
}

impl<G: Clone> Generational<G> for Engine<'_, G> {
    fn status(&self) -> AnytimeStatus {
        AnytimeStatus {
            generation: self.generation,
            evaluations: self.evaluations,
            best_cost: self.best.cost,
        }
    }

    fn step(&mut self, emit: Option<&mut SampleEmit<'_>>) {
        Engine::step(self);
        if let Some(emit) = emit {
            emit(self.last_sample());
        }
    }

    fn best(&self) -> Individual<G> {
        self.best.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossover::PermCrossover;
    use crate::mutate::SeqMutation;
    use rand::seq::SliceRandom;

    /// Minimise total displacement of a permutation from identity.
    fn displacement(p: &[usize]) -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 - v as f64).abs())
            .sum()
    }

    fn perm_toolkit(n: usize) -> Toolkit<Vec<usize>> {
        Toolkit {
            init: Box::new(move |rng| {
                let mut p: Vec<usize> = (0..n).collect();
                p.shuffle(rng);
                p
            }),
            crossover: Box::new(|a, b, rng| PermCrossover::Order.apply(a, b, rng)),
            mutate: Box::new(|g, rng| SeqMutation::Swap.apply(g, rng)),
            seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
        }
    }

    #[test]
    fn engine_improves_over_generations() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 40,
            seed: 11,
            ..GaConfig::default()
        };
        let mut engine = Engine::new(cfg, perm_toolkit(12), &eval);
        let initial = engine.best().cost;
        engine.run(&Termination::Generations(60));
        assert!(engine.best().cost < initial, "no improvement");
        assert_eq!(engine.generation(), 60);
        assert_eq!(engine.history().records.len(), 61);
    }

    #[test]
    fn same_seed_same_result() {
        let eval = |g: &Vec<usize>| displacement(g);
        let run = || {
            let cfg = GaConfig {
                pop_size: 24,
                seed: 5,
                ..GaConfig::default()
            };
            let mut e = Engine::new(cfg, perm_toolkit(9), &eval);
            e.run(&Termination::Generations(25));
            (e.best().cost, e.best().genome.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let eval = |g: &Vec<usize>| displacement(g);
        let run = |seed| {
            let cfg = GaConfig {
                pop_size: 16,
                seed,
                elites: 0,
                ..GaConfig::default()
            };
            let mut e = Engine::new(cfg, perm_toolkit(10), &eval);
            e.run(&Termination::Generations(3));
            e.history().records.iter().map(|r| r.mean_cost).sum::<f64>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn elites_preserve_best_cost_monotonicity() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 20,
            elites: 2,
            seed: 3,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(8), &eval);
        let mut last = f64::INFINITY;
        for _ in 0..30 {
            e.step();
            let best_now = e.best().cost;
            assert!(best_now <= last + 1e-12);
            last = best_now;
        }
    }

    #[test]
    fn immigration_keeps_population_size() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 30,
            immigration_rate: 0.2,
            seed: 8,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(7), &eval);
        for _ in 0..5 {
            e.step();
            assert_eq!(e.population().len(), 30);
        }
    }

    #[test]
    fn target_cost_termination_stops_early() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 40,
            seed: 10,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(6), &eval);
        e.run(&Termination::Any(vec![
            Termination::TargetCost(0.0),
            Termination::Generations(500),
        ]));
        // Tiny instance: the GA should actually sort it.
        assert_eq!(e.best().cost, 0.0);
        assert!(e.generation() < 500);
    }

    #[test]
    fn run_reports_every_improvement() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 40,
            seed: 11,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(12), &eval);
        let mut seen: Vec<f64> = Vec::new();
        let best = run(
            &mut e,
            &Termination::Generations(60),
            &mut |ind| seen.push(ind.cost),
            None,
        );
        // First report is the initial best, last is the final best, and
        // the sequence is strictly decreasing.
        assert!(seen.len() >= 2, "expected at least one improvement");
        assert_eq!(*seen.last().unwrap(), best.cost);
        assert!(seen.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn evaluation_order_is_population_order() {
        use std::sync::Mutex;

        // Records every genome it is asked to cost, in call order.
        struct Recording {
            seen: Mutex<Vec<Vec<usize>>>,
        }
        impl Evaluator<Vec<usize>> for Recording {
            fn cost(&self, g: &Vec<usize>) -> f64 {
                self.seen.lock().unwrap().push(g.clone());
                displacement(g)
            }
        }

        let seed: Vec<usize> = (0..8).collect();
        let toolkit = perm_toolkit(8).with_warm_start(vec![seed.clone()], 3);
        let eval = Recording {
            seen: Mutex::new(Vec::new()),
        };
        let cfg = GaConfig {
            pop_size: 10,
            seed: 5,
            ..GaConfig::default()
        };
        let mut engine = Engine::new(cfg, toolkit, &eval);
        let init_pop: Vec<Vec<usize>> = engine
            .population()
            .iter()
            .map(|i| i.genome.clone())
            .collect();
        {
            let seen = eval.seen.lock().unwrap();
            // The contract Engine::new documents: initial genomes are
            // evaluated in population-slot order, so the warm seed is
            // costed first and its mutated clones immediately after.
            assert_eq!(*seen, init_pop);
            assert_eq!(seen[0], seed);
        }
        eval.seen.lock().unwrap().clear();
        engine.step();
        // Children are evaluated in breeding order: each differs from a
        // recent genome by one crossover/mutation, which is what the
        // incremental decoders exploit.
        assert!(!eval.seen.lock().unwrap().is_empty());
    }

    #[test]
    fn warm_start_places_seeds_clones_then_randoms() {
        let eval = |g: &Vec<usize>| displacement(g);
        let best: Vec<usize> = (0..10).collect();
        let second: Vec<usize> = {
            let mut p: Vec<usize> = (0..10).collect();
            p.swap(0, 9);
            p
        };
        let cfg = GaConfig {
            pop_size: 12,
            seed: 6,
            ..GaConfig::default()
        };
        let toolkit = perm_toolkit(10).with_warm_start(vec![best.clone(), second.clone()], 3);
        let e = Engine::new(cfg, toolkit, &eval);
        // Seeds land verbatim in the first slots.
        assert_eq!(e.population()[0].genome, best);
        assert_eq!(e.population()[1].genome, second);
        // The next three are mutated clones: one swap away from their
        // source seed (Hamming distance exactly 2 under SeqMutation::Swap
        // unless the swap was a fixed point, which the RNG here avoids).
        for (k, ind) in e.population().iter().enumerate().skip(2).take(3) {
            let source = if k % 2 == 0 { &best } else { &second };
            let differing = ind
                .genome
                .iter()
                .zip(source)
                .filter(|(a, b)| a != b)
                .count();
            assert!(differing <= 2, "clone {k} strayed: {differing} positions");
        }
        // Initial best is the incumbent: the warm-start guarantee.
        assert_eq!(e.best().cost, 0.0);
        assert_eq!(e.best().genome, best);
    }

    #[test]
    fn warm_start_is_seed_deterministic() {
        let eval = |g: &Vec<usize>| displacement(g);
        let incumbent: Vec<usize> = (0..9).rev().collect();
        let run = || {
            let cfg = GaConfig {
                pop_size: 20,
                seed: 5,
                ..GaConfig::default()
            };
            let toolkit = perm_toolkit(9).with_warm_start(vec![incumbent.clone()], 4);
            let mut e = Engine::new(cfg, toolkit, &eval);
            e.run(&Termination::Generations(15));
            (e.best().cost, e.best().genome.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_start_with_no_seeds_is_the_plain_toolkit() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 16,
            seed: 3,
            ..GaConfig::default()
        };
        let plain = Engine::new(cfg.clone(), perm_toolkit(8), &eval);
        let warm = Engine::new(cfg, perm_toolkit(8).with_warm_start(vec![], 5), &eval);
        let genomes = |e: &Engine<Vec<usize>>| -> Vec<Vec<usize>> {
            e.population().iter().map(|i| i.genome.clone()).collect()
        };
        assert_eq!(genomes(&plain), genomes(&warm));
    }

    #[test]
    fn seeding_improves_initial_best() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 10,
            seed: 4,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(15), &eval);
        e.seed_individuals(vec![(0..15).collect()]);
        assert_eq!(e.best().cost, 0.0);
    }

    #[test]
    fn sampled_run_emits_one_sample_per_generation() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 30,
            seed: 11,
            ..GaConfig::default()
        };
        let mut e = Engine::new(cfg, perm_toolkit(10), &eval);
        let mut samples: Vec<GenerationSample> = Vec::new();
        let best = run(
            &mut e,
            &Termination::Generations(25),
            &mut |_| {},
            Some(&mut |s| samples.push(s)),
        );
        assert_eq!(samples.len(), 25);
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.generation, k as u64 + 1);
            assert_eq!(s.island, None);
            assert!(!s.migration);
            assert!(s.best_cost <= s.mean_cost + 1e-9);
            assert!((0.0..=1.0).contains(&s.diversity));
            assert!(s.evaluations > 0);
        }
        // Best-cost curve is monotone non-increasing and ends at the
        // returned best.
        assert!(samples.windows(2).all(|w| w[1].best_cost <= w[0].best_cost));
        assert_eq!(samples.last().unwrap().best_cost, best.cost);
        // Stagnation age resets to zero on improving generations.
        assert!(samples
            .windows(2)
            .all(|w| w[1].since_improvement == 0
                || w[1].since_improvement == w[0].since_improvement + 1));
    }

    #[test]
    fn profiled_run_is_bit_identical_and_accounts_phase_time() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let eval = |g: &Vec<usize>| displacement(g);
        let cfg = GaConfig {
            pop_size: 24,
            seed: 9,
            ..GaConfig::default()
        };
        let mut bare = Engine::new(cfg.clone(), perm_toolkit(12), &eval);
        run(&mut bare, &Termination::Generations(20), &mut |_| {}, None);

        let select = AtomicU64::new(0);
        let breed = AtomicU64::new(0);
        let evaluate = AtomicU64::new(0);
        let hook = |phase: GaPhase, d: Duration| {
            let ns = d.as_nanos() as u64;
            match phase {
                GaPhase::Select => select.fetch_add(ns, Ordering::Relaxed),
                GaPhase::Breed => breed.fetch_add(ns, Ordering::Relaxed),
                GaPhase::Evaluate => evaluate.fetch_add(ns, Ordering::Relaxed),
                GaPhase::Migrate => unreachable!("engine never migrates"),
            };
        };
        let mut profiled = Engine::new(cfg, perm_toolkit(12), &eval);
        profiled.set_phase_hook(&hook);
        run(
            &mut profiled,
            &Termination::Generations(20),
            &mut |_| {},
            None,
        );

        // The profiler is measurement-only: same seed, same trajectory.
        assert_eq!(bare.best().cost, profiled.best().cost);
        assert_eq!(bare.best().genome, profiled.best().genome);
        assert_eq!(bare.history().records, profiled.history().records);
        // Evaluation work was actually attributed (select/breed can be
        // sub-nanosecond-rounding small, but 20 generations of batch
        // evaluation cannot be zero).
        assert!(evaluate.load(Ordering::Relaxed) > 0);
    }
}
