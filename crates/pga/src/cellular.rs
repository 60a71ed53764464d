//! Fine-grained (cellular / neighbourhood / diffusion / massively
//! parallel) GA — survey Table IV and Tamaki \[20\].
//!
//! One individual lives on each cell of a 2-D torus; selection and mating
//! are restricted to a cell's neighbourhood, and overlapping
//! neighbourhoods diffuse good genes across the grid. Updates are
//! synchronous (the whole grid advances one generation at once), matching
//! the survey's `Parallel_Neighborhood*` pseudo-code, and every cell draws
//! from its own deterministic RNG stream so the result is independent of
//! thread scheduling.

use crate::telemetry::RunTelemetry;
use ga::engine::{
    AnytimeStatus, GaPhase, Generational, Individual, PhaseHook, SampleEmit, Toolkit,
};
use ga::rng::stream_rng;
use ga::stats::{mean_hamming, GenRecord, History};
use ga::Evaluator;
use rayon::prelude::*;

/// Neighbourhood shape on the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborhoodShape {
    /// North, south, east, west (4 neighbours).
    VonNeumann,
    /// The 8 surrounding cells.
    Moore,
}

impl NeighborhoodShape {
    /// Offsets (row, col) of the neighbourhood, excluding the centre.
    pub fn offsets(&self) -> &'static [(isize, isize)] {
        match self {
            NeighborhoodShape::VonNeumann => &[(-1, 0), (1, 0), (0, -1), (0, 1)],
            NeighborhoodShape::Moore => &[
                (-1, -1),
                (-1, 0),
                (-1, 1),
                (0, -1),
                (0, 1),
                (1, -1),
                (1, 0),
                (1, 1),
            ],
        }
    }
}

/// Cellular GA configuration.
#[derive(Debug, Clone)]
pub struct CellularConfig {
    pub rows: usize,
    pub cols: usize,
    pub shape: NeighborhoodShape,
    /// Probability each child is mutated.
    pub mutation_rate: f64,
    pub seed: u64,
}

impl CellularConfig {
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        CellularConfig {
            rows,
            cols,
            shape: NeighborhoodShape::VonNeumann,
            mutation_rate: 0.2,
            seed,
        }
    }

    pub fn population(&self) -> usize {
        self.rows * self.cols
    }
}

/// The cellular GA: a `rows x cols` torus of individuals.
pub struct CellularGa<'a, G> {
    config: CellularConfig,
    toolkit: Toolkit<G>,
    evaluator: &'a dyn Evaluator<G>,
    grid: Vec<Individual<G>>,
    generation: u64,
    best: Individual<G>,
    history: History,
    pub telemetry: RunTelemetry,
    since_improvement: u64,
    phase_hook: Option<&'a PhaseHook<'a>>,
}

impl<'a, G: Clone + Send + Sync> CellularGa<'a, G> {
    /// Initialises and evaluates the grid.
    pub fn new<E: Evaluator<G>>(
        config: CellularConfig,
        toolkit: Toolkit<G>,
        evaluator: &'a E,
    ) -> Self {
        assert!(config.rows >= 2 && config.cols >= 2, "grid at least 2x2");
        let n = config.population();
        let genomes: Vec<G> = (0..n)
            .map(|i| {
                let mut rng = stream_rng(config.seed, i as u64);
                (toolkit.init)(&mut rng)
            })
            .collect();
        let costs = evaluator.cost_batch(&genomes);
        let grid: Vec<Individual<G>> = genomes
            .into_iter()
            .zip(costs)
            .map(|(genome, cost)| Individual { genome, cost })
            .collect();
        let best = grid
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("non-empty grid")
            .clone();
        let mut cga = CellularGa {
            telemetry: RunTelemetry {
                workers: n,
                evaluations: n as u64,
                ..Default::default()
            },
            config,
            toolkit,
            evaluator: evaluator as &dyn Evaluator<G>,
            grid,
            generation: 0,
            best,
            history: History::default(),
            since_improvement: 0,
            phase_hook: None,
        };
        cga.record();
        cga
    }

    /// Enables the phase profiler: `hook` receives each generation's
    /// `Breed` (neighbourhood selection + crossover + mutation) and
    /// `Evaluate` (grid-wide fitness batch) timings. Measurement-only —
    /// the per-cell RNG streams never see the clock.
    pub fn set_phase_hook(&mut self, hook: &'a PhaseHook<'a>) {
        self.phase_hook = Some(hook);
    }

    fn neighbour_indices(&self, idx: usize) -> Vec<usize> {
        let (rows, cols) = (self.config.rows as isize, self.config.cols as isize);
        let r = (idx / self.config.cols) as isize;
        let c = (idx % self.config.cols) as isize;
        self.config
            .shape
            .offsets()
            .iter()
            .map(|&(dr, dc)| {
                let nr = (r + dr).rem_euclid(rows);
                let nc = (c + dc).rem_euclid(cols);
                (nr * cols + nc) as usize
            })
            .collect()
    }

    /// One synchronous generation: every cell picks its best neighbour,
    /// mates with it, mutates, and the child replaces the incumbent only
    /// if it is at least as good (elitist cellular replacement).
    pub fn step(&mut self) {
        self.generation += 1;
        let gen = self.generation;
        let seed = self.config.seed;
        let mutation_rate = self.config.mutation_rate;
        let n = self.grid.len();
        let neighbours: Vec<Vec<usize>> = (0..n).map(|i| self.neighbour_indices(i)).collect();

        // Phase 1 (parallel, read-only grid): breed one child per cell.
        // Phase timing reads the clock only when a hook is installed.
        let tb = self.phase_hook.map(|_| ga::clock::now());
        let grid = &self.grid;
        let toolkit = &self.toolkit;
        let children: Vec<G> = (0..n)
            .into_par_iter()
            .map(|i| {
                let mut rng = stream_rng(seed, gen.wrapping_mul(0x1000_0000) + i as u64);
                let mate = *neighbours[i]
                    .iter()
                    .min_by(|&&a, &&b| grid[a].cost.total_cmp(&grid[b].cost))
                    .expect("non-empty neighbourhood");
                let (mut child, _) =
                    (toolkit.crossover)(&grid[i].genome, &grid[mate].genome, &mut rng);
                use rand::Rng;
                if rng.gen_bool(mutation_rate) {
                    (toolkit.mutate)(&mut child, &mut rng);
                }
                child
            })
            .collect();

        // Phase 2: evaluate all children (the massively-parallel fitness
        // phase of the survey's Table IV).
        let te = self.phase_hook.map(|_| ga::clock::now());
        if let (Some(hook), Some(tb), Some(te)) = (self.phase_hook, tb, te) {
            hook(GaPhase::Breed, te.saturating_duration_since(tb));
        }
        let costs = self.evaluator.cost_batch(&children);
        if let (Some(hook), Some(te)) = (self.phase_hook, te) {
            hook(GaPhase::Evaluate, ga::clock::elapsed_since(te));
        }
        self.telemetry.evaluations += n as u64;
        self.telemetry.evals_per_generation.push(n as u64);
        self.telemetry.generations += 1;
        // Each cell exchanged state with its neighbours once.
        self.telemetry.messages += (n * self.config.shape.offsets().len()) as u64;

        // Phase 3 (synchronous write): elitist replacement.
        let before = self.best.cost;
        for (i, (child, cost)) in children.into_iter().zip(costs).enumerate() {
            if cost <= self.grid[i].cost {
                self.grid[i] = Individual {
                    genome: child,
                    cost,
                };
            }
        }
        for ind in &self.grid {
            if ind.cost < self.best.cost {
                self.best = ind.clone();
            }
        }
        if self.best.cost < before {
            self.since_improvement = 0;
        } else {
            self.since_improvement += 1;
        }
        self.record();
    }

    fn record(&mut self) {
        let mean = self.grid.iter().map(|i| i.cost).sum::<f64>() / self.grid.len() as f64;
        let diversity = match &self.toolkit.seq_view {
            Some(view) => {
                let seqs: Vec<Vec<usize>> = self.grid.iter().map(|i| view(&i.genome)).collect();
                mean_hamming(&seqs)
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

    pub fn run(&mut self, generations: u64) -> Individual<G> {
        for _ in 0..generations {
            self.step();
        }
        self.best.clone()
    }

    pub fn best(&self) -> &Individual<G> {
        &self.best
    }

    pub fn grid(&self) -> &[Individual<G>] {
        &self.grid
    }

    pub fn history(&self) -> &History {
        &self.history
    }

    /// Replaces the individual at `cell` (hybrid-model migration hook).
    pub fn replace(&mut self, cell: usize, ind: Individual<G>) {
        if ind.cost < self.best.cost {
            self.best = ind.clone();
        }
        self.grid[cell] = ind;
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Driven by [`ga::engine::run`] on the whole grid's progress; a sampled
/// step emits one whole-grid sample (the torus is one sampling unit).
impl<G: Clone + Send + Sync> Generational<G> for CellularGa<'_, G> {
    fn status(&self) -> AnytimeStatus {
        AnytimeStatus {
            generation: self.generation,
            evaluations: self.telemetry.evaluations,
            best_cost: self.best.cost,
        }
    }

    fn step(&mut self, emit: Option<&mut SampleEmit<'_>>) {
        let before = self.best.cost;
        CellularGa::step(self);
        // Counted here, so only loop-driven runs count improvements.
        if self.best.cost < before {
            self.telemetry.improvements += 1;
        }
        let evaluations = self.telemetry.evaluations;
        if let (Some(emit), Some(s)) = (
            emit,
            self.history
                .last_sample(evaluations, self.since_improvement),
        ) {
            emit(s);
        }
    }

    fn best(&self) -> Individual<G> {
        self.best.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::crossover::PermCrossover;
    use ga::mutate::SeqMutation;
    use rand::seq::SliceRandom;

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
            seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
        }
    }

    #[test]
    fn warm_started_grid_places_the_incumbent_on_the_first_cells() {
        // The warm-start counter runs across the grid's sequential
        // construction order: cell 0 holds the incumbent verbatim, the
        // clone cells follow, and the initial best can never be worse
        // than the incumbent.
        let eval = |g: &Vec<usize>| displacement(g);
        let incumbent: Vec<usize> = (0..6).rev().collect();
        let incumbent_cost = displacement(&incumbent);
        let tk = toolkit(6).with_warm_start(vec![incumbent.clone()], 4);
        let cga = CellularGa::new(CellularConfig::new(3, 4, 5), tk, &eval);
        assert_eq!(cga.grid()[0].genome, incumbent);
        assert!(cga.best().cost <= incumbent_cost);
    }

    #[test]
    fn torus_neighbourhoods_have_right_size() {
        let eval = |g: &Vec<usize>| displacement(g);
        let cga = CellularGa::new(CellularConfig::new(4, 5, 1), toolkit(6), &eval);
        for i in 0..20 {
            assert_eq!(cga.neighbour_indices(i).len(), 4);
        }
        let mut cfg = CellularConfig::new(4, 5, 1);
        cfg.shape = NeighborhoodShape::Moore;
        let cga = CellularGa::new(cfg, toolkit(6), &eval);
        for i in 0..20 {
            let nb = cga.neighbour_indices(i);
            assert_eq!(nb.len(), 8);
            assert!(!nb.contains(&i));
        }
    }

    #[test]
    fn improves_and_is_deterministic() {
        let eval = |g: &Vec<usize>| displacement(g);
        let run = || {
            let mut cga = CellularGa::new(CellularConfig::new(4, 4, 17), toolkit(10), &eval);
            let start = cga.best().cost;
            let end = cga.run(25).cost;
            (start, end)
        };
        let (s1, e1) = run();
        let (s2, e2) = run();
        assert_eq!((s1, e1), (s2, e2));
        assert!(e1 < s1);
    }

    #[test]
    fn elitist_replacement_never_worsens_cells() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(3, 3, 2), toolkit(8), &eval);
        let before: Vec<f64> = cga.grid().iter().map(|i| i.cost).collect();
        cga.step();
        let after: Vec<f64> = cga.grid().iter().map(|i| i.cost).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!(a <= b);
        }
    }

    #[test]
    fn diversity_decays_but_slower_than_zero() {
        // The cellular model's selling point: diversity declines gradually.
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(5, 5, 3), toolkit(12), &eval);
        cga.run(10);
        let h = cga.history();
        let d0 = h.records.first().unwrap().diversity;
        let dn = h.records.last().unwrap().diversity;
        assert!(d0 > 0.5, "random start should be diverse");
        assert!(dn > 0.0, "cellular grid should retain some diversity");
    }

    #[test]
    fn telemetry_counts_messages() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(3, 3, 4), toolkit(6), &eval);
        cga.run(2);
        // 9 cells x 4 neighbours x 2 generations.
        assert_eq!(cga.telemetry.messages, 72);
        assert_eq!(cga.telemetry.evaluations, 9 + 18);
    }

    #[test]
    fn sampled_run_emits_whole_grid_samples() {
        let eval = |g: &Vec<usize>| displacement(g);
        let mut cga = CellularGa::new(CellularConfig::new(4, 4, 6), toolkit(8), &eval);
        let mut samples = Vec::new();
        use ga::termination::Termination;
        let best = ga::engine::run(
            &mut cga,
            &Termination::Generations(10),
            &mut |_| {},
            Some(&mut |s| samples.push(s)),
        );
        assert_eq!(samples.len(), 10);
        let mut prev_best = f64::INFINITY;
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.island, None, "torus samples as one unit");
            assert_eq!(s.generation, (k + 1) as u64);
            assert!(!s.migration);
            assert!(s.best_cost <= s.mean_cost);
            assert!(s.best_cost <= prev_best, "elitist best is monotone");
            assert!((0.0..=1.0).contains(&s.diversity));
            prev_best = s.best_cost;
        }
        assert_eq!(samples.last().unwrap().best_cost, best.cost);
        // Stagnation age resets on improvement, else increments.
        let mut prev = samples[0];
        for s in &samples[1..] {
            if s.best_cost < prev.best_cost {
                assert_eq!(s.since_improvement, 0);
            } else {
                assert_eq!(s.since_improvement, prev.since_improvement + 1);
            }
            prev = *s;
        }
    }

    #[test]
    fn profiled_grid_run_is_bit_identical() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let eval = |g: &Vec<usize>| displacement(g);
        use ga::termination::Termination;
        let t = Termination::Generations(8);
        let mut bare = CellularGa::new(CellularConfig::new(4, 4, 7), toolkit(8), &eval);
        ga::engine::run(&mut bare, &t, &mut |_| {}, None);

        let breed_ns = AtomicU64::new(0);
        let evaluate_ns = AtomicU64::new(0);
        let hook = |phase: GaPhase, d: std::time::Duration| {
            let ns = d.as_nanos() as u64;
            match phase {
                GaPhase::Breed => {
                    breed_ns.fetch_add(ns, Ordering::Relaxed);
                }
                GaPhase::Evaluate => {
                    evaluate_ns.fetch_add(ns, Ordering::Relaxed);
                }
                _ => {}
            }
        };
        let mut profiled = CellularGa::new(CellularConfig::new(4, 4, 7), toolkit(8), &eval);
        profiled.set_phase_hook(&hook);
        ga::engine::run(&mut profiled, &t, &mut |_| {}, None);

        assert_eq!(bare.best().cost, profiled.best().cost);
        assert_eq!(bare.best().genome, profiled.best().genome);
        assert_eq!(bare.history().records, profiled.history().records);
        assert!(breed_ns.load(Ordering::Relaxed) > 0);
        assert!(evaluate_ns.load(Ordering::Relaxed) > 0);
    }
}
