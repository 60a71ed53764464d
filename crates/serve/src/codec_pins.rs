//! Pins for the one codec race path (`solver::race_codec`). A cap-bound
//! race over each of the five codecs — flow, job, open, flexible and a
//! session's frozen-prefix suffix — must give the same answer and the
//! same per-member telemetry with every hook off and with every hook on
//! (traced, watched, phase-profiled), and the answer must equal the
//! value recorded before the per-family race arms were collapsed onto
//! the codec path. The recorded values come from seed-7 solves and a
//! seed-42 ft06 session, 40 generations per racer, 3 racers, on a
//! 3-thread racer pool: every member runs to its cap, so the outcome is
//! machine-independent.

use crate::json::Json;
use crate::obs::phase::PhaseAcc;
use crate::obs::trace::Trace;
use crate::portfolio::{plan_lineup, WatchSink};
use crate::protocol::{InstanceSpec, Objective};
use crate::scheduler::RacerPool;
use crate::session::{handle_event, handle_event_hooked, SessionState, SuffixCodec};
use crate::solver::{load_instance, race_codec, solve_hooked, RacePlan, SolveHooks};
use ga::rng::split_seed;
use pga::telemetry::RunTelemetry;
use shop::dynamic::{apply_event, frozen_prefix, Event};
use shop::gen::{AnyInstance, Family};
use shop::instance::classic;
use shop::schedule::Schedule;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const GEN_CAP: u64 = 40;
const RACERS: usize = 3;

/// A watch sink that keeps every frame.
#[derive(Default)]
struct Collect(Mutex<Vec<Json>>);

impl WatchSink for Collect {
    fn emit(&self, frame: &Json) {
        self.0.lock().unwrap().push(frame.clone());
    }
}

/// Every hook on, plus handles to check the hooks actually fired.
fn all_hooks() -> (SolveHooks, Arc<Collect>, Arc<PhaseAcc>) {
    let sink = Arc::new(Collect::default());
    let phases = Arc::new(PhaseAcc::new());
    let hooks = SolveHooks {
        traced: true,
        watch: Some(Arc::clone(&sink) as Arc<dyn WatchSink>),
        phases: Some(Arc::clone(&phases)),
    };
    (hooks, sink, phases)
}

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(60)
}

/// `(member, generations, evaluations, improvements, decode_calls,
/// retimed_positions)` per member, in lineup order.
type Tel = (&'static str, u64, u64, u64, u64, u64);

/// `(instance, objective, value, makespan, winner, members)`.
type Pin = (&'static str, Objective, f64, u64, &'static str, [Tel; 3]);

fn members(models: &[(String, RunTelemetry)]) -> Vec<(String, u64, u64, u64, u64, u64)> {
    models
        .iter()
        .map(|(name, t)| {
            (
                name.clone(),
                t.generations,
                t.evaluations,
                t.improvements,
                t.decode_calls,
                t.retimed_positions,
            )
        })
        .collect()
}

fn recorded(tel: &[Tel]) -> Vec<(String, u64, u64, u64, u64, u64)> {
    tel.iter()
        .map(|&(n, g, e, i, d, r)| (n.to_string(), g, e, i, d, r))
        .collect()
}

#[test]
fn codec_solves_match_with_and_without_hooks_and_the_recorded_values() {
    // The open shop races total completion: its makespan optimum equals
    // the lower bound, which would end the race on a certified target
    // at a timing-dependent rival generation.
    let pins: [Pin; 4] = [
        (
            "flow05",
            Objective::Makespan,
            46.0,
            46,
            "cellular",
            [
                ("cellular", 40, 1476, 1, 1476, 5210),
                ("island", 40, 1312, 0, 992, 1456),
                ("master_slave", 40, 1232, 0, 1232, 1738),
            ],
        ),
        (
            "ft06",
            Objective::Makespan,
            55.0,
            55,
            "cellular",
            [
                ("master_slave", 40, 2872, 1, 2872, 88828),
                ("cellular", 40, 2624, 5, 2624, 90026),
                ("island", 40, 2952, 3, 2632, 45737),
            ],
        ),
        (
            "open_latin3",
            Objective::TotalCompletion,
            18.0,
            6,
            "cellular",
            [
                ("cellular", 40, 1476, 2, 1476, 12282),
                ("master_slave", 40, 1232, 0, 1232, 6721),
                ("island", 40, 1312, 0, 992, 5620),
            ],
        ),
        (
            "flex03",
            Objective::Makespan,
            7.0,
            7,
            "master_slave",
            [
                ("master_slave", 40, 1232, 1, 1232, 4919),
                ("cellular", 40, 1476, 0, 1476, 8040),
                ("island", 40, 1312, 1, 992, 3148),
            ],
        ),
    ];
    let pool = RacerPool::new(RACERS);
    for (name, objective, value, makespan, winner, tel) in pins {
        let inst = Arc::new(load_instance(&InstanceSpec::Named(name.into())).unwrap());
        let solve = |hooks| {
            solve_hooked(
                &pool,
                &inst,
                objective,
                7,
                deadline(),
                GEN_CAP,
                RACERS,
                hooks,
            )
        };
        let bare = solve(SolveHooks::default());
        let (hooks, sink, phases) = all_hooks();
        let hooked = solve(hooks);

        assert_eq!(
            bare.solution, hooked.solution,
            "{name}: hooks changed the answer"
        );
        assert_eq!(
            bare.models, hooked.models,
            "{name}: hooks changed telemetry"
        );
        assert!(!bare.deadline_bound, "{name}: the race must be cap-bound");
        let s = &bare.solution;
        assert_eq!(
            (s.value, s.makespan, s.model.as_str()),
            (value, makespan, winner),
            "{name}: answer moved off the recorded value"
        );
        assert_eq!(members(&bare.models), recorded(&tel), "{name}: telemetry");
        // The hooks did fire: watched frames, traced timelines, phase time.
        assert!(!sink.0.lock().unwrap().is_empty(), "{name}: no frames");
        assert_eq!(hooked.timelines.len(), 3, "{name}: no timelines");
        assert!(bare.timelines.is_empty());
        assert!(phases.snapshot_ns()[4] > 0, "{name}: decode phase untimed");
    }
}

#[test]
fn session_event_matches_with_and_without_hooks_and_the_recorded_value() {
    let pool = RacerPool::new(RACERS);
    let inst = classic::ft06().instance;
    let any = Arc::new(AnyInstance::Job(inst.clone()));
    let open = crate::solve(
        &pool,
        &any,
        Objective::Makespan,
        42,
        deadline(),
        GEN_CAP,
        RACERS,
    );
    assert_eq!(open.solution.value, 55.0);
    let state = || SessionState {
        inst: inst.clone(),
        objective: Objective::Makespan,
        seed: 42,
        windows: Vec::new(),
        now: 0,
        incumbent: Arc::new(open.solution.clone()),
        deadline_bound: false,
        events: 0,
        ttl_ms: 0,
        journal: Vec::new(),
    };
    let event = Event::Breakdown {
        machine: 2,
        from: 14,
        duration: 20,
    };

    let mut bare_state = state();
    let bare = handle_event(
        &pool,
        &mut bare_state,
        &event,
        deadline(),
        GEN_CAP,
        RACERS,
        false,
    )
    .unwrap();
    let mut hooked_state = state();
    let mut trace = Trace::new(1, "session_event");
    let (hooks, sink, phases) = all_hooks();
    let hooked = handle_event_hooked(
        &pool,
        &mut hooked_state,
        &event,
        deadline(),
        GEN_CAP,
        RACERS,
        false,
        Some(&mut trace),
        hooks,
    )
    .unwrap();

    assert_eq!(bare.solution, hooked.solution);
    assert_eq!(
        (bare.winner, bare.repair_value, bare.resolve_value),
        (hooked.winner, hooked.repair_value, hooked.resolve_value)
    );
    assert_eq!(bare.resolve_generations, hooked.resolve_generations);
    assert_eq!(bare.deadline_bound, hooked.deadline_bound);
    let s = &bare.solution;
    assert_eq!(
        (bare.winner, s.value, s.makespan, s.model.as_str()),
        ("resolve", 60.0, 60, "resolve/master_slave")
    );
    assert_eq!(bare.repair_value, 67.0);
    assert_eq!(bare.resolve_generations, GEN_CAP);
    assert!(!sink.0.lock().unwrap().is_empty());
    assert!(trace.spans.iter().any(|sp| sp.name == "resolve"));
    assert!(phases.snapshot_ns()[4] > 0, "suffix decodes are timed");

    // The same race through the suffix codec directly, for its
    // per-member telemetry (the event outcome does not carry it).
    let incumbent = Schedule::new(open.solution.schedule.clone());
    let (next, windows, repaired) = apply_event(&inst, &incumbent, &[], &event).unwrap();
    let (frozen, suffix) = frozen_prefix(&repaired, 14);
    let race = |hooks| {
        let codec = SuffixCodec::new(
            next.clone(),
            frozen.clone(),
            suffix.clone(),
            windows.clone(),
            14,
        );
        race_codec(
            codec,
            RacePlan {
                pool: &pool,
                lineup: plan_lineup(Family::Job, suffix.len(), RACERS),
                objective: Objective::Makespan,
                seed: split_seed(42, 1),
                deadline: deadline(),
                gen_cap: GEN_CAP,
                target: 0.0,
                hooks,
            },
        )
    };
    let (bare_schedule, bare_race) = race(SolveHooks::default());
    let (hooked_schedule, hooked_race) = race(all_hooks().0);
    assert_eq!(bare_schedule.ops, hooked_schedule.ops);
    assert_eq!(bare_schedule.makespan(), 60);
    assert_eq!(bare_race.models, hooked_race.models);
    assert_eq!(bare_race.models.len(), 3);
    for (name, t) in &bare_race.models {
        assert_eq!(t.generations, GEN_CAP, "{name} must run to its cap");
        // Sessions report no decode counters.
        assert_eq!((t.decode_calls, t.retimed_positions), (0, 0));
    }
}
