//! Request scripts: every workload is a fixed list of requests that is
//! a pure function of `(workload, seed, seconds)`. `seconds` only sets
//! the script's length (through a nominal per-workload answer rate), so
//! a run replays a fixed script rather than measuring a time window,
//! and answer quality repeats exactly from run to run.

use serve::protocol::{encode_request, encode_session_event, encode_session_open};
use serve::{InstanceSpec, Objective, SessionEventRequest, SessionOpenRequest, SolveRequest};
use shop::dynamic::Event;
use shop::gen::AnyInstance;
use shop::instance::Op;

/// The four service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of cold, cap-bound solves over all four families.
    ColdMix,
    /// Closed loop of cache hits over a primed working set.
    CachedHot,
    /// Closed loop of session events; each connection drives its own
    /// durable sessions.
    SessionStorm,
    /// Open loop at a fixed rate: mostly hits, some cold solves.
    MixedOpen,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMix,
        Workload::CachedHot,
        Workload::SessionStorm,
        Workload::MixedOpen,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold-mix",
            Workload::CachedHot => "cached-hot",
            Workload::SessionStorm => "session-storm",
            Workload::MixedOpen => "mixed-open",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the client sends on a schedule (open loop) instead of
    /// after each answer.
    pub fn open_loop(self) -> bool {
        self == Workload::MixedOpen
    }
}

/// Number of client connections (and client threads) of every workload.
pub const CONNECTIONS: usize = 2;

/// Deadline every solve and session open carries: far above any
/// cap-bound race, so races end on their generation cap.
pub const SOLVE_DEADLINE_MS: u64 = 20_000;

/// Deadline every session event carries (see [`SOLVE_DEADLINE_MS`]).
pub const EVENT_DEADLINE_MS: u64 = 10_000;

/// Racing models per request, as the server's default `--racers`.
pub const RACERS: usize = 3;

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
pub enum ReqKind {
    /// A makespan solve of a named instance with a portfolio seed.
    Solve { instance: String, seed: u64 },
    /// Opens session number `session` on a named job-shop instance.
    Open {
        instance: String,
        seed: u64,
        session: usize,
    },
    /// One disruption on session number `session`.
    Event { session: usize, event: Event },
}

/// A request, the connection it is sent on and (open loop only) when it
/// is due, in microseconds after the measured phase starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub conn: usize,
    pub due_us: u64,
    pub kind: ReqKind,
}

/// A workload's whole script plus the server configuration it runs on.
#[derive(Debug, Clone)]
pub struct Script {
    pub workload: Workload,
    /// `--gen-cap` of the workload's server (and of the replay).
    pub gen_cap: u64,
    /// `--cache` of the workload's server (and of the replay).
    pub cache: usize,
    /// Requests run before measuring: the working set solved cold,
    /// sessions opened, or warm-up races. Part of `setup_s`.
    pub priming: Vec<Req>,
    /// The measured requests: `passes` equal, equivalent blocks run one
    /// after another (open-loop due times restart in each block).
    pub measured: Vec<Req>,
    pub passes: usize,
    /// Open loop only: the latency limit behind `limit_miss_share`.
    pub limit_ms: f64,
}

impl Script {
    /// Builds the script of `workload` for `seed`, sized for a measured
    /// phase of about `seconds` seconds.
    pub fn build(workload: Workload, seed: u64, seconds: u64) -> Script {
        let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seconds = seconds.max(1);
        match workload {
            Workload::ColdMix => cold_mix(&mut rng, seconds),
            Workload::CachedHot => cached_hot(&mut rng, seconds),
            Workload::SessionStorm => session_storm(&mut rng, seconds),
            Workload::MixedOpen => mixed_open(&mut rng, seconds),
        }
    }

    /// Server flags of the workload (on top of the port flags).
    pub fn server_args(&self) -> Vec<String> {
        vec![
            "--workers".to_string(),
            CONNECTIONS.to_string(),
            "--racer-pool".to_string(),
            "2".to_string(),
            "--racers".to_string(),
            RACERS.to_string(),
            "--gen-cap".to_string(),
            self.gen_cap.to_string(),
            "--cache".to_string(),
            self.cache.to_string(),
            "--max-deadline-ms".to_string(),
            SOLVE_DEADLINE_MS.to_string(),
        ]
    }

    /// Index ranges of the passes within `measured`.
    pub fn pass_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let per = self.measured.len() / self.passes;
        (0..self.passes).map(|p| p * per..(p + 1) * per).collect()
    }

    /// Every request in order: priming first, then measured.
    pub fn all(&self) -> impl Iterator<Item = &Req> {
        self.priming.iter().chain(self.measured.iter())
    }

    /// The script as wire lines, with session ids written `s<index>`;
    /// byte-identical for equal inputs (the determinism test's probe).
    #[cfg(test)]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} gen_cap={} cache={} passes={} limit_ms={}\n",
            self.workload.name(),
            self.gen_cap,
            self.cache,
            self.passes,
            self.limit_ms
        );
        for r in self.all() {
            let session = match r.kind {
                ReqKind::Event { session, .. } => format!("s{session}"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "{} {} {}\n",
                r.conn,
                r.due_us,
                wire_line(&r.kind, &session, None)
            ));
        }
        out
    }
}

/// The request's wire line; events address `session`.
pub fn wire_line(kind: &ReqKind, session: &str, id: Option<String>) -> String {
    match kind {
        ReqKind::Solve { instance, seed } => encode_request(&SolveRequest {
            id,
            instance: InstanceSpec::Named(instance.clone()),
            objective: Objective::Makespan,
            seed: *seed,
            deadline_ms: SOLVE_DEADLINE_MS,
            trace: false,
        }),
        ReqKind::Open { instance, seed, .. } => encode_session_open(&SessionOpenRequest {
            id,
            instance: InstanceSpec::Named(instance.clone()),
            objective: Objective::Makespan,
            seed: *seed,
            deadline_ms: SOLVE_DEADLINE_MS,
            ttl_ms: 0,
            trace: false,
        }),
        ReqKind::Event { event, .. } => encode_session_event(&SessionEventRequest {
            id,
            session: session.to_string(),
            event: event.clone(),
            deadline_ms: EVENT_DEADLINE_MS,
            trace: false,
        }),
    }
}

/// Whether `name` is one of the embedded classics (not a `gen-*` name).
pub fn is_classic(name: &str) -> bool {
    !name.starts_with("gen-")
}

/// splitmix64: a tiny deterministic generator, so scripts depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_u64() as usize % items.len()]
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cold-mix instance shapes: all four families at two sizes, each large
/// enough that no race certifies its lower bound under the cap (at
/// generator seeds 1 to 4; `gen-open-8x8-s3` would).
const COLD_SHAPES: [&str; 8] = [
    "flow-20x10",
    "flow-30x10",
    "job-10x10",
    "job-15x10",
    "open-10x10",
    "open-12x12",
    "flexible-10x6",
    "flexible-12x6",
];

/// Generator seeds per shape: instance `i` of a cycle over `shapes` is
/// shape `i mod len` with generator seed `(i / len) mod GEN_SEEDS + 1`.
const GEN_SEEDS: usize = 4;

/// The `i`-th instance of a fixed cycle: shape `i mod len`, then
/// generator seeds 1 to [`GEN_SEEDS`] in turn.
fn cycled(shapes: &[&str], i: usize) -> String {
    format!(
        "gen-{}-s{}",
        shapes[i % shapes.len()],
        (i / shapes.len()) % GEN_SEEDS + 1
    )
}

/// Portfolio seeds of measured solves: distinct within a script, and
/// disjoint from priming seeds (which have bit 40 set).
fn fresh_seed(rng: &mut Rng, index: usize) -> u64 {
    ((rng.next_u64() & 0xFFFF) << 20) | index as u64
}

/// Cold-mix answers per second the script is sized by (two connections,
/// `--gen-cap 40`, on two cores).
const COLD_RATE: u64 = 25;

fn cold_mix(rng: &mut Rng, seconds: u64) -> Script {
    // Instances cycle through the shapes and generator seeds in a fixed
    // order, so every workload seed runs the same mix; the portfolio
    // seed is fresh on every request, so every solve is cold. A pass is
    // one whole cycle (every shape with every generator seed once), so
    // the passes are equivalent, and there are at least two.
    let per_pass = COLD_SHAPES.len() * GEN_SEEDS;
    let passes = ((COLD_RATE * seconds) as usize).div_ceil(per_pass).max(2);
    let measured = (0..passes * per_pass)
        .map(|i| Req {
            conn: i % CONNECTIONS,
            due_us: 0,
            kind: ReqKind::Solve {
                instance: cycled(&COLD_SHAPES, i),
                seed: fresh_seed(rng, i),
            },
        })
        .collect();
    // Warm-up: one race per family on the smaller shape, seeds outside
    // the measured range.
    let priming = (0..4)
        .map(|f| Req {
            conn: f % CONNECTIONS,
            due_us: 0,
            kind: ReqKind::Solve {
                instance: format!("gen-{}-s9", COLD_SHAPES[2 * f]),
                seed: (1 << 40) | f as u64,
            },
        })
        .collect();
    Script {
        workload: Workload::ColdMix,
        gen_cap: 40,
        // Smaller than the measured script, so the script evicts.
        cache: 64,
        priming,
        measured,
        passes,
        limit_ms: 0.0,
    }
}

/// Working-set names of the hit workloads: classics and gen-* names of
/// all four families.
const HOT_NAMES: [&str; 14] = [
    "ft06",
    "la01",
    "flow05",
    "open_latin3",
    "flex03",
    "gen-job-10x5",
    "gen-job-20x10",
    "gen-flow-20x5",
    "gen-flow-20x10",
    "gen-open-6x6",
    "gen-open-8x8",
    "gen-flexible-8x4",
    "gen-flexible-15x8",
    "gen-job-15x15",
];

/// The hit working set: every name of [`HOT_NAMES`] (gen-* names with
/// generator seed 1) with `seeds` seeded portfolio seeds.
fn working_set(rng: &mut Rng, seeds: usize) -> Vec<(String, u64)> {
    let mut keys = Vec::new();
    for name in HOT_NAMES {
        let name = if is_classic(name) {
            name.to_string()
        } else {
            format!("{name}-s1")
        };
        for k in 0..seeds {
            keys.push((
                name.clone(),
                (1 << 40) | (rng.next_u64() & 0xFFFF) << 4 | k as u64,
            ));
        }
    }
    keys
}

fn priming_solves(keys: &[(String, u64)]) -> Vec<Req> {
    keys.iter()
        .enumerate()
        .map(|(i, (instance, seed))| Req {
            conn: i % CONNECTIONS,
            due_us: 0,
            kind: ReqKind::Solve {
                instance: instance.clone(),
                seed: *seed,
            },
        })
        .collect()
}

fn cached_hot(rng: &mut Rng, seconds: u64) -> Script {
    let keys = working_set(rng, 2);
    // About 14k hits per second on two cores, so the measured passes
    // take about `seconds`.
    let n = (14_000 * seconds) as usize;
    let measured = (0..n)
        .map(|i| {
            let (instance, seed) = rng.pick(&keys).clone();
            Req {
                conn: i % CONNECTIONS,
                due_us: 0,
                kind: ReqKind::Solve { instance, seed },
            }
        })
        .collect();
    Script {
        workload: Workload::CachedHot,
        gen_cap: 30,
        cache: 256,
        priming: priming_solves(&keys),
        measured,
        // Short passes (about 0.3 s each): scheduling stalls of the
        // shared host last milliseconds to seconds, and short passes
        // leave more of the faster half free of them.
        passes: 32,
        limit_ms: 0.0,
    }
}

/// Session-storm instance shape (generator seeds cycle over sessions).
const SESSION_SHAPE: &str = "job-12x6";

/// Events per session: the first [`EARLY_EVENTS`] advance the clock
/// across the schedule (long suffixes, GA-bound), the rest land past
/// its end (empty suffix: repair plus the WAL).
const EVENTS_PER_SESSION: usize = 30;
const EARLY_EVENTS: usize = 21;

/// Early-event positions that are job arrivals; each is followed by a
/// revision of the new job's last operation at the same time. Fixed
/// positions keep the work per session the same for every seed.
const ARRIVALS_AT: [usize; 2] = [5, 12];

/// Start of the late events' clock: far past any schedule's end.
const LATE_CLOCK: u64 = 10_000_000;

/// One session's events on a `jobs` x `machines` instance whose
/// makespan lower bound is `horizon`.
fn session_events(rng: &mut Rng, jobs: usize, machines: usize, horizon: u64) -> Vec<Event> {
    let mut events = Vec::with_capacity(EVENTS_PER_SESSION);
    let mut arrived = jobs;
    let mut i = 0;
    while events.len() < EVENTS_PER_SESSION {
        let machine = rng.range(0, machines as u64 - 1) as usize;
        if events.len() >= EARLY_EVENTS {
            events.push(Event::Breakdown {
                machine,
                from: LATE_CLOCK + 100 * i as u64,
                duration: rng.range(1, 30),
            });
        } else {
            // Early clock: over the first 90% of the lower bound.
            let at = events.len() as u64 * horizon * 9 / 10 / EARLY_EVENTS as u64;
            if ARRIVALS_AT.contains(&events.len()) {
                // A rotated machine order: the new job visits every
                // machine once; its last operation cannot have started
                // when the revision lands at the arrival time.
                let route: Vec<Op> = (0..machines)
                    .map(|m| Op::new((m + machine) % machines, rng.range(1, 99)))
                    .collect();
                events.push(Event::JobArrival { at, route });
                events.push(Event::Revision {
                    at,
                    job: arrived,
                    op: machines - 1,
                    duration: rng.range(1, 99),
                });
                arrived += 1;
            } else {
                events.push(Event::Breakdown {
                    machine,
                    from: at,
                    duration: rng.range(1, 30),
                });
            }
        }
        i += 1;
    }
    events
}

/// Session-storm passes (each a whole number of sessions per
/// connection).
const SESSION_PASSES: usize = 6;

fn session_storm(rng: &mut Rng, seconds: u64) -> Script {
    // Many short sessions rather than two long ones: arrivals grow a
    // session's instance, so a long session's events get ever costlier.
    // Each pass drives its own sessions, the same number per connection.
    // About 100 events per second on two cores.
    let per_pass = ((100 * seconds) as usize / EVENTS_PER_SESSION / SESSION_PASSES)
        .div_ceil(CONNECTIONS)
        .max(1)
        * CONNECTIONS;
    let mut priming = Vec::new();
    let mut measured = Vec::new();
    for pass in 0..SESSION_PASSES {
        let mut streams: Vec<Vec<Req>> = vec![Vec::new(); CONNECTIONS];
        for session in pass * per_pass..(pass + 1) * per_pass {
            let conn = session % CONNECTIONS;
            let instance = cycled(&[SESSION_SHAPE], session);
            let inst = AnyInstance::resolve_named(&instance)
                .and_then(Result::ok)
                .expect("session-storm instance resolves");
            let (jobs, machines) = (inst.problem().n_jobs(), inst.problem().n_machines());
            let events = session_events(rng, jobs, machines, inst.makespan_lower_bound());
            priming.push(Req {
                conn,
                due_us: 0,
                kind: ReqKind::Open {
                    instance,
                    seed: (1 << 40) | rng.next_u64() & 0xFFFF,
                    session,
                },
            });
            streams[conn].extend(events.into_iter().map(|event| Req {
                conn,
                due_us: 0,
                kind: ReqKind::Event { session, event },
            }));
        }
        // Interleave the connections' streams (each connection sends
        // its own in order, one session after another).
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        measured.extend(
            (0..longest).flat_map(|i| streams.iter().filter_map(move |s| s.get(i).cloned())),
        );
    }
    Script {
        workload: Workload::SessionStorm,
        gen_cap: 10,
        cache: 256,
        priming,
        measured,
        passes: SESSION_PASSES,
        limit_ms: 0.0,
    }
}

/// Mixed-open offered rate (requests per second, both connections).
pub const MIXED_RATE: f64 = 100.0;

/// Cold shapes of the mixed-open workload (small enough to leave the
/// two cores headroom at [`MIXED_RATE`]).
const MIXED_COLD: [&str; 4] = ["flow-20x10", "job-10x10", "open-10x10", "flexible-10x6"];

fn mixed_open(rng: &mut Rng, seconds: u64) -> Script {
    let keys = working_set(rng, 1);
    // Four passes, each a whole number of ten-request groups.
    let per_pass = ((MIXED_RATE * seconds as f64 / 4.0) as usize).div_ceil(10) * 10;
    let gap_us = 1e6 / MIXED_RATE;
    let mut cold = 0usize;
    let measured = (0..4 * per_pass)
        .map(|i| {
            // Due times on a fixed grid from each pass's start, with
            // seeded jitter of up to a quarter gap either way; one
            // request in ten is cold.
            let jitter = (rng.unit() - 0.5) * 0.5 * gap_us;
            let due_us = (((i % per_pass) as f64 + 0.5) * gap_us + jitter) as u64;
            let kind = if i % 10 == 5 {
                cold += 1;
                ReqKind::Solve {
                    instance: cycled(&MIXED_COLD, cold),
                    seed: fresh_seed(rng, i),
                }
            } else {
                let (instance, seed) = rng.pick(&keys).clone();
                ReqKind::Solve { instance, seed }
            };
            Req {
                conn: i % CONNECTIONS,
                due_us,
                kind,
            }
        })
        .collect();
    Script {
        workload: Workload::MixedOpen,
        gen_cap: 10,
        cache: 256,
        priming: priming_solves(&keys),
        measured,
        passes: 4,
        limit_ms: 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = Script::build(w, 7, 3).render();
            assert_eq!(a, Script::build(w, 7, 3).render(), "{}", w.name());
            assert_ne!(a, Script::build(w, 8, 3).render(), "{}", w.name());
        }
    }

    #[test]
    fn cold_mix_seeds_are_fresh_and_cover_every_family() {
        let s = Script::build(Workload::ColdMix, 1, 10);
        let mut seen = std::collections::HashSet::new();
        let mut families = std::collections::HashSet::new();
        for r in &s.measured {
            let ReqKind::Solve { instance, seed } = &r.kind else {
                panic!("cold-mix only solves")
            };
            assert!(seen.insert(*seed), "seed repeats");
            families.insert(instance.split('-').nth(1).unwrap().to_string());
        }
        assert_eq!(families.len(), 4);
        assert!(s.measured.len() > s.cache, "the script must evict");
        // Every pass runs each shape with each generator seed once.
        let instances = |range: std::ops::Range<usize>| {
            s.measured[range]
                .iter()
                .map(|r| match &r.kind {
                    ReqKind::Solve { instance, .. } => instance.clone(),
                    _ => unreachable!("cold-mix only solves"),
                })
                .collect::<std::collections::BTreeSet<String>>()
        };
        let first = instances(s.pass_ranges()[0].clone());
        assert_eq!(first.len(), COLD_SHAPES.len() * GEN_SEEDS);
        assert!(s.pass_ranges().len() >= 2);
        for range in s.pass_ranges() {
            assert_eq!(range.len(), first.len());
            assert_eq!(instances(range), first);
        }
    }

    #[test]
    fn session_storm_has_early_and_late_events_per_session() {
        let s = Script::build(Workload::SessionStorm, 3, 3);
        assert_eq!(s.measured.len(), s.priming.len() * EVENTS_PER_SESSION);
        for session in 0..s.priming.len() {
            let times: Vec<u64> = s
                .measured
                .iter()
                .filter_map(|r| match &r.kind {
                    ReqKind::Event { session: k, event } if *k == session => Some(event.at()),
                    ReqKind::Event { .. } => None,
                    _ => panic!("only events are measured"),
                })
                .collect();
            assert_eq!(times.len(), EVENTS_PER_SESSION);
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "clock must advance");
            assert!(times.iter().any(|&t| t < LATE_CLOCK));
            assert!(times.iter().any(|&t| t >= LATE_CLOCK));
        }
    }

    #[test]
    fn mixed_open_due_times_increase_and_one_in_ten_is_cold() {
        let s = Script::build(Workload::MixedOpen, 5, 5);
        for r in s.pass_ranges() {
            assert!(s.measured[r].windows(2).all(|w| w[0].due_us < w[1].due_us));
        }
        // Working-set seeds have bit 40 set; cold seeds are fresh.
        let cold = s
            .measured
            .iter()
            .filter(|r| matches!(r.kind, ReqKind::Solve { seed, .. } if seed < 1 << 40))
            .count();
        assert_eq!(cold, s.measured.len() / 10);
    }
}
