//! The in-process replay: the same request script driven through the
//! public functions of `serve`, `shop`, `ga`/`pga` and `hpc`, in the
//! order the server calls them, with one span around each call.
//!
//! Solves go `parse_request` → `load_instance` → `canonical_hash` →
//! cache `get` → admission (`RacerPool::queue_depth`) → `solve_hooked`
//! with a `PhaseAcc` → `validate` → `insert_best` → encode. Events go
//! `parse_request` → `apply_event` on a copy (the repair leg) →
//! `session::handle_event` → `Wal::append` (fsync on, then off) →
//! encode. Run untraced, the same replay yields the reference values
//! the TCP answers are checked against.

use crate::script::{Req, ReqKind, Script, RACERS, SOLVE_DEADLINE_MS};
use crate::spans::{breakdown, Recorder};
use pga::telemetry::RequestTelemetry;
use serve::cache::{CacheKey, CachedSolve, ShardedCache};
use serve::protocol::{parse_request, solution_json};
use serve::session::{handle_event, ResolveSkip, SessionState};
use serve::wal::{event_record, frame, open_record, snapshot_record};
use serve::{
    load_instance, price_lineup, Json, LoadedInstance, Objective, PhaseAcc, RacerPool, Request,
    Solution, SolveHooks, Wal, WalConfig,
};
use shop::dynamic::apply_event;
use shop::gen::AnyInstance;
use shop::schedule::Schedule;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one request of the replay produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    /// The answer's objective value.
    pub value: f64,
    /// Whether a race ran for it and was cut by its deadline.
    pub deadline_bound: bool,
}

/// The replay's result.
#[derive(Debug, Clone, Default)]
pub struct ReplayOut {
    /// One answer per request, priming first (script order).
    pub answers: Vec<Answer>,
    /// Wall nanoseconds of each measured request (two clock reads per
    /// request, traced or not: the overhead comparison's input).
    pub request_ns: Vec<u64>,
    /// Per-layer metrics (traced replay only), by name.
    pub metrics: BTreeMap<String, f64>,
}

/// WAL snapshot cadence, as the server's default `--wal-snapshot-every`.
const SNAPSHOT_EVERY: u64 = 64;

#[derive(Debug, Default)]
struct FamilyAcc {
    races: u64,
    race_ns: u64,
    pred_ns: f64,
    evaluations: u64,
    decode_calls: u64,
    decoded_ops: u64,
    retimed: u64,
    decode_ns: u64,
}

#[derive(Debug, Default)]
struct Acc {
    families: BTreeMap<&'static str, FamilyAcc>,
    phases_ns: [u64; 5],
    races: u64,
    bound_races: u64,
    load_ns: [u64; 2],
    loads: [u64; 2],
    answer_bytes: u64,
    answers: u64,
    events: u64,
    repair_ns: u64,
    handle_ns: u64,
    resolve_wins: u64,
    wal_ns: u64,
    wal_nofsync_ns: u64,
    wal_bytes: u64,
}

/// One open session of the replay.
struct Session {
    name: String,
    state: SessionState,
}

/// The replay's server-side state: what the server holds across
/// requests, plus the span recorder and the metric accumulators.
struct Replayer<'a> {
    script: &'a Script,
    pool: RacerPool,
    cache: ShardedCache,
    /// The session log with fsync on (as the server runs it) and a
    /// second one with fsync off, for the fsync tax.
    wal: Wal,
    wal_nofsync: Wal,
    sessions: Vec<Option<Session>>,
    rec: Recorder,
    acc: Acc,
}

/// Runs the script in-process. `traced` records spans; `work` is a
/// scratch directory for the replay's write-ahead logs.
pub fn replay(script: &Script, traced: bool, work: &Path) -> std::io::Result<ReplayOut> {
    let wal_at = |tag: &str, fsync: bool| -> std::io::Result<Wal> {
        let dir = work.join(format!("replay-wal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Wal::new(WalConfig {
            dir,
            snapshot_every: SNAPSHOT_EVERY,
            fsync,
        })
    };
    let mut r = Replayer {
        script,
        pool: RacerPool::new(2),
        cache: ShardedCache::new(script.cache, script.cache.clamp(1, 8)),
        wal: wal_at("fsync", true)?,
        wal_nofsync: wal_at("nofsync", false)?,
        sessions: script.priming.iter().map(|_| None).collect(),
        // At most 12 spans per request (an event with both logs).
        rec: Recorder::new(traced, 12 * (script.priming.len() + script.measured.len())),
        acc: Acc::default(),
    };
    // Request lines are rendered up front: building them is the
    // client's work, not a server layer.
    let lines: Vec<String> = script
        .all()
        .map(|req| {
            let session = match req.kind {
                ReqKind::Event { session, .. } => session_name(session),
                _ => String::new(),
            };
            crate::script::wire_line(&req.kind, &session, None)
        })
        .collect();
    let mut out = ReplayOut::default();
    for (i, (req, line)) in script.all().zip(&lines).enumerate() {
        r.rec.begin_request(i as u32);
        let started = Instant::now();
        let root = r.rec.open("request");
        let answer = match req.kind {
            ReqKind::Solve { .. } | ReqKind::Open { .. } => r.solve(req, line),
            ReqKind::Event { .. } => r.event(req, line),
        };
        r.rec.close(root);
        if i >= script.priming.len() {
            out.request_ns.push(started.elapsed().as_nanos() as u64);
        }
        out.answers.push(answer?);
    }
    if traced {
        out.metrics = layer_metrics(&r.rec, &r.acc, script.priming.len() as u32);
    }
    let _ = std::fs::remove_dir_all(work.join("replay-wal-fsync"));
    let _ = std::fs::remove_dir_all(work.join("replay-wal-nofsync"));
    Ok(out)
}

/// The replay's id of scripted session `index` (names its log files).
fn session_name(index: usize) -> String {
    format!("sess-{}", index + 1)
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// Runs `f` in span `name` and returns its duration too (0 untraced).
fn timed<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let idx = rec.open(name);
    let out = f();
    rec.close(idx);
    let ns = idx.map_or(0, |i| rec.spans()[i].dur_ns());
    (out, ns)
}

impl Replayer<'_> {
    /// A solve or a session open, as `server::solve_core` runs it.
    fn solve(&mut self, req: &Req, line: &str) -> std::io::Result<Answer> {
        let Replayer {
            script,
            pool,
            cache,
            rec,
            acc,
            ..
        } = self;
        let parsed = rec
            .time("parse", || parse_request(line))
            .map_err(|e| bad(e.to_string()))?;
        let (spec, seed) = match parsed {
            Request::Solve(r) => (r.instance, r.seed),
            Request::SessionOpen(r) => (r.instance, r.seed),
            _ => return Err(bad("unexpected request kind")),
        };
        let classic =
            matches!(&spec, serve::InstanceSpec::Named(n) if crate::script::is_classic(n));
        let (inst, load_ns) = timed(rec, "load", || load_instance(&spec).map(Arc::new));
        let inst = inst.map_err(|e| bad(e.to_string()))?;
        acc.load_ns[classic as usize] += load_ns;
        acc.loads[classic as usize] += 1;
        let hash = rec.time("hash", || inst.canonical_hash());
        let key = CacheKey {
            instance: hash,
            objective: Objective::Makespan,
            seed,
        };
        let hit = rec
            .time("cache_get", || cache.get(&key))
            .filter(|h| h.replayable_for(SOLVE_DEADLINE_MS));
        let mut answer = Answer::default();
        let (solution, cached) = match hit {
            Some(hit) => (hit.solution, true),
            None => {
                rec.time("admission", || pool.queue_depth());
                let phases = Arc::new(PhaseAcc::new());
                let deadline = Instant::now() + Duration::from_millis(SOLVE_DEADLINE_MS);
                let (outcome, race_ns) = timed(rec, "race", || {
                    serve::solve_hooked(
                        pool,
                        &inst,
                        Objective::Makespan,
                        seed,
                        deadline,
                        script.gen_cap,
                        RACERS,
                        SolveHooks {
                            phases: Some(Arc::clone(&phases)),
                            ..SolveHooks::default()
                        },
                    )
                });
                rec.time("validate", || {
                    inst.validate(&Schedule::new(outcome.solution.schedule.clone()))
                })
                .map_err(|e| bad(format!("replay produced {e}")))?;
                answer.deadline_bound = outcome.deadline_bound;
                acc.races += 1;
                acc.bound_races += outcome.deadline_bound as u64;
                let snap = phases.snapshot_ns();
                for (a, s) in acc.phases_ns.iter_mut().zip(snap) {
                    *a += s;
                }
                let fam = acc.families.entry(inst.family().name()).or_default();
                fam.races += 1;
                fam.race_ns += race_ns;
                fam.pred_ns += predicted_race_ns(&inst, script.gen_cap);
                for (_, t) in &outcome.models {
                    fam.evaluations += t.evaluations;
                    fam.decode_calls += t.decode_calls;
                    fam.decoded_ops += t.decode_calls * inst.total_ops() as u64;
                    fam.retimed += t.retimed_positions;
                }
                fam.decode_ns += snap[4];
                let merged = rec.time("cache_insert", || {
                    cache.insert_best(
                        key,
                        CachedSolve {
                            solution: Arc::new(outcome.solution),
                            budget_ms: SOLVE_DEADLINE_MS,
                            deadline_bound: outcome.deadline_bound,
                        },
                    )
                });
                (merged.solution, false)
            }
        };
        if let ReqKind::Open { session, .. } = req.kind {
            let LoadedInstance::Job(job) = &*inst else {
                return Err(bad("sessions need a job shop"));
            };
            let name = session_name(session);
            let state = SessionState {
                inst: job.clone(),
                objective: Objective::Makespan,
                seed,
                windows: Vec::new(),
                now: 0,
                incumbent: Arc::clone(&solution),
                deadline_bound: false,
                events: 0,
                ttl_ms: 0,
                journal: Vec::new(),
            };
            let (wal, wal_nofsync) = (&self.wal, &self.wal_nofsync);
            self.rec
                .time("wal", || wal.begin(&name, &open_record(&name, &state)))?;
            self.rec.time("wal_nofsync", || {
                wal_nofsync.begin(&name, &open_record(&name, &state))
            })?;
            self.sessions[session] = Some(Session { name, state });
        }
        answer.value = solution.value;
        let line = self.encode(&solution, cached);
        // Freeing the request's instance, answer and line is server work too.
        self.rec
            .time("release", move || drop((spec, inst, solution, line)));
        Ok(answer)
    }

    /// Encodes the answer line (returned, so its release is timed too).
    fn encode(&mut self, solution: &Solution, cached: bool) -> String {
        let line = self.rec.time("encode", || {
            solution_json(None, solution, cached, &RequestTelemetry::default()).encode()
        });
        self.acc.answer_bytes += line.len() as u64 + 1;
        self.acc.answers += 1;
        line
    }

    /// A session event, as `server::session_event_body` runs it.
    fn event(&mut self, req: &Req, line: &str) -> std::io::Result<Answer> {
        let ReqKind::Event { session, .. } = req.kind else {
            return Err(bad("not an event"));
        };
        let Replayer {
            script,
            pool,
            wal,
            wal_nofsync,
            sessions,
            rec,
            acc,
            ..
        } = self;
        let session = sessions[session]
            .as_mut()
            .ok_or_else(|| bad("event before its session opened"))?;
        let parsed = rec
            .time("parse", || parse_request(line))
            .map_err(|e| bad(e.to_string()))?;
        let Request::SessionEvent(ev) = parsed else {
            return Err(bad("unexpected request kind"));
        };
        let state = &mut session.state;
        // The repair leg on a copy of the session: handle_event repairs
        // again inside, so the resolve leg is handle_event minus this.
        let (repaired, repair_ns) = timed(rec, "repair", || {
            let incumbent = Schedule::new(state.incumbent.schedule.clone());
            apply_event(&state.inst, &incumbent, &state.windows, &ev.event).map(drop)
        });
        repaired.map_err(|e| bad(e.to_string()))?;
        let deadline = Instant::now() + Duration::from_millis(ev.deadline_ms);
        let (outcome, handle_ns) = timed(rec, "handle_event", || {
            handle_event(
                pool,
                state,
                &ev.event,
                deadline,
                script.gen_cap,
                RACERS,
                false,
            )
        });
        let outcome = outcome.map_err(bad)?;
        // Each log builds its own record, as the server does per append.
        for (w, name, ns) in [
            (&*wal, "wal", &mut acc.wal_ns),
            (&*wal_nofsync, "wal_nofsync", &mut acc.wal_nofsync_ns),
        ] {
            let (res, d) = timed(rec, name, || {
                let record = event_record(state.events, &ev.event, &outcome);
                w.append(&session.name, &record)?;
                if state.events.is_multiple_of(SNAPSHOT_EVERY) {
                    w.rewrite(&session.name, &snapshot_record(&session.name, state))?;
                }
                Ok::<_, std::io::Error>(record)
            });
            let record = res?;
            *ns += d;
            if name == "wal" {
                acc.wal_bytes += frame(&record).len() as u64;
            }
        }
        acc.events += 1;
        acc.repair_ns += repair_ns;
        acc.handle_ns += handle_ns;
        acc.resolve_wins += (outcome.winner == "resolve") as u64;
        if matches!(
            outcome.resolve_skipped,
            Some(ResolveSkip::Busy | ResolveSkip::Infeasible)
        ) {
            return Err(bad("resolve leg skipped on an idle pool"));
        }
        let answer = Answer {
            value: outcome.solution.value,
            deadline_bound: outcome.deadline_bound,
        };
        let line = self.encode(&outcome.solution, false);
        self.rec.time("release", move || drop((ev, outcome, line)));
        Ok(answer)
    }
}

/// The `price_lineup` prediction of one race, scaled from its 100
/// priced generations to the cap: the slowest lineup member bounds it.
fn predicted_race_ns(inst: &AnyInstance, gen_cap: u64) -> f64 {
    price_lineup(inst.family(), inst.total_ops(), RACERS)
        .iter()
        .map(|(s, _)| *s)
        .fold(0.0, f64::max)
        * gen_cap as f64
        / 100.0
        * 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reduces the spans and accumulators to the per-layer metrics. Mean
/// call times cover every request (priming included, so each layer a
/// workload touches is measured); self-time shares and span coverage
/// cover the measured requests, from request index `measured_from`.
fn layer_metrics(rec: &Recorder, acc: &Acc, measured_from: u32) -> BTreeMap<String, f64> {
    let b = breakdown(rec.spans(), 0);
    let measured = breakdown(rec.spans(), measured_from);
    let mut m = BTreeMap::new();
    let mean_us = |name: &str| {
        ratio(
            *b.total_ns.get(name).unwrap_or(&0) as f64 / 1e3,
            *b.calls.get(name).unwrap_or(&0) as f64,
        )
    };
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("protocol.parse_us", mean_us("parse"));
    put("protocol.encode_us", mean_us("encode"));
    put(
        "protocol.answer_bytes",
        ratio(acc.answer_bytes as f64, acc.answers as f64),
    );
    put("instance.load_us", mean_us("load"));
    put(
        "instance.load_us.gen",
        ratio(acc.load_ns[0] as f64 / 1e3, acc.loads[0] as f64),
    );
    put(
        "instance.load_us.classic",
        ratio(acc.load_ns[1] as f64 / 1e3, acc.loads[1] as f64),
    );
    put("instance.hash_us", mean_us("hash"));
    put("cache.get_us", mean_us("cache_get"));
    put("cache.insert_us", mean_us("cache_insert"));
    put("validate.us", mean_us("validate"));
    put(
        "race.deadline_bound_share",
        ratio(acc.bound_races as f64, acc.races as f64),
    );
    let all = acc
        .families
        .values()
        .fold(FamilyAcc::default(), |mut t, f| {
            t.races += f.races;
            t.race_ns += f.race_ns;
            t.pred_ns += f.pred_ns;
            t.evaluations += f.evaluations;
            t.decode_calls += f.decode_calls;
            t.decoded_ops += f.decoded_ops;
            t.retimed += f.retimed;
            t.decode_ns += f.decode_ns;
            t
        });
    for (suffix, f) in std::iter::once(("", &all)).chain(acc.families.iter().map(|(k, v)| (*k, v)))
    {
        let name = |base: &str| {
            if suffix.is_empty() {
                base.to_string()
            } else {
                format!("{base}.{suffix}")
            }
        };
        m.insert(
            name("race.ms"),
            ratio(f.race_ns as f64 / 1e6, f.races as f64),
        );
        m.insert(
            name("race.evals_per_s"),
            ratio(f.evaluations as f64, f.race_ns as f64 / 1e9),
        );
        m.insert(
            name("hpc.obs_over_pred"),
            ratio(f.race_ns as f64, f.pred_ns),
        );
        m.insert(
            name("decoder.ns_per_op"),
            ratio(f.decode_ns as f64, f.decoded_ops as f64),
        );
        m.insert(
            name("decoder.retimed_share"),
            ratio(f.retimed as f64, f.decoded_ops as f64),
        );
    }
    let [select, breed, evaluate, migrate, decode] = acc.phases_ns.map(|ns| ns as f64);
    let search = select + breed + evaluate + migrate;
    for (k, v) in [
        ("phase.select_share", select),
        ("phase.breed_share", breed),
        ("phase.evaluate_share", evaluate),
        ("phase.migrate_share", migrate),
        ("phase.decode_share", decode),
    ] {
        m.insert(k.to_string(), ratio(v, search));
    }
    let events = acc.events as f64;
    m.insert(
        "session.repair_us".into(),
        ratio(acc.repair_ns as f64 / 1e3, events),
    );
    m.insert(
        "session.resolve_ms".into(),
        ratio(
            acc.handle_ns.saturating_sub(acc.repair_ns) as f64 / 1e6,
            events,
        ),
    );
    m.insert(
        "session.resolve_win_share".into(),
        ratio(acc.resolve_wins as f64, events),
    );
    m.insert(
        "wal.append_us".into(),
        ratio(acc.wal_ns as f64 / 1e3, events),
    );
    m.insert(
        "wal.append_nofsync_us".into(),
        ratio(acc.wal_nofsync_ns as f64 / 1e3, events),
    );
    m.insert(
        "wal.bytes_per_event".into(),
        ratio(acc.wal_bytes as f64, events),
    );
    // Self-time shares of the measured in-process request time.
    let root = measured.root_ns as f64;
    for (layer, names) in SELF_LAYERS {
        let ns: u64 = names
            .iter()
            .map(|n| measured.self_ns.get(n).copied().unwrap_or(0))
            .sum();
        m.insert(format!("self.{layer}_share"), ratio(ns as f64, root));
    }
    // Coverage of the 5th-percentile request: a preemption that lands
    // between two spans of a microsecond request would otherwise decide
    // the figure alone (the minimum is reported next to it).
    m.insert(
        "trace.span_coverage".into(),
        crate::stats::quantile(&measured.coverage, 0.05).unwrap_or(0.0),
    );
    m.insert(
        "trace.span_coverage_min".into(),
        measured.coverage.iter().copied().fold(1.0, f64::min),
    );
    m
}

/// Span names per self-time layer (`request` self time is the
/// replay's own glue between calls).
pub const SELF_LAYERS: [(&str, &[&str]); 13] = [
    ("parse", &["parse"]),
    ("load", &["load"]),
    ("hash", &["hash"]),
    ("cache", &["cache_get", "cache_insert"]),
    ("admission", &["admission"]),
    ("race", &["race"]),
    ("validate", &["validate"]),
    ("encode", &["encode"]),
    ("repair", &["repair"]),
    ("resolve", &["handle_event"]),
    ("wal", &["wal", "wal_nofsync"]),
    ("release", &["release"]),
    ("glue", &["request"]),
];

/// The replay result as one JSON line (the child-process protocol).
pub fn to_json(out: &ReplayOut) -> Json {
    Json::Obj(vec![
        (
            "values".into(),
            Json::Arr(out.answers.iter().map(|a| a.value.into()).collect()),
        ),
        (
            "bound".into(),
            Json::Arr(
                out.answers
                    .iter()
                    .map(|a| a.deadline_bound.into())
                    .collect(),
            ),
        ),
        (
            "request_ns".into(),
            Json::Arr(out.request_ns.iter().map(|&ns| ns.into()).collect()),
        ),
        (
            "metrics".into(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`to_json`].
pub fn from_json(v: &Json) -> Option<ReplayOut> {
    let values = v.get("values")?.as_arr()?;
    let bound = v.get("bound")?.as_arr()?;
    let answers = values
        .iter()
        .zip(bound)
        .map(|(a, b)| {
            Some(Answer {
                value: a.as_f64()?,
                deadline_bound: b.as_bool()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let Json::Obj(fields) = v.get("metrics")? else {
        return None;
    };
    let metrics = fields
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect::<Option<BTreeMap<_, _>>>()?;
    let request_ns = v
        .get("request_ns")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<_>>>()?;
    Some(ReplayOut {
        answers,
        request_ns,
        metrics,
    })
}
