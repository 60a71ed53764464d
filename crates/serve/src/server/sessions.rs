//! The session wire handlers: `session_open`, `session_event` (plain
//! or watched), `session_get`, `session_events` and `session_close`,
//! over the registry in [`crate::session`] and the write-ahead log in
//! [`crate::wal`].

use super::{
    attach_trace, load_or_error, solve_core, solve_reply, start_trace, Received, Shared,
    SolveInstance, SolveJob,
};
use crate::json::{obj, Json};
use crate::obs::phase::PhaseAcc;
use crate::portfolio::WatchSink;
use crate::protocol::{
    encode_error, error_json, Envelope, SessionEventRequest, SessionOpenRequest, SessionRef,
};
use crate::session::SessionState;
use crate::solver::{LoadedInstance, SolveHooks};
use crate::wal::{RecoverOutcome, RecoveredSession, Wal};
use shop::gen::Family;
use shop::Problem;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `status:"error"` body for a session id that is not (or no
/// longer) registered. `code:"unknown_session"` lets clients tell an
/// expired session apart from a malformed request: the fix is to
/// re-open, not to re-spell.
fn unknown_session_json(id: Option<&str>, session: &str) -> Json {
    let message = format!("unknown session {session:?} (never opened, closed, or expired)");
    Envelope(id, "error").with([
        ("code", "unknown_session".into()),
        ("error", message.into()),
    ])
}

/// Looks up a session, falling back to write-ahead-log replay when the
/// registry no longer holds it — idle-TTL expiry, LRU eviction, or a
/// restart that has not touched this id yet. Durability beats expiry:
/// a session with a log on disk stays reachable until explicitly
/// closed.
fn session_entry(session: &str, shared: &Shared) -> Option<Arc<Mutex<SessionState>>> {
    if let Some(entry) = shared.sessions.get(session) {
        return Some(entry);
    }
    let failure = match shared.wal.as_ref()?.recover_one(session) {
        Ok(RecoverOutcome::Recovered(rec)) => return Some(restore(*rec, shared)),
        Ok(RecoverOutcome::Missing) => return None,
        Ok(RecoverOutcome::Quarantined { path, error }) => {
            format!("quarantined {} ({error})", path.display())
        }
        Err(e) => format!("recovery failed: {e}"),
    };
    eprintln!("[serve::wal] {session}: {failure}");
    shared.metrics.errors.inc();
    None
}

/// Registers a session rebuilt from its write-ahead log, at restart or
/// lazily on first touch, and counts the replayed records.
pub(super) fn restore(rec: RecoveredSession, shared: &Shared) -> Arc<Mutex<SessionState>> {
    if let Some(salvaged) = &rec.salvaged {
        eprintln!("[serve::wal] {}: {salvaged}", rec.session);
    }
    shared.metrics.wal_replays.add(rec.records);
    let (entry, _) = shared.sessions.restore(&rec.session, rec.state, rec.ttl_ms);
    entry
}

/// Runs `f` on a session's state under its lock. The session is looked
/// up through [`session_entry`] — or, with `close`, removed from the
/// registry (recovered first when only its log is left, so an
/// expired-but-durable session stays closable). An unknown id answers
/// with the counted `unknown_session` error instead.
fn with_session(
    id: Option<&str>,
    session: &str,
    close: bool,
    shared: &Shared,
    f: impl FnOnce(&mut SessionState) -> Json,
) -> Json {
    let entry = if close {
        shared.sessions.close(session).or_else(|| {
            session_entry(session, shared)?;
            shared.sessions.close(session)
        })
    } else {
        session_entry(session, shared)
    };
    let Some(entry) = entry else {
        shared.metrics.errors.inc();
        return unknown_session_json(id, session);
    };
    let mut state = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
    f(&mut state)
}

/// Durably writes one session record (`write` gets the log; skipped
/// without a WAL) before the caller answers, timed into
/// `serve_wal_append_us`. WAL IO failure degrades to memory-only
/// service: the change was applied, and losing the answer would be
/// worse than losing durability.
fn wal_write(session: &str, shared: &Shared, write: impl FnOnce(&Wal) -> std::io::Result<()>) {
    let Some(wal) = shared.wal.as_ref() else {
        return;
    };
    let started = Instant::now();
    let result = write(wal);
    shared
        .metrics
        .wal_append_us
        .observe(started.elapsed().as_micros() as u64);
    match result {
        Ok(()) => shared.metrics.wal_appends.inc(),
        Err(e) => {
            eprintln!("[serve::wal] {session}: append failed: {e} (continuing without durability)");
            shared.metrics.errors.inc();
        }
    }
}

/// Opens a dynamic-rescheduling session: resolve the instance (job
/// shops only — the `shop::dynamic` machinery is the job-shop
/// predictive-reactive stack), solve it through [`solve_core`], and
/// register the session with the solution as its incumbent.
pub(super) fn handle_session_open(
    req: &SessionOpenRequest,
    rx: &Received,
    shared: &Shared,
) -> String {
    let id = req.id.as_deref();
    let mut trace = start_trace(req.trace, "session_open", false, rx.parse_us, shared);
    let inst = match load_or_error(&req.instance, id, shared) {
        Ok(inst) => inst,
        Err(body) => return body.encode(),
    };
    let LoadedInstance::Job(job) = &*inst else {
        shared.metrics.errors.inc();
        let family = inst.family().name();
        return encode_error(
            id,
            &format!("sessions require a job-shop instance, got family {family:?}"),
        );
    };
    let config = &shared.config;
    let (budget_ms, deadline) = config.deadline(rx.at, req.deadline_ms, config.default_deadline_ms);
    let solve = SolveJob {
        inst: &SolveInstance::loaded(Arc::clone(&inst)),
        objective: req.objective,
        seed: req.seed,
        deadline,
        budget_ms,
        queue_wait: rx.queue_wait,
    };
    let out = match solve_core(solve, trace.as_mut(), None, shared) {
        Ok(out) => out,
        failed => return solve_reply(id, failed, shared).encode(),
    };
    let state = SessionState {
        inst: job.clone(),
        objective: req.objective,
        seed: req.seed,
        windows: Vec::new(),
        now: 0,
        incumbent: Arc::clone(&out.solution),
        // Tracks *event* degradation (busy-skips, clock-cut
        // re-solves); a fresh incumbent starts settled.
        deadline_bound: false,
        events: 0,
        ttl_ms: req.ttl_ms,
        journal: Vec::new(),
    };
    let (session, entry) = shared.sessions.open(state, req.ttl_ms);
    if let Some(tr) = trace.as_mut() {
        tr.session = Some(session.clone());
    }
    // Durability: the open record is on disk (and fsync'd) before the
    // client hears the session id, written through the entry `open`
    // inserted, so a session evicted or expired in the meantime is
    // still recoverable from its log.
    wal_write(&session, shared, |wal| {
        let state = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
        wal.begin(&session, &crate::wal::open_record(&session, &state))
    });
    let body = solve_reply(id, Ok(out), shared).with_fields(
        usize::MAX,
        [
            ("session", session.as_str().into()),
            ("now", 0u64.into()),
            ("events", 0u64.into()),
        ],
    );
    attach_trace(body, trace, shared).encode()
}

/// Applies one disruption to a session, plain or watched: right-shift
/// repair races the warm-started frozen-prefix re-solve under the
/// event deadline (see `crate::session`), streaming frames into `watch`
/// when subscribed; a racer queue past the admission limit sheds the
/// re-solve leg so the event still answers — with repair — inside its
/// deadline.
pub(super) fn session_event_body(
    req: &SessionEventRequest,
    rx: &Received,
    watch: Option<Arc<dyn WatchSink>>,
    shared: &Shared,
) -> Json {
    let id = req.id.as_deref();
    let mut trace = start_trace(
        req.trace,
        "session_event",
        watch.is_some(),
        rx.parse_us,
        shared,
    );
    if let Some(tr) = trace.as_mut() {
        tr.session = Some(req.session.clone());
    }
    let config = &shared.config;
    let (deadline_ms, deadline) =
        config.deadline(rx.at, req.deadline_ms, config.default_event_deadline_ms);
    // Admission control mirrors cold solves: shedding here skips only
    // the GA leg — repair needs no pool and always answers.
    let skip_resolve = shared.pool.queue_depth() >= config.max_queue_depth;
    let started = Instant::now();
    with_session(id, &req.session, false, shared, |state| {
        let phases = Arc::new(PhaseAcc::new());
        let outcome = crate::session::handle_event_hooked(
            &shared.pool,
            state,
            &req.event,
            deadline,
            config.gen_cap,
            config.racers,
            skip_resolve,
            trace.as_mut(),
            SolveHooks {
                watch,
                phases: Some(Arc::clone(&phases)),
                ..SolveHooks::default()
            },
        );
        shared
            .metrics
            .session_event_us
            .observe(started.elapsed().as_micros() as u64);
        // Sessions are job-shop only; their re-solves feed the engine
        // and decode phases through the shared codec race, and run_ns =
        // eval_ops = 0 keeps the cost-model drift gauge solve-only.
        shared
            .metrics
            .observe_race_profile(Family::Job, &phases, 0, 0);
        let out = match outcome {
            Ok(out) => out,
            Err(msg) => {
                shared.metrics.errors.inc();
                return error_json(id, &msg);
            }
        };
        shared.metrics.session_events.inc();
        let winners = match out.winner {
            "resolve" => &shared.metrics.session_resolve_wins,
            _ => &shared.metrics.session_repair_wins,
        };
        winners.inc();
        match out.resolve_skipped {
            Some(crate::session::ResolveSkip::Busy) => shared.metrics.session_resolve_busy.inc(),
            Some(crate::session::ResolveSkip::Infeasible) => shared.metrics.errors.inc(),
            _ => {}
        }
        // Still under the session lock: the record hits disk (and
        // fsyncs) before the wire answer, and appends stay ordered per
        // session. A snapshot compacts the log when the cadence
        // triggers.
        wal_write(&req.session, shared, |wal| {
            let record = crate::wal::event_record(state.events, &req.event, &out);
            wal.append(&req.session, &record)?;
            let every = wal.config().snapshot_every;
            if every > 0 && state.events.is_multiple_of(every) {
                let snapshot = crate::wal::snapshot_record(&req.session, state);
                wal.rewrite(&req.session, &snapshot)?;
            }
            Ok(())
        });
        let body = Envelope(id, "ok").with([
            ("session", req.session.as_str().into()),
            ("now", out.now.into()),
            ("events", state.events.into()),
            ("winner", out.winner.into()),
            ("objective", out.solution.objective.name().into()),
            ("value", out.solution.value.into()),
            ("makespan", out.solution.makespan.into()),
            ("model", out.solution.model.as_str().into()),
            ("repair_value", out.repair_value.into()),
            (
                "resolve_value",
                out.resolve_value.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "resolve_skipped",
                out.resolve_skipped
                    .map(|s| Json::from(s.name()))
                    .unwrap_or(Json::Null),
            ),
            ("deadline_bound", out.deadline_bound.into()),
            (
                "schedule",
                crate::protocol::schedule_to_json(&out.solution.schedule),
            ),
            (
                "telemetry",
                obj([
                    ("event_ms", (started.elapsed().as_millis() as u64).into()),
                    ("deadline_ms", deadline_ms.into()),
                    ("resolve_generations", out.resolve_generations.into()),
                ]),
            ),
        ]);
        attach_trace(body, trace, shared)
    })
}

/// Returns a session's current incumbent, clock and down-windows.
pub(super) fn handle_session_get(r: &SessionRef, shared: &Shared) -> String {
    let id = r.id.as_deref();
    with_session(id, &r.session, false, shared, |state| {
        Envelope(id, "ok").with([
            ("session", r.session.as_str().into()),
            ("now", state.now.into()),
            ("events", state.events.into()),
            ("jobs", (state.inst.n_jobs() as u64).into()),
            ("machines", (state.inst.n_machines() as u64).into()),
            ("objective", state.incumbent.objective.name().into()),
            ("value", state.incumbent.value.into()),
            ("makespan", state.incumbent.makespan.into()),
            ("deadline_bound", state.deadline_bound.into()),
            ("windows", crate::wal::windows_to_json(&state.windows)),
            (
                "schedule",
                crate::protocol::schedule_to_json(&state.incumbent.schedule),
            ),
        ])
    })
    .encode()
}

/// Returns a session's whole ordered event log in one round trip: one
/// row per accepted event with the disruption, the winning leg and the
/// post-event incumbent summary. Served from the journal the WAL
/// persists, so the history survives restarts and compaction.
pub(super) fn handle_session_events(r: &SessionRef, shared: &Shared) -> String {
    let id = r.id.as_deref();
    with_session(id, &r.session, false, shared, |state| {
        let log = state
            .journal
            .iter()
            .map(crate::wal::journal_entry_to_json)
            .collect();
        Envelope(id, "ok").with([
            ("session", r.session.as_str().into()),
            ("now", state.now.into()),
            ("events", state.events.into()),
            ("log", Json::Arr(log)),
        ])
    })
    .encode()
}

/// Closes a session and reports how many events it absorbed. With a
/// WAL the log is deleted too — close is the one path that forgets a
/// durable session.
pub(super) fn handle_session_close(r: &SessionRef, shared: &Shared) -> String {
    let id = r.id.as_deref();
    with_session(id, &r.session, true, shared, |state| {
        if let Some(wal) = shared.wal.as_ref() {
            if let Err(e) = wal.remove(&r.session) {
                eprintln!("[serve::wal] {}: remove failed: {e}", r.session);
                shared.metrics.errors.inc();
            }
        }
        Envelope(id, "ok").with([
            ("session", r.session.as_str().into()),
            ("closed", true.into()),
            ("events", state.events.into()),
        ])
    })
    .encode()
}
