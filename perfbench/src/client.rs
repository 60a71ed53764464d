//! The TCP side: start the release server, drive it from at most two
//! threads over two connections, and check every answer as it lands.

use crate::script::{Req, ReqKind, Script, CONNECTIONS};
use serve::protocol::schedule_from_json;
use serve::Json;
use shop::dynamic::{apply_event, DownWindow};
use shop::gen::AnyInstance;
use shop::instance::JobShopInstance;
use shop::schedule::Schedule;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client waits for one answer before counting a timeout.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// Open loop: how long a connection spins for an answer after a send
/// (a cached answer lands well within it), its polling step after, and
/// how long before a send falls due it stops sleeping and spins.
const SPIN_AFTER_SEND: Duration = Duration::from_micros(400);
const POLL_STEP: Duration = Duration::from_micros(100);
const SPIN_BEFORE_SEND: Duration = Duration::from_micros(200);

/// A running server process. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `bin` on an ephemeral port and waits for its `LISTENING`
    /// line.
    pub fn spawn(bin: &Path, args: &[String]) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| std::io::Error::other(format!("server did not start: {line:?}")))?
            .to_string();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` on `conn` and waits for the process to exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> std::io::Result<()> {
        conn.call("{\"cmd\":\"shutdown\"}")?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(std::io::Error::other("server did not exit after shutdown"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its answer line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut answer = String::new();
        if self.reader.read_line(&mut answer)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(answer)
    }
}

/// What the client saw for one request.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Index into the script (priming first).
    pub index: usize,
    /// Send to answer, microseconds.
    pub latency_us: f64,
    /// Due time to answer, microseconds (open loop; else = latency).
    pub due_latency_us: f64,
    /// Sender lateness against the due time, microseconds (open loop).
    pub late_us: f64,
    /// Why the answer failed its checks, if it did.
    pub error: Option<String>,
    pub value: f64,
    /// The value's reference: the makespan lower bound for solves,
    /// `repair_value` for session events.
    pub reference: f64,
    pub cached: bool,
    pub queue_wait_us: Option<f64>,
    pub pool_wait_us: Option<f64>,
    /// Session events: the resolve leg ran / the suffix was empty.
    pub resolved: bool,
    pub empty_suffix: bool,
    /// Session opens: the id the server assigned.
    pub session: Option<String>,
}

/// Everything the answer checks need, built before measuring so that no
/// instance is generated on the measured path.
pub struct Checker {
    instances: HashMap<String, Arc<AnyInstance>>,
}

impl Checker {
    pub fn new(script: &Script) -> Checker {
        let mut instances = HashMap::new();
        for r in script.all() {
            if let ReqKind::Solve { instance, .. } | ReqKind::Open { instance, .. } = &r.kind {
                instances.entry(instance.clone()).or_insert_with(|| {
                    Arc::new(
                        AnyInstance::resolve_named(instance)
                            .and_then(Result::ok)
                            .expect("script instances resolve"),
                    )
                });
            }
        }
        Checker { instances }
    }
}

/// The per-connection checking state: answers already validated (value
/// and schedule, per instance), and the connection's session mirror.
#[derive(Default)]
struct ConnState {
    validated: HashMap<String, Vec<(f64, String)>>,
    sessions: HashMap<usize, Mirror>,
}

/// The client's own copy of a session, advanced with `apply_event` so
/// each event answer can be validated against the post-event instance.
struct Mirror {
    inst: JobShopInstance,
    windows: Vec<DownWindow>,
    incumbent: Schedule,
}

/// Splits an answer line into its `"schedule":[...]` array and the rest
/// of the answer with `null` in the array's place. Parsing a whole hit
/// answer with `serve::json::parse` takes 20-99 µs (0.7-4.2 KB answers,
/// 2 GHz Xeon), longer than the server's whole hit, and the client shares
/// the two cores with the server. Splitting and parsing the remainder
/// takes 5-12 µs, so every answer's remainder is parsed and its schedule
/// only when that exact array was not validated yet.
fn split_schedule(line: &str) -> Option<(&str, String)> {
    let key = "\"schedule\":";
    let at = line.find(key)? + key.len();
    let mut depth = 0usize;
    for (i, b) in line[at..].bytes().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    let end = at + i + 1;
                    return Some((
                        &line[at..end],
                        format!("{}null{}", &line[..at], &line[end..]),
                    ));
                }
            }
            _ if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

fn parse_schedule(text: &str) -> Result<Schedule, String> {
    let v = serve::json::parse(text).map_err(|e| e.to_string())?;
    Ok(Schedule::new(
        schedule_from_json(&v).map_err(|e| e.to_string())?,
    ))
}

/// Checks one answer line and extracts what the metrics need.
fn check(
    checker: &Checker,
    st: &mut ConnState,
    req: &Req,
    line: &str,
    o: &mut Observed,
) -> Result<(), String> {
    let (sched, rest) = split_schedule(line.trim()).unwrap_or(("", line.trim().to_string()));
    let v = serve::json::parse(&rest).map_err(|e| format!("unparsable answer: {e}"))?;
    let str_field = |k: &str| v.get(k).and_then(Json::as_str);
    if str_field("status") != Some("ok") {
        return Err(if str_field("code") == Some("busy") {
            "busy".to_string()
        } else {
            format!("error answer: {}", line.trim())
        });
    }
    let telemetry = |k: &str| {
        v.get("telemetry")
            .and_then(|t| t.get(k))
            .and_then(Json::as_f64)
    };
    o.value = v
        .get("value")
        .and_then(Json::as_f64)
        .ok_or("answer has no value")?;
    o.queue_wait_us = telemetry("queue_wait_us");
    o.pool_wait_us = telemetry("pool_wait_us");
    o.cached = v.get("cached").and_then(Json::as_bool) == Some(true);
    if sched.is_empty() {
        return Err("answer has no schedule".into());
    }
    match &req.kind {
        ReqKind::Solve { instance, .. } | ReqKind::Open { instance, .. } => {
            let inst = &checker.instances[instance];
            o.reference = inst.makespan_lower_bound() as f64;
            // An answer equal to one already validated for this instance
            // is valid (hits repeat a few cached answers; validating is
            // a third of a hit's time); anything else is validated now.
            let seen = st.validated.entry(instance.clone()).or_default();
            if !seen.iter().any(|(val, s)| *val == o.value && s == sched) {
                let schedule = parse_schedule(sched)?;
                inst.validate(&schedule)
                    .map_err(|e| format!("invalid schedule: {e}"))?;
                if schedule.makespan() as f64 != o.value {
                    return Err("value is not the schedule's makespan".into());
                }
                seen.push((o.value, sched.to_string()));
            }
            if let ReqKind::Open { session, .. } = req.kind {
                let AnyInstance::Job(job) = &**inst else {
                    return Err("session opened on a non-job-shop instance".into());
                };
                st.sessions.insert(
                    session,
                    Mirror {
                        inst: job.clone(),
                        windows: Vec::new(),
                        incumbent: parse_schedule(sched)?,
                    },
                );
                o.session = Some(
                    str_field("session")
                        .ok_or("open answer has no session")?
                        .to_string(),
                );
            }
        }
        ReqKind::Event { session, event } => {
            let m = st
                .sessions
                .get_mut(session)
                .ok_or("event before its session opened")?;
            let (inst, windows, repaired) =
                apply_event(&m.inst, &m.incumbent, &m.windows, event).map_err(|e| e.to_string())?;
            o.reference = v
                .get("repair_value")
                .and_then(Json::as_f64)
                .ok_or("event answer has no repair_value")?;
            if repaired.makespan() as f64 != o.reference {
                return Err("repair_value differs from the client's own repair".into());
            }
            let schedule = parse_schedule(sched)?;
            schedule
                .validate_job(&inst)
                .map_err(|e| format!("invalid schedule: {e}"))?;
            if schedule.makespan() as f64 != o.value || o.value > o.reference {
                return Err("event value is not the schedule's makespan or exceeds repair".into());
            }
            o.resolved = v.get("resolve_value").is_some_and(|r| *r != Json::Null);
            o.empty_suffix = str_field("resolve_skipped") == Some("empty_suffix");
            if v.get("deadline_bound").and_then(Json::as_bool) == Some(true) {
                return Err("event race was deadline-bound".into());
            }
            *m = Mirror {
                inst,
                windows,
                incumbent: schedule,
            };
        }
    }
    Ok(())
}

/// A request ready to send: its script index, the request and its line.
struct Outgoing<'a> {
    index: usize,
    req: &'a Req,
    line: String,
}

/// Runs `drive` once per connection, connection 0 on the calling thread
/// and the others on scoped threads, and returns every observation in
/// script order.
fn per_connection<F>(conns: &mut [Conn], states: &mut [ConnState], drive: F) -> Vec<Observed>
where
    F: Fn(&mut Conn, &mut ConnState, usize) -> Vec<Observed> + Sync,
{
    let drive = &drive;
    let mut all = std::thread::scope(|s| {
        let (first, rest) = conns.split_at_mut(1);
        let (st0, st_rest) = states.split_at_mut(1);
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(st_rest.iter_mut())
            .enumerate()
            .map(|(i, (conn, st))| s.spawn(move || drive(conn, st, i + 1)))
            .collect();
        let mut all = drive(&mut first[0], &mut st0[0], 0);
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
        all
    });
    all.sort_by_key(|o| o.index);
    all
}

/// Closed loop: each connection sends its requests one after another,
/// on its own thread (the calling thread drives connection 0).
fn closed_loop(
    checker: &Checker,
    conns: &mut [Conn],
    states: &mut [ConnState],
    work: &[Outgoing<'_>],
) -> Vec<Observed> {
    let drive = |conn: &mut Conn, st: &mut ConnState, c: usize| -> Vec<Observed> {
        let mut out = Vec::new();
        for w in work.iter().filter(|w| w.req.conn == c) {
            let mut o = Observed {
                index: w.index,
                ..Observed::default()
            };
            let t0 = Instant::now();
            let answer = conn.call(&w.line);
            o.latency_us = t0.elapsed().as_secs_f64() * 1e6;
            o.due_latency_us = o.latency_us;
            match answer {
                Ok(line) => {
                    if let Err(e) = check(checker, st, w.req, &line, &mut o) {
                        o.error = Some(e);
                    }
                }
                Err(e) => o.error = Some(format!("transport: {e}")),
            }
            out.push(o);
        }
        out
    };
    per_connection(conns, states, drive)
}

/// Open loop: each connection sends its requests when they fall due
/// (pipelining behind unanswered ones) and reads answers in between.
fn open_loop(
    checker: &Checker,
    conns: &mut [Conn],
    states: &mut [ConnState],
    work: &[Outgoing<'_>],
) -> Vec<Observed> {
    let start = Instant::now() + Duration::from_millis(20);
    let drive = |conn: &mut Conn, st: &mut ConnState, c: usize| -> Vec<Observed> {
        let mine: Vec<&Outgoing<'_>> = work.iter().filter(|w| w.req.conn == c).collect();
        let mut out = Vec::with_capacity(mine.len());
        let mut pending: VecDeque<(usize, Instant, Instant, f64)> = VecDeque::new();
        let mut next = 0;
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = vec![0u8; 1 << 16];
        let give_up = start + Duration::from_secs(170);
        // Socket read timeouts round up to the kernel tick, far too
        // coarse for a send schedule, so the connection is polled: spin
        // (yielding) for a short while after each send, when a cached
        // answer is due, then sleep in short steps until the next send.
        let _ = conn.reader.get_ref().set_nonblocking(true);
        let mut last_send = Instant::now();
        while next < mine.len() || !pending.is_empty() {
            let now = Instant::now();
            if now > give_up {
                break;
            }
            if next < mine.len() {
                let due = start + Duration::from_micros(mine[next].req.due_us);
                if now >= due {
                    let late = now.duration_since(due).as_secs_f64() * 1e6;
                    if conn.send(&mine[next].line).is_err() {
                        break;
                    }
                    last_send = Instant::now();
                    pending.push_back((next, due, last_send, late));
                    next += 1;
                    continue;
                }
            }
            match conn.reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    let recv = Instant::now();
                    buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = buf.drain(..=pos).collect();
                        let Some((k, due, sent, late)) = pending.pop_front() else {
                            break;
                        };
                        let w = mine[k];
                        let mut o = Observed {
                            index: w.index,
                            latency_us: recv.duration_since(sent).as_secs_f64() * 1e6,
                            due_latency_us: recv.duration_since(due).as_secs_f64() * 1e6,
                            late_us: late,
                            ..Observed::default()
                        };
                        let line = String::from_utf8_lossy(&line);
                        if let Err(e) = check(checker, st, w.req, &line, &mut o) {
                            o.error = Some(e);
                        }
                        out.push(o);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // `None` once every request has been sent.
                    let until_due = mine.get(next).map(|w| {
                        (start + Duration::from_micros(w.req.due_us)).saturating_duration_since(now)
                    });
                    // Sleeps end early and spin the last stretch, since a
                    // sleep overshoots by the kernel's timer slack.
                    let awaiting =
                        !pending.is_empty() && now.duration_since(last_send) < SPIN_AFTER_SEND;
                    match until_due {
                        _ if awaiting => std::thread::yield_now(),
                        Some(d) if d < SPIN_BEFORE_SEND => std::thread::yield_now(),
                        Some(d) if pending.is_empty() => std::thread::sleep(d - SPIN_BEFORE_SEND),
                        Some(d) => std::thread::sleep((d - SPIN_BEFORE_SEND).min(POLL_STEP)),
                        None => std::thread::sleep(POLL_STEP),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let _ = conn.reader.get_ref().set_nonblocking(false);
        // Whatever never came back is a timeout.
        for (k, ..) in pending {
            out.push(Observed {
                index: mine[k].index,
                error: Some("timeout".into()),
                ..Observed::default()
            });
        }
        for w in &mine[next..] {
            out.push(Observed {
                index: w.index,
                error: Some("never sent".into()),
                ..Observed::default()
            });
        }
        out
    };
    per_connection(conns, states, drive)
}

/// The measured requests in `range` as wire lines, with events
/// addressed to the session ids the priming answers returned.
fn outgoing<'a>(
    script: &'a Script,
    range: std::ops::Range<usize>,
    sessions: &HashMap<usize, String>,
) -> Vec<Outgoing<'a>> {
    let base = script.priming.len() + range.start;
    script.measured[range]
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let session = match req.kind {
                ReqKind::Event { session, .. } => {
                    sessions.get(&session).cloned().unwrap_or_default()
                }
                _ => String::new(),
            };
            Outgoing {
                index: base + i,
                req,
                line: crate::script::wire_line(&req.kind, &session, None),
            }
        })
        .collect()
}

/// One server lifetime: spawn, connect, prime.
pub struct Setup {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub priming: Vec<Observed>,
    /// Server session id per scripted session index.
    pub sessions: HashMap<usize, String>,
    pub seconds: f64,
    states: Vec<ConnState>,
}

impl Setup {
    /// Starts the workload's server and runs the priming requests;
    /// `seconds` is the set-up time.
    pub fn run(
        bin: &Path,
        script: &Script,
        checker: &Checker,
        wal_dir: Option<&Path>,
    ) -> std::io::Result<Setup> {
        let t0 = Instant::now();
        let mut args = script.server_args();
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
            args.push("--wal-dir".into());
            args.push(dir.display().to_string());
        }
        let server = Server::spawn(bin, &args)?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(&server.addr))
            .collect::<std::io::Result<Vec<_>>>()?;
        let work: Vec<Outgoing<'_>> = script
            .priming
            .iter()
            .enumerate()
            .map(|(index, req)| Outgoing {
                index,
                req,
                line: crate::script::wire_line(&req.kind, "", None),
            })
            .collect();
        let mut states: Vec<ConnState> = (0..CONNECTIONS).map(|_| ConnState::default()).collect();
        let priming = closed_loop(checker, &mut conns, &mut states, &work);
        let mut sessions = HashMap::new();
        for (o, w) in priming.iter().zip(&work) {
            if let (Some(id), ReqKind::Open { session, .. }) = (&o.session, &w.req.kind) {
                sessions.insert(*session, id.clone());
            }
        }
        Ok(Setup {
            server,
            conns,
            priming,
            sessions,
            seconds: t0.elapsed().as_secs_f64(),
            states,
        })
    }

    /// Runs the measured requests in `range` (closed or open loop) on
    /// this setup's connections, continuing each connection's checking
    /// state.
    pub fn measure(
        &mut self,
        checker: &Checker,
        script: &Script,
        range: std::ops::Range<usize>,
    ) -> Vec<Observed> {
        let work = outgoing(script, range, &self.sessions);
        if script.workload.open_loop() {
            open_loop(checker, &mut self.conns, &mut self.states, &work)
        } else {
            closed_loop(checker, &mut self.conns, &mut self.states, &work)
        }
    }

    /// Shuts the server down over connection 0.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let mut conn = self.conns.swap_remove(0);
        drop(self.conns);
        self.server.shutdown(&mut conn)
    }
}

/// The `json` body of a `metrics` answer.
pub fn metrics_snapshot(conn: &mut Conn) -> std::io::Result<Json> {
    let line = conn.call("{\"cmd\":\"metrics\"}")?;
    let v = serve::json::parse(line.trim()).map_err(|e| std::io::Error::other(e.to_string()))?;
    v.get("json")
        .cloned()
        .ok_or_else(|| std::io::Error::other("metrics answer has no json body"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Workload;
    use pga::telemetry::RequestTelemetry;
    use serve::{load_instance, InstanceSpec, Objective, RacerPool};
    use std::time::Instant;

    #[test]
    fn check_validates_answers_and_rejects_bad_ones() {
        let inst = Arc::new(load_instance(&InstanceSpec::Named("ft06".into())).unwrap());
        let pool = RacerPool::new(1);
        let deadline = Instant::now() + Duration::from_secs(30);
        let out = serve::solve(&pool, &inst, Objective::Makespan, 7, deadline, 5, 1);
        let line =
            serve::protocol::solution_json(None, &out.solution, true, &RequestTelemetry::default())
                .encode();
        let req = Req {
            conn: 0,
            due_us: 0,
            kind: ReqKind::Solve {
                instance: "ft06".into(),
                seed: 7,
            },
        };
        // ft06 is in the cached-hot working set.
        let checker = Checker::new(&Script::build(Workload::CachedHot, 1, 1));
        let mut st = ConnState::default();
        let mut o = Observed::default();
        check(&checker, &mut st, &req, &line, &mut o).unwrap();
        assert_eq!(o.value, out.solution.value);
        assert!(o.reference > 0.0 && o.reference <= o.value);
        assert!(o.cached);
        assert_eq!(st.validated["ft06"].len(), 1);
        // The same answer again is recognised, not stored twice.
        check(&checker, &mut st, &req, &line, &mut o).unwrap();
        assert_eq!(st.validated["ft06"].len(), 1);

        let value = format!("\"value\":{}", out.solution.value);
        let wrong = line.replacen(&value, "\"value\":1", 1);
        assert!(check(&checker, &mut st, &req, &wrong, &mut o).is_err());
        let (sched, rest) = split_schedule(&line).unwrap();
        assert!(sched.starts_with("[[") && sched.ends_with("]]"));
        assert!(rest.contains("\"schedule\":null,\"telemetry\""));
        assert_eq!(split_schedule(r#"{"schedule":null}"#), None);
        let busy = r#"{"status":"error","code":"busy","error":"queue full"}"#;
        assert_eq!(
            check(&checker, &mut st, &req, busy, &mut o),
            Err("busy".into())
        );
    }
}
