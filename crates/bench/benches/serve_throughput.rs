//! Serving-path micro-bench: requests/sec against an in-process
//! `serve::Service` on `ft06`, cached (same cache key every request)
//! vs. cold (fresh seed ⇒ cache miss ⇒ full portfolio race each
//! request), plus a **concurrent-client saturation sweep** (1/2/4/8
//! connections of cold traffic against the persistent racer pool —
//! the provisioning experiment behind the scheduler: racer threads
//! stay bounded by the pool size while throughput tracks the
//! hardware). Besides the criterion lines, the measurements are
//! written to `BENCH_serve.json` in the working directory so the
//! serving path has a tracked performance record (the file is
//! gitignored; numbers are machine-local).
//!
//! A second group measures **session-event throughput vs. WAL mode**
//! (no WAL / WAL+fsync / WAL without fsync) under concurrent
//! sessions, appending rows to `BENCH_session.json` — the measured
//! price of the fsync-before-answer durability guarantee.

use criterion::{criterion_group, criterion_main, Criterion};
use serve::json::obj;
use serve::protocol::{encode_request, InstanceSpec, Objective, SolveRequest};
use serve::{ServeConfig, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // Without TCP_NODELAY, Nagle + delayed ACK adds ~40 ms per
        // request/response pair and drowns the cached path entirely.
        stream.set_nodelay(true).expect("nodelay");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        response
    }
}

fn solve_line(seed: u64) -> String {
    encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("ft06".into()),
        objective: Objective::Makespan,
        seed,
        deadline_ms: 200,
        trace: false,
    })
}

/// Requests/sec over `window` for requests produced by `next_line`.
fn throughput(client: &mut Client, window: Duration, mut next_line: impl FnMut() -> String) -> f64 {
    let started = Instant::now();
    let mut done = 0u64;
    while started.elapsed() < window {
        let response = client.roundtrip(&next_line());
        assert!(response.contains("\"status\":\"ok\""), "bad response");
        done += 1;
    }
    done as f64 / started.elapsed().as_secs_f64()
}

/// Aggregate cold requests/sec with `clients` concurrent connections,
/// each issuing cold solves (distinct seeds ⇒ cache misses ⇒ races)
/// for `window`. `busy` responses are counted separately — under
/// saturation they are the scheduler shedding load as designed, and
/// they also return fast, so they must not inflate the ok-throughput.
fn concurrent_cold_sweep(
    addr: std::net::SocketAddr,
    clients: usize,
    window: Duration,
    seed_base: u64,
) -> (f64, u64) {
    let ok = std::sync::atomic::AtomicU64::new(0);
    let busy = std::sync::atomic::AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let ok = &ok;
            let busy = &busy;
            s.spawn(move || {
                let mut client = Client::connect(addr);
                let mut seed = seed_base + 1_000_000 * c as u64;
                while started.elapsed() < window {
                    seed += 1;
                    let response = client.roundtrip(&solve_line(seed));
                    if response.contains("\"code\":\"busy\"") {
                        busy.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    } else {
                        assert!(response.contains("\"status\":\"ok\""), "bad response");
                        ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    (
        ok.load(std::sync::atomic::Ordering::Relaxed) as f64 / elapsed,
        busy.load(std::sync::atomic::Ordering::Relaxed),
    )
}

fn session_open_line(seed: u64) -> String {
    format!(
        r#"{{"cmd":"session_open","instance":{{"name":"ft06"}},"seed":{seed},"deadline_ms":2000}}"#
    )
}

fn session_event_line(sid: &str) -> String {
    // A constant-time breakdown keeps the virtual clock legal
    // (`at >= now` holds with equality) while still re-racing the
    // whole unstarted suffix, so every event exercises the full
    // accept-event path: fold, repair, capped race, WAL append.
    format!(
        r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":0,"from":1,"duration":1}},"deadline_ms":200}}"#
    )
}

/// Aggregate session events/sec with `sessions` concurrent sessions
/// (one connection each) for `window`. Every accepted event is fsync'd
/// before its answer when the bound service has a WAL, so this is the
/// durability tax measured end-to-end through the wire.
fn session_events_sweep(addr: std::net::SocketAddr, sessions: usize, window: Duration) -> f64 {
    let done = std::sync::atomic::AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for c in 0..sessions {
            let done = &done;
            s.spawn(move || {
                let mut client = Client::connect(addr);
                let opened = client.roundtrip(&session_open_line(500 + c as u64));
                let sid = serve::json::parse(opened.trim())
                    .expect("parse open")
                    .get("session")
                    .expect("session id")
                    .as_str()
                    .expect("string id")
                    .to_string();
                let line = session_event_line(&sid);
                while started.elapsed() < window {
                    let response = client.roundtrip(&line);
                    assert!(response.contains("\"status\":\"ok\""), "bad response");
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    done.load(std::sync::atomic::Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

/// Session-event throughput with and without the WAL (ISSUE 8): the
/// same concurrent event storm against a memory-only service, a
/// durable one (fsync before every answer), and a durable one with
/// fsync off — isolating framing+write cost from the fsync itself.
/// Rows are *appended* to `BENCH_session.json` next to the
/// x03_session_storm trajectory.
fn bench_session_wal(c: &mut Criterion) {
    const SESSIONS: usize = 4;
    let wal_root = std::env::temp_dir().join(format!("pga-wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let modes: [(&str, bool, bool); 3] = [
        ("no_wal", false, true),
        ("wal_fsync", true, true),
        ("wal_nofsync", true, false),
    ];

    let mut g = c.benchmark_group("serve_session");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));
    let mut rows: Vec<serve::Json> = Vec::new();
    for (mode, wal, fsync) in modes {
        let config = ServeConfig {
            gen_cap: 10,
            racers: 1,
            workers: 8,
            wal_dir: wal.then(|| wal_root.join(mode).to_string_lossy().into_owned()),
            wal_fsync: fsync,
            ..ServeConfig::default()
        }
        .resolved();
        let service = Service::bind(config).expect("bind");
        let addr = service.local_addr();

        // Criterion line: one event on one warm session.
        let mut client = Client::connect(addr);
        let opened = client.roundtrip(&session_open_line(7));
        let sid = serve::json::parse(opened.trim())
            .expect("parse open")
            .get("session")
            .expect("session id")
            .as_str()
            .expect("string id")
            .to_string();
        let line = session_event_line(&sid);
        g.bench_function(format!("event_{mode}"), |b| {
            b.iter(|| client.roundtrip(&line))
        });

        let events_per_sec = session_events_sweep(addr, SESSIONS, Duration::from_millis(800));
        rows.push(obj([
            ("bench", "serve_session_wal".into()),
            ("mode", mode.into()),
            ("sessions", (SESSIONS as u64).into()),
            ("events_per_sec", events_per_sec.into()),
            ("gen_cap", 10u64.into()),
        ]));

        drop(client);
        service.shutdown();
    }
    g.finish();

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_session.json");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open BENCH_session.json");
    for row in &mut rows {
        if let serve::Json::Obj(fields) = row {
            fields.insert(1, ("run_epoch_s".into(), stamp.into()));
        }
        use std::io::Write as _;
        writeln!(file, "{}", row.encode()).expect("append row");
        println!("BENCH_session.json: {}", row.encode());
    }
    let _ = std::fs::remove_dir_all(&wal_root);
}

fn bench_serve(c: &mut Criterion) {
    let config = ServeConfig {
        // Small caps keep a cold ft06 race in the low milliseconds so
        // the bench finishes quickly; the cached path is cap-independent.
        gen_cap: 40,
        racers: 2,
        // Enough workers that the concurrent sweep is limited by the
        // racer pool (sized from host cores), not by connection slots.
        workers: 8,
        ..ServeConfig::default()
    }
    .resolved();
    let max_queue_depth = config.max_queue_depth;
    let service = Service::bind(config).expect("bind");
    let addr = service.local_addr();

    // Warm the cache entry the "cached" benchmark hits.
    let mut client = Client::connect(addr);
    client.roundtrip(&solve_line(42));

    let mut g = c.benchmark_group("serve");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));
    g.bench_function("request_ft06_cached", |b| {
        b.iter(|| client.roundtrip(&solve_line(42)))
    });
    let mut cold_seed = 1_000u64;
    g.bench_function("request_ft06_cold", |b| {
        b.iter(|| {
            cold_seed += 1;
            client.roundtrip(&solve_line(cold_seed))
        })
    });
    g.finish();

    // Throughput record for BENCH_serve.json.
    let cached_rps = throughput(&mut client, Duration::from_millis(800), || solve_line(42));
    let mut seed = 10_000u64;
    let cold_rps = throughput(&mut client, Duration::from_millis(800), || {
        seed += 1;
        solve_line(seed)
    });
    // Concurrent-client saturation sweep: cold traffic from 1/2/4/8
    // connections against the fixed racer pool. Before the persistent
    // scheduler this fanned out `connections x racers` fresh threads;
    // now racer threads are pinned at pool size and the sweep shows
    // how aggregate cold throughput scales with offered load.
    let sweep: Vec<serve::Json> = [1usize, 2, 4, 8]
        .iter()
        .map(|&clients| {
            let (rps, busy) = concurrent_cold_sweep(
                addr,
                clients,
                Duration::from_millis(1_500),
                100_000 * (clients as u64 + 1),
            );
            obj([
                ("clients", (clients as u64).into()),
                ("cold_requests_per_sec", rps.into()),
                ("busy_responses", busy.into()),
            ])
        })
        .collect();
    let report = obj([
        ("bench", "serve_throughput".into()),
        ("instance", "ft06".into()),
        ("deadline_ms", 200u64.into()),
        ("cached_requests_per_sec", cached_rps.into()),
        ("cold_requests_per_sec", cold_rps.into()),
        ("speedup_cached_over_cold", (cached_rps / cold_rps).into()),
        (
            "racer_pool",
            service
                .registry()
                .value("serve_racer_pool")
                .unwrap_or(0)
                .into(),
        ),
        ("max_queue_depth", (max_queue_depth as u64).into()),
        ("concurrent_cold_sweep", serve::Json::Arr(sweep)),
    ]);
    // Workspace root, so the record sits next to the other top-level
    // reports regardless of where cargo runs the bench from.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, format!("{}\n", report.encode())).expect("write report");
    println!("BENCH_serve.json: {}", report.encode());

    drop(client);
    service.shutdown();
}

criterion_group!(benches, bench_serve, bench_session_wal);
criterion_main!(benches);
