//! The repository benchmark. One run starts the release `pga-shop-serve`
//! for a workload, drives it over TCP from this process (two threads,
//! two connections), checks every answer, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) as the
//! last line of stdout. Per-layer numbers come from an in-process replay
//! of the same script in a child process (`perfbench replay ...`), with
//! one span around each public call.
//!
//! ```text
//! perfbench --workload cold-mix --seed 1 --seconds 10 --trace 0 \
//!     [--server .bench_build/release/pga-shop-serve] [--work .bench_work]
//! ```

mod client;
mod probe;
mod procfs;
mod replay;
mod script;
mod spans;
mod stats;

use client::{metrics_snapshot, Checker, Observed, Setup};
use replay::ReplayOut;
use script::{Script, Workload};
use serve::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_answer", "ms"),
    ("answer_value_ratio", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics with their units, as `BENCHMARK.json` lists them.
/// Layers a workload does not exercise read 0 (shares, counts and
/// bytes only; every time here is exercised by every workload).
const PER_LAYER: [(&str, &str); 42] = [
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.answer_bytes", "bytes"),
    ("instance.load_us", "us"),
    ("instance.hash_us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_share", "share"),
    ("server.request_us", "us"),
    ("server.wire_us", "us"),
    ("server.queue_wait_us", "us"),
    ("scheduler.pool_wait_us", "us"),
    ("scheduler.busy_share", "share"),
    ("race.ms", "ms"),
    ("race.evals_per_s", "1/s"),
    ("race.deadline_bound_share", "share"),
    ("hpc.obs_over_pred", "ratio"),
    ("phase.select_share", "share"),
    ("phase.breed_share", "share"),
    ("phase.evaluate_share", "share"),
    ("phase.decode_share", "share"),
    ("phase.migrate_share", "share"),
    ("decoder.ns_per_op", "ns"),
    ("decoder.retimed_share", "share"),
    ("validate.us", "us"),
    ("session.resolve_win_share", "share"),
    ("wal.bytes_per_event", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage", "share"),
    ("self.parse_share", "share"),
    ("self.load_share", "share"),
    ("self.hash_share", "share"),
    ("self.cache_share", "share"),
    ("self.admission_share", "share"),
    ("self.race_share", "share"),
    ("self.validate_share", "share"),
    ("self.encode_share", "share"),
    ("self.repair_share", "share"),
    ("self.resolve_share", "share"),
    ("self.wal_share", "share"),
    ("self.release_share", "share"),
    ("self.glue_share", "share"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The most CPU the server may use while the host-speed probe runs, as a
/// share of the probe's wall time.
const IDLE_CPU_SHARE: f64 = 0.05;

/// Default workload seed (the held-out seed is in the README).
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied();
    let num = |k: &str, default: u64| -> Result<u64, String> {
        get(k).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {k} {v:?}"))
        })
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    Ok(Args {
        workload: Workload::from_name(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: num("--seed", DEFAULT_SEED)?,
        seconds: num("--seconds", 10)?,
        trace: num("--trace", 0)? != 0,
        server: get("--server").map_or_else(
            || Path::new(&target).join("release/pga-shop-serve"),
            PathBuf::from,
        ),
        work: PathBuf::from(get("--work").unwrap_or(".bench_work")),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("replay") => replay_main(&argv[1..]),
        _ => run_main(&argv),
    };
    std::process::exit(code);
}

/// `perfbench replay --workload W --seed N --seconds S --trace 0|1 --work DIR`:
/// the in-process replay, printing its result as one JSON line.
fn replay_main(argv: &[String]) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench replay: {e}");
            return 2;
        }
    };
    let script = Script::build(args.workload, args.seed, args.seconds);
    match replay::replay(&script, args.trace, &args.work) {
        Ok(out) => {
            println!("{}", replay::to_json(&out).encode());
            0
        }
        Err(e) => {
            eprintln!("perfbench replay: {e}");
            1
        }
    }
}

/// Runs the replay in a child process (so this process stays a two-
/// thread client) and reads its result.
fn run_replay(args: &Args, traced: bool) -> Result<ReplayOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("replay")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--work")
        .arg(&args.work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the replay: {e}"))?;
    if !out.status.success() {
        return Err(format!("replay failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("replay printed nothing")?;
    let v = serve::json::parse(line).map_err(|e| e.to_string())?;
    replay::from_json(&v).ok_or_else(|| "malformed replay result".to_string())
}

fn run_main(argv: &[String]) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    match run(&args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// A histogram's `(count, sum)` from a metrics `json` body.
fn hist(m: &Json, name: &str) -> (f64, f64) {
    let h = m.get(name);
    let f = |k: &str| {
        h.and_then(|h| h.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (f("count"), f("sum"))
}

fn counter(m: &Json, name: &str) -> f64 {
    m.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One pass of the measured script.
struct Pass {
    observed: Vec<Observed>,
    wall_s: f64,
    cpu_ms: f64,
    /// Host-speed scale of the pass, from the mean of the probe
    /// readings just before and after it.
    scale: f64,
}

/// A host-speed probe reading taken while the server is idle, and the
/// server's CPU time during it.
struct ProbeReading {
    ns: f64,
    server_cpu_ms: f64,
    wall_ms: f64,
}

/// Runs the probe next to the idle server `pid`. The server's CPU time
/// is read around it: a server that kept working between requests would
/// slow the probe and so flatter every scaled time, and the idle check
/// catches that.
fn probe_idle(pid: u32) -> Result<ProbeReading, String> {
    let cpu = || procfs::cpu_reading(pid).ok_or("cannot read the server's CPU time");
    let cpu0 = cpu()?;
    let t0 = std::time::Instant::now();
    let ns = probe::probe_ns();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(ProbeReading {
        ns,
        server_cpu_ms: procfs::cpu_ms_between(&cpu0, &cpu()?),
        wall_ms,
    })
}

/// Everything one run measured over TCP.
struct TcpRun {
    /// Set-up times scaled to reference host speed, and as measured.
    setup_s: Vec<f64>,
    setup_raw_s: Vec<f64>,
    probes: Vec<ProbeReading>,
    passes: Vec<Pass>,
    priming: Vec<Observed>,
    rss_mb: f64,
    before: Json,
    after: Json,
}

fn tcp_run(args: &Args, script: &Script, checker: &Checker) -> Result<TcpRun, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let wal_dir = (script.workload == Workload::SessionStorm).then(|| args.work.join("server-wal"));
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut probes = Vec::new();
    let mut setup = None;
    for r in 0..repeats {
        let s = Setup::run(&args.server, script, checker, wal_dir.as_deref())
            .map_err(|e| format!("set-up failed ({}): {e}", args.server.display()))?;
        // The primed server is idle: the probe next to it scales the
        // set-up, and the last one also opens the first pass.
        let reading = probe_idle(s.server.pid())?;
        setup_raw_s.push(s.seconds);
        setup_s.push(s.seconds * probe::scale(reading.ns));
        probes.push(reading);
        if r + 1 < repeats {
            s.shutdown().map_err(|e| e.to_string())?;
        } else {
            setup = Some(s);
        }
    }
    let mut setup = setup.expect("at least one set-up");
    let pid = setup.server.pid();
    let cpu = || procfs::cpu_reading(pid).ok_or("cannot read the server's CPU time");
    let before = metrics_snapshot(&mut setup.conns[0]).map_err(|e| e.to_string())?;
    let mut passes = Vec::new();
    for range in script.pass_ranges() {
        let cpu0 = cpu()?;
        let t0 = std::time::Instant::now();
        let observed = setup.measure(checker, script, range);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ms = procfs::cpu_ms_between(&cpu0, &cpu()?);
        let before = probes.last().map_or(probe::REFERENCE_NS, |p| p.ns);
        let after = probe_idle(pid)?;
        passes.push(Pass {
            observed,
            wall_s,
            cpu_ms,
            scale: probe::scale((before + after.ns) / 2.0),
        });
        probes.push(after);
    }
    let rss_mb = procfs::peak_rss_mb(pid).ok_or("cannot read the server's memory")?;
    let after = metrics_snapshot(&mut setup.conns[0]).map_err(|e| e.to_string())?;
    let priming = std::mem::take(&mut setup.priming);
    setup.shutdown().map_err(|e| e.to_string())?;
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(TcpRun {
        setup_s,
        setup_raw_s,
        probes,
        passes,
        priming,
        rss_mb,
        before,
        after,
    })
}

/// The end-to-end timing metrics of a pool of passes, each pass's times
/// scaled to reference host speed when `scaled` is set.
fn pool_metrics(pool: &[&Pass], scaled: bool) -> BTreeMap<&'static str, f64> {
    let k = |p: &Pass| if scaled { p.scale } else { 1.0 };
    let lat_ms: Vec<f64> = pool
        .iter()
        .flat_map(|p| {
            p.observed
                .iter()
                .map(move |o| o.due_latency_us / 1e3 * k(p))
        })
        .collect();
    let n = lat_ms.len();
    let wall_s: f64 = pool.iter().map(|p| p.wall_s * k(p)).sum();
    let cpu_ms: f64 = pool.iter().map(|p| p.cpu_ms * k(p)).sum();
    let tail = f64::from(stats::tail_percentile(n)) / 100.0;
    BTreeMap::from([
        ("throughput_per_s", n as f64 / wall_s),
        ("latency_p50_ms", stats::median(&lat_ms).unwrap_or(0.0)),
        (
            "latency_tail_ms",
            stats::quantile(&lat_ms, tail).unwrap_or(0.0),
        ),
        ("cpu_ms_per_answer", cpu_ms / n.max(1) as f64),
    ])
}

/// The faster half of the passes (at least one), ranked by scaled mean
/// latency: the host is shared and its slow spells last seconds, so the
/// faster of several equivalent passes track the program and the rest
/// track the neighbours. A regression in the program slows every pass,
/// so it still shows.
fn fastest_half(passes: &[Pass]) -> Vec<&Pass> {
    let mean_us = |p: &Pass| {
        let v: Vec<f64> = p.observed.iter().map(|o| o.due_latency_us).collect();
        stats::mean(&v) * p.scale
    };
    let mut ranked: Vec<&Pass> = passes.iter().collect();
    ranked.sort_by(|a, b| mean_us(a).total_cmp(&mean_us(b)));
    ranked.truncate(passes.len().div_ceil(2));
    ranked
}

/// A named check printed next to the metrics.
struct Checks(Vec<(String, bool, String)>);

impl Checks {
    fn add(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push((name.to_string(), ok, detail));
    }
    fn all_pass(&self) -> bool {
        self.0.iter().all(|c| c.1)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let script = Script::build(args.workload, args.seed, args.seconds);
    let checker = Checker::new(&script);
    let tcp = tcp_run(args, &script, &checker)?;
    let plain = run_replay(args, false)?;
    let traced = if args.trace {
        Some(run_replay(args, true)?)
    } else {
        None
    };
    let _ = std::fs::remove_dir(&args.work);

    let measured: Vec<&Observed> = tcp.passes.iter().flat_map(|p| &p.observed).collect();
    let n = measured.len();
    let mut checks = Checks(Vec::new());
    let failed = check_answers(&script, &tcp, &measured, &plain, &mut checks);
    let pool = fastest_half(&tcp.passes);
    let pooled: usize = pool.iter().map(|p| p.observed.len()).sum();
    let e2e = end_to_end(&tcp, &measured, &pool);
    let layers = layer_metrics(&script, &tcp, &measured, &plain, traced.as_ref());
    let late: Vec<f64> = measured.iter().map(|o| o.late_us / 1e3).collect();
    let generator_late_ms = stats::quantile(&late, 0.99).unwrap_or(0.0);
    self_checks(
        &script,
        &measured,
        &plain,
        &layers,
        generator_late_ms,
        traced.is_some(),
        &mut checks,
    );
    let probe_server_ms: f64 = tcp.probes.iter().map(|p| p.server_cpu_ms).sum();
    let probe_wall_ms: f64 = tcp.probes.iter().map(|p| p.wall_ms).sum();
    checks.add(
        "server_idle_during_probes",
        probe_server_ms <= IDLE_CPU_SHARE * probe_wall_ms,
        format!("server CPU {probe_server_ms:.3} ms over {probe_wall_ms:.1} ms of probes"),
    );

    // Human-readable report, then the result line.
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for (name, unit) in END_TO_END {
        println!("metric {name} = {} {unit}", e2e[name]);
    }
    println!(
        "metric failed_share = {} share",
        failed as f64 / n.max(1) as f64
    );
    if w.open_loop() {
        let missed = measured
            .iter()
            .filter(|o| o.error.is_some() || o.due_latency_us / 1e3 > script.limit_ms)
            .count();
        println!(
            "metric limit_miss_share = {} share (limit {} ms)",
            missed as f64 / n.max(1) as f64,
            script.limit_ms
        );
        println!("metric bench.generator_late_ms = {generator_late_ms} ms (p99)");
    }
    for (name, v) in pool_metrics(&pool, false) {
        println!("info {name} as measured, before scaling = {v}");
    }
    println!(
        "info setup_s as measured, before scaling = {}",
        stats::median(&tcp.setup_raw_s).unwrap_or(0.0)
    );
    for (k, p) in tcp.passes.iter().enumerate() {
        let row: Vec<String> = pool_metrics(&[p], true)
            .iter()
            .map(|(name, v)| format!("{name}={v:.4}"))
            .collect();
        println!("pass {k}: {} scale={:.4}", row.join(" "), p.scale);
    }
    println!(
        "info timing metrics pool the fastest {} of {} passes; latency_tail_ms is p{} of their {pooled} answers",
        pool.len(),
        tcp.passes.len(),
        stats::tail_percentile(pooled),
    );
    for (k, v) in &layers {
        println!("layer {k} = {v}");
    }
    for (name, ok, detail) in &checks.0 {
        println!(
            "check {name}: {} ({detail})",
            if *ok { "PASS" } else { "FAIL" }
        );
    }
    let correct = checks.all_pass();
    let metrics: Vec<(String, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric(name, layers.get(*name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| metric(name, e2e[name], unit))
            .collect()
    };
    let result = Json::Obj(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), (n as u64).into()),
        ("failed".into(), (failed as u64).into()),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.encode());
    Ok(correct)
}

/// Every answer passed the client's checks as it landed, and its value
/// equals the in-process replay's value for the same request. Returns
/// the number of failed measured requests.
fn check_answers(
    script: &Script,
    tcp: &TcpRun,
    measured: &[&Observed],
    plain: &ReplayOut,
    checks: &mut Checks,
) -> usize {
    let mut failed = 0;
    let mut priming_failed = 0;
    let mut first_error = None;
    for o in tcp.priming.iter().chain(measured.iter().copied()) {
        let err = o
            .error
            .clone()
            .or_else(|| match plain.answers.get(o.index) {
                Some(r) if r.value == o.value => None,
                Some(r) => Some(format!(
                    "value {} differs from the replay's {}",
                    o.value, r.value
                )),
                None => Some("no replay answer".into()),
            });
        if let Some(e) = err {
            if o.index < script.priming.len() {
                priming_failed += 1;
            } else {
                failed += 1;
            }
            first_error.get_or_insert(format!("request {}: {e}", o.index));
        }
    }
    let n = measured.len();
    checks.add(
        "answers_correct",
        failed == 0 && priming_failed == 0 && n == script.measured.len(),
        first_error.unwrap_or_else(|| format!("{n} answers validated and matched the replay")),
    );
    failed
}

/// The end-to-end metrics: the timing ones pooled over the faster half
/// of the passes, the rest over the whole run.
fn end_to_end(tcp: &TcpRun, measured: &[&Observed], pool: &[&Pass]) -> BTreeMap<&'static str, f64> {
    let mut e2e = pool_metrics(pool, true);
    e2e.insert("setup_s", stats::median(&tcp.setup_s).unwrap_or(0.0));
    let ratios: Vec<f64> = measured
        .iter()
        .filter(|o| o.error.is_none() && o.reference > 0.0)
        .map(|o| o.value / o.reference)
        .collect();
    e2e.insert("answer_value_ratio", stats::mean(&ratios));
    e2e.insert("rss_peak_mb", tcp.rss_mb);
    e2e
}

/// The per-layer metrics: the traced replay's, plus the server layers
/// read from the program's own outputs (`metrics` before and after the
/// passes, and the answers' telemetry).
fn layer_metrics(
    script: &Script,
    tcp: &TcpRun,
    measured: &[&Observed],
    plain: &ReplayOut,
    traced: Option<&ReplayOut>,
) -> BTreeMap<String, f64> {
    let n = measured.len().max(1) as f64;
    let (c0, s0) = hist(&tcp.before, "serve_request_us");
    let (c1, s1) = hist(&tcp.after, "serve_request_us");
    let server_us = (s1 - s0) / (c1 - c0).max(1.0);
    let send_us: Vec<f64> = measured.iter().map(|o| o.latency_us).collect();
    let delta = |name: &str| counter(&tcp.after, name) - counter(&tcp.before, name);
    let solves = script
        .measured
        .iter()
        .filter(|r| matches!(r.kind, script::ReqKind::Solve { .. }))
        .count();
    let hit_share = if solves == 0 {
        0.0
    } else {
        delta("serve_cache_hits_total") / solves as f64
    };
    // Session events carry no queue or pool telemetry, so these cover
    // the priming answers too (session-storm's opens).
    let everything: Vec<&Observed> = tcp.priming.iter().chain(measured.iter().copied()).collect();
    let mean_of = |f: fn(&Observed) -> Option<f64>| {
        let v: Vec<f64> = everything.iter().filter_map(|o| f(o)).collect();
        stats::mean(&v)
    };
    let mut layers = traced.map(|t| t.metrics.clone()).unwrap_or_default();
    layers.insert("server.request_us".into(), server_us);
    layers.insert("server.wire_us".into(), stats::mean(&send_us) - server_us);
    layers.insert("server.queue_wait_us".into(), mean_of(|o| o.queue_wait_us));
    layers.insert("scheduler.pool_wait_us".into(), mean_of(|o| o.pool_wait_us));
    layers.insert(
        "scheduler.busy_share".into(),
        delta("serve_busy_rejections_total") / n,
    );
    layers.insert("cache.hit_share".into(), hit_share);
    if let Some(t) = traced {
        // Median over requests of traced / untraced time: the same
        // request pairs up in both replays, and the median shrugs off
        // host noise that hits either replay.
        let ratios: Vec<f64> = t
            .request_ns
            .iter()
            .zip(&plain.request_ns)
            .filter(|(_, &p)| p > 0)
            .map(|(&t, &p)| t as f64 / p as f64)
            .collect();
        layers.insert(
            "trace.overhead_pct".into(),
            (stats::median(&ratios).unwrap_or(1.0) - 1.0) * 100.0,
        );
    }
    layers
}

/// Workload self-checks: each workload exercises what it claims.
fn self_checks(
    script: &Script,
    measured: &[&Observed],
    plain: &ReplayOut,
    layers: &BTreeMap<String, f64>,
    generator_late_ms: f64,
    traced: bool,
    checks: &mut Checks,
) {
    let hit_share = layers["cache.hit_share"];
    let bound = plain.answers.iter().filter(|a| a.deadline_bound).count();
    match script.workload {
        Workload::ColdMix => {
            let cached = measured.iter().filter(|o| o.cached).count();
            checks.add(
                "cache_hit_share_is_0",
                hit_share == 0.0 && cached == 0,
                format!("{hit_share} from stats, {cached} answers marked cached"),
            );
            checks.add(
                "no_deadline_bound_race",
                bound == 0,
                format!("{bound} deadline-bound"),
            );
            let certified: Vec<String> = measured
                .iter()
                .filter(|o| o.value <= o.reference)
                .map(|o| format!("{:?}", script.measured[o.index - script.priming.len()].kind))
                .collect();
            checks.add(
                "no_lower_bound_certified",
                certified.is_empty(),
                format!(
                    "{} answers hit their lower bound {certified:?}",
                    certified.len()
                ),
            );
        }
        Workload::CachedHot => {
            let cached = measured.iter().filter(|o| o.cached).count();
            checks.add(
                "cache_hit_share_is_1",
                hit_share == 1.0 && cached == measured.len(),
                format!(
                    "{hit_share} from stats, {cached}/{} answers marked cached",
                    measured.len()
                ),
            );
        }
        Workload::SessionStorm => {
            checks.add(
                "no_deadline_bound_race",
                bound == 0,
                format!("{bound} deadline-bound"),
            );
            let empty = measured.iter().filter(|o| o.empty_suffix).count();
            let raced = measured.iter().filter(|o| o.resolved).count();
            checks.add(
                "empty_suffix_and_resolved_events",
                empty > 0 && raced > 0,
                format!("{empty} empty-suffix, {raced} resolve-raced"),
            );
        }
        Workload::MixedOpen => {
            checks.add(
                "generator_on_time",
                generator_late_ms < script.limit_ms / 10.0,
                format!(
                    "p99 lateness {generator_late_ms:.3} ms vs limit {} ms",
                    script.limit_ms
                ),
            );
        }
    }
    if traced {
        let cov = layers.get("trace.span_coverage").copied().unwrap_or(0.0);
        checks.add(
            "p5_span_coverage_at_least_0.9",
            cov >= 0.9,
            format!("{cov:.4}"),
        );
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![
            ("value".into(), value.into()),
            ("unit".into(), unit.into()),
        ]),
    )
}
