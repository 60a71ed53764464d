//! The metric catalogue cannot drift. Every series a bound service
//! registers is documented in docs/OBSERVABILITY.md §2, every `serve_*`
//! name §2 mentions is registered, and the `stats` answer is a fixed,
//! ordered view over registered series.

use serve::json::{self, Json};
use serve::{ServeConfig, Service};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The `stats` keys in wire order, between `status` and the two
/// non-series fields `cost_model_drift_milli` and `version`.
const STATS_KEYS: [&str; 28] = [
    "requests",
    "solved",
    "cache_hits",
    "cache_misses",
    "errors",
    "busy_rejections",
    "queue_wait_us",
    "pool_wait_us",
    "cache_len",
    "workers",
    "racer_pool",
    "queue_depth",
    "max_queue_depth",
    "sessions_open",
    "sessions_opened",
    "sessions_closed",
    "sessions_expired",
    "sessions_evicted",
    "session_events",
    "session_repair_wins",
    "session_resolve_wins",
    "session_resolve_busy",
    "sessions_recovered",
    "wal_appends",
    "wal_replays",
    "max_sessions",
    "uptime_ms",
    "worker_panics",
];

fn bind() -> Service {
    Service::bind(ServeConfig {
        workers: 1,
        gen_cap: 40,
        racer_pool: 1,
        ..ServeConfig::default()
    })
    .expect("bind")
}

/// Sends each line on one connection and returns the parsed answers.
fn send(addr: SocketAddr, lines: &[&str]) -> Vec<Json> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").expect("write");
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("read");
            json::parse(answer.trim()).expect("answer is JSON")
        })
        .collect()
}

fn fields(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(fields) => fields,
        other => panic!("expected an object, got {}", other.encode()),
    }
}

/// Base names (static labels stripped) of every registered series.
fn registered(service: &Service) -> BTreeSet<String> {
    fields(&service.registry().expose_json())
        .iter()
        .map(|(name, _)| name.split('{').next().unwrap_or(name).to_string())
        .collect()
}

/// Every `serve_*` name in docs/OBSERVABILITY.md §2.
fn documented() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(path).expect("read OBSERVABILITY.md");
    let start = doc.find("\n## 2.").expect("§2 heading") + 1;
    let section = &doc[start..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut names = BTreeSet::new();
    for (at, _) in section.match_indices("serve_") {
        if section[..at].chars().next_back().is_some_and(word) {
            continue;
        }
        let len = section[at..]
            .find(|c| !word(c))
            .unwrap_or(section.len() - at);
        names.insert(section[at..at + len].to_string());
    }
    names
}

#[test]
fn every_registered_series_is_documented_and_every_documented_one_registered() {
    let service = bind();
    let registered = registered(&service);
    let documented = documented();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from OBSERVABILITY.md §2: {undocumented:?}"
    );
    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(
        stale.is_empty(),
        "OBSERVABILITY.md §2 names unregistered series: {stale:?}"
    );
    service.shutdown();
}

#[test]
fn stats_keys_keep_their_order_and_mirror_the_metrics_registry() {
    let service = bind();
    let solve = r#"{"instance":{"name":"flow05"},"seed":3,"deadline_ms":2000}"#;
    let answers = send(
        service.local_addr(),
        &[
            solve,
            solve,
            "garbage",
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"metrics"}"#,
        ],
    );
    let stats = &answers[3];
    let keys: Vec<&str> = fields(stats).iter().map(|(k, _)| k.as_str()).collect();
    let mut expected = vec!["status"];
    expected.extend(STATS_KEYS);
    expected.extend(["cost_model_drift_milli", "version"]);
    assert_eq!(keys, expected, "stats keys or their order changed");

    // Each key reads the series `serve_<key>` or `serve_<key>_total`;
    // the metrics answer that follows differs only by its own request
    // and the clock.
    let series = answers[4].get("json").expect("metrics json body");
    for key in STATS_KEYS {
        let value = [format!("serve_{key}"), format!("serve_{key}_total")]
            .iter()
            .find_map(|name| series.get(name))
            .unwrap_or_else(|| panic!("stats key {key} has no series"))
            .as_u64();
        let shown = stats.get(key).and_then(Json::as_u64);
        match key {
            "requests" => assert_eq!(value, shown.map(|n| n + 1), "{key}"),
            "uptime_ms" => assert!(value >= shown, "{key}"),
            _ => assert_eq!(value, shown, "{key}"),
        }
    }
    for (key, expected) in [
        ("requests", 4),
        ("cache_hits", 1),
        ("cache_misses", 1),
        ("errors", 1),
    ] {
        assert_eq!(
            stats.get(key).and_then(Json::as_u64),
            Some(expected),
            "{key}"
        );
    }
    let drift = fields(stats.get("cost_model_drift_milli").expect("drift"));
    let families: Vec<&str> = drift.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(families, ["flow", "job", "open", "flexible"]);
    service.shutdown();
}
