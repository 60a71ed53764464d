//! Property tests for the hand-rolled JSON layer's two hardened paths:
//! numbers where the protocol expects `u64` (negative / fractional /
//! overflowing inputs must yield descriptive wire errors, never silent
//! coercion or a panic) and string escapes (arbitrary Unicode — astral
//! planes included — must round-trip, in both the raw-UTF-8 and the
//! `\uXXXX` surrogate-pair spellings; malformed escapes must error,
//! never panic). The writer must also emit exactly the bytes of the
//! earlier `format!`-per-number writer, kept below as a reference.

use pga::telemetry::RequestTelemetry;
use proptest::prelude::*;
use serve::json::{parse, Json};
use serve::protocol::{busy_json, error_json, parse_request, solution_json};
use serve::{Objective, Request, Solution};
use shop::schedule::ScheduledOp;

/// An arbitrary Unicode scalar value, biased towards the interesting
/// regions: ASCII, the escape-relevant controls, the BMP edges around
/// the surrogate gap, and the astral planes (emoji live in plane 1).
fn arb_char(pick: u32, raw: u32) -> char {
    let c = match pick % 6 {
        0 => raw % 0x80,                // ASCII incl. controls
        1 => 0x20 + raw % 0x60,         // printable ASCII
        2 => raw % 0xD800,              // low BMP
        3 => 0xE000 + raw % 0x2000,     // BMP past the gap
        4 => 0x1F300 + raw % 0x400,     // emoji blocks
        _ => 0x10000 + raw % 0x10_0000, // anywhere astral-ish
    };
    char::from_u32(c).unwrap_or('\u{FFFD}')
}

/// Formats one char as JSON `\uXXXX` escapes (surrogate pair when
/// astral) — the spelling the parser must decode.
fn escaped(c: char) -> String {
    let mut out = String::new();
    for unit in c.encode_utf16(&mut [0u16; 2]) {
        out.push_str(&format!("\\u{unit:04x}"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Any string of arbitrary scalar values survives encode → parse
    // bit-identically (raw UTF-8 spelling).
    #[test]
    fn strings_roundtrip_raw(chars in prop::collection::vec((0u32..6, 0u32..0x11_0000), 0..24)) {
        let s: String = chars.into_iter().map(|(p, r)| arb_char(p, r)).collect();
        let v = Json::Str(s.clone());
        let back = parse(&v.encode()).unwrap();
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }

    // The same strings survive when spelled entirely as \uXXXX escapes
    // — astral characters as UTF-16 surrogate pairs, which is legal
    // JSON the parser must accept (e.g. "😀").
    #[test]
    fn strings_roundtrip_surrogate_escaped(chars in prop::collection::vec((0u32..6, 0u32..0x11_0000), 0..16)) {
        let s: String = chars.into_iter().map(|(p, r)| arb_char(p, r)).collect();
        let spelled: String = s.chars().map(escaped).collect();
        let line = format!("\"{spelled}\"");
        let back = parse(&line).unwrap();
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }

    // A high surrogate not followed by a low surrogate is an error —
    // and never a panic — wherever it sits in the string; a low
    // surrogate must never come first.
    #[test]
    fn unpaired_surrogates_error(hi in 0xD800u32..0xDC00, tail in 0u32..3) {
        let line = match tail {
            0 => format!("\"\\u{hi:04x}\""),
            1 => format!("\"\\u{hi:04x}x\""),
            _ => format!("\"\\u{hi:04x}\\u0041\""),
        };
        prop_assert!(parse(&line).is_err());
        let low_first = format!("\"\\u{:04x}\"", 0xDC00 + (hi - 0xD800));
        prop_assert!(parse(&low_first).is_err());
    }

    // Negative numbers where the protocol expects a u64 yield a
    // descriptive error naming the field — never a coerced value,
    // never a panic.
    #[test]
    fn negative_u64_fields_are_wire_errors(n in 1i64..=i64::MAX, field in 0u32..2) {
        let (key, line) = if field == 0 {
            ("seed", format!(r#"{{"instance":{{"name":"ft06"}},"seed":-{n}}}"#))
        } else {
            ("deadline_ms", format!(r#"{{"instance":{{"name":"ft06"}},"deadline_ms":-{n}}}"#))
        };
        let err = parse_request(&line).unwrap_err();
        prop_assert!(err.0.contains(key), "error must name the field: {}", err.0);
        prop_assert!(err.0.contains("non-negative"), "got: {}", err.0);
    }

    // Fractional numbers where the protocol expects a u64 are wire
    // errors too (integrality check).
    #[test]
    fn fractional_u64_fields_are_wire_errors(whole in 0u64..1_000_000, frac in 1u64..1000) {
        let text = format!("{whole}.{frac:03}");
        // e.g. 123.000 — an exact integer in disguise — is accepted,
        // so only genuinely fractional values are asserted to fail.
        if text.parse::<f64>().unwrap().fract() != 0.0 {
            let line = format!(r#"{{"instance":{{"name":"ft06"}},"deadline_ms":{text}}}"#);
            prop_assert!(parse_request(&line).is_err());
        }
    }

    // In-range integers pass through exactly.
    #[test]
    fn exact_u64_fields_roundtrip(n in 0u64..9_007_199_254_740_992) {
        let line = format!(r#"{{"instance":{{"name":"ft06"}},"seed":{n}}}"#);
        let Ok(Request::Solve(req)) = parse_request(&line) else {
            panic!("exact integer seed {n} must parse");
        };
        prop_assert_eq!(req.seed, n);
    }

    // Arbitrary byte soup never panics the parser (it may parse or
    // error, but the worker thread survives) — the no-panic contract
    // for untrusted sockets.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u32..256, 0..64)) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&raw);
        let _ = parse(&text);
        let _ = parse_request(&text);
    }

    // Finite f64 values round-trip through the wire encoding.
    #[test]
    fn finite_numbers_roundtrip(mantissa in -1.0e15f64..1.0e15, shift in 0i32..30) {
        let v = mantissa / f64::powi(10.0, shift);
        let back = parse(&Json::Num(v).encode()).unwrap();
        prop_assert_eq!(back.as_f64(), Some(v));
    }

    // The writer emits the reference writer's bytes on arbitrary trees.
    #[test]
    fn encode_matches_the_reference_writer(tape in prop::collection::vec(0u64..u64::MAX, 1..96)) {
        let mut tape = tape.into_iter();
        let tree = arb_json(&mut tape, 0);
        prop_assert_eq!(tree.encode(), reference_encode(&tree));
    }

    // Every wire body the service builds parses back to itself.
    #[test]
    fn response_bodies_roundtrip(
        ops in prop::collection::vec((0u64..50, 0u64..20, 0u64..100_000, 1u64..500), 0..40),
        pick in 0u32..6,
        raw in 0u32..0x11_0000,
        depth in 0u64..9_007_199_254_740_992,
    ) {
        let schedule: Vec<ScheduledOp> = ops
            .iter()
            .map(|&(job, machine, start, len)| ScheduledOp {
                job: job as usize,
                op: (machine % 7) as usize,
                machine: machine as usize,
                start,
                end: start + len,
            })
            .collect();
        let makespan = schedule.iter().map(|o| o.end).max().unwrap_or(0);
        let solution = Solution {
            objective: Objective::Makespan,
            value: makespan as f64,
            makespan,
            model: "island".into(),
            schedule,
        };
        let id = format!("id{}", arb_char(pick, raw));
        let message = format!("msg \"{}\"\n", arb_char(pick, raw));
        let telemetry = RequestTelemetry {
            cache_hit: pick.is_multiple_of(2),
            ..RequestTelemetry::default()
        };
        for body in [
            solution_json(Some(&id), &solution, telemetry.cache_hit, &telemetry),
            solution_json(None, &solution, false, &telemetry),
            error_json(Some(&id), &message),
            busy_json(None, depth, depth / 2),
        ] {
            let line = body.encode();
            prop_assert_eq!(line.clone(), reference_encode(&body));
            prop_assert_eq!(parse(&line).unwrap(), body);
        }
    }
}

/// A JSON tree drawn from `tape`: numbers from every class the writer
/// distinguishes, strings from every escape class, nesting up to 4.
fn arb_json(tape: &mut impl Iterator<Item = u64>, depth: u32) -> Json {
    let word = tape.next().unwrap_or(0);
    let pick = if depth >= 4 { word % 6 } else { word % 8 };
    let rest = word >> 3;
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rest.is_multiple_of(2)),
        2 => Json::Num(arb_number(rest)),
        3 | 4 => Json::Num(arb_number(tape.next().unwrap_or(rest))),
        5 => Json::Str(arb_string(rest)),
        6 => Json::Arr((0..rest % 5).map(|_| arb_json(tape, depth + 1)).collect()),
        _ => Json::Obj(
            (0..rest % 5)
                .map(|i| {
                    (
                        arb_string(rest.rotate_left(i as u32 * 7)),
                        arb_json(tape, depth + 1),
                    )
                })
                .collect(),
        ),
    }
}

/// A finite number from one of the writer's classes: integers up to
/// ±2^53, fractions, `-0.0`, magnitudes at and past 2^53, extremes.
fn arb_number(word: u64) -> f64 {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    let sign = if word & 1 == 0 { 1.0 } else { -1.0 };
    let bits = word >> 4;
    sign * match (word >> 1) % 8 {
        0 => (bits % 1_000) as f64,
        1 => (bits % (1 << 53)) as f64,
        2 => (bits % 1_000_000) as f64 / 1_000.0,
        3 => 0.0, // -0.0 with the negative sign
        4 => TWO_53 - (bits % 3) as f64,
        5 => TWO_53 * (1 + bits % 1_000) as f64,
        6 => f64::from_bits(bits & 0x7fef_ffff_ffff_ffff).abs(),
        _ => [f64::MAX, f64::MIN_POSITIVE, f64::EPSILON, 1e21, 1e-7, 0.1][(bits % 6) as usize],
    }
}

/// A string mixing characters from every escape class: the named
/// escapes, other controls, plain ASCII and multi-byte characters.
fn arb_string(word: u64) -> String {
    (0..word % 12)
        .map(|i| {
            let b = (word >> (i * 5)) as u32;
            match b % 8 {
                0 => ['"', '\\', '\n', '\r', '\t'][(b / 8 % 5) as usize],
                1 => char::from_u32(b / 8 % 0x20).unwrap_or('\0'),
                2 => '\u{7f}',
                3 | 4 => char::from(b'a' + (b / 8 % 26) as u8),
                5 => 'é',
                6 => '😀',
                _ => '/',
            }
        })
        .collect()
}

/// The earlier writer, kept verbatim as the byte-identity reference.
fn reference_encode(v: &Json) -> String {
    let mut out = String::new();
    reference_write(v, &mut out);
    out
}

fn reference_write(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(v) => {
            if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
                out.push_str(&format!("{}", *v as i64));
            } else {
                out.push_str(&format!("{v}"));
            }
        }
        Json::Str(s) => reference_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_write(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_string(k, out);
                out.push(':');
                reference_write(v, out);
            }
            out.push('}');
        }
    }
}

fn reference_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
