//! Host-speed probe. The host is shared, and its speed drifts by up to
//! 1.5x over minutes; every timing metric drifts with it. The probe is
//! a fixed piece of CPU work, independent of the program under test,
//! timed on both cores at once while the server is idle. Timing metrics
//! are scaled by how fast the probe ran next to them, so they read as
//! they would on the reference host speed.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median chunk time at reference host speed: its typical
/// reading on a 2-vCPU 2.0 GHz Xeon VM.
pub const REFERENCE_NS: f64 = 95_000.0;

/// Chunks each probe thread times (about 35 ms of work per probe).
const CHUNKS: usize = 400;

/// Elements one chunk fills and sorts (16 KiB, an L1/L2-sized array like
/// the decoders' working set).
const CHUNK_LEN: usize = 4096;

/// One chunk: fill an array from a xorshift stream, sort it, fold it.
fn chunk(seed: u64, buf: &mut [u32]) -> u64 {
    let mut x = seed | 1;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x as u32;
    }
    buf.sort_unstable();
    buf.iter().step_by(64).fold(0u64, |acc, &v| {
        acc.wrapping_mul(31).wrapping_add(u64::from(v))
    })
}

/// Nanoseconds per chunk for `CHUNKS` chunks on this thread.
fn timed_chunks(thread: u64) -> Vec<f64> {
    let mut buf = vec![0u32; CHUNK_LEN];
    (0..CHUNKS as u64)
        .map(|i| {
            let t0 = Instant::now();
            black_box(chunk(black_box(thread * 1_000_003 + i), &mut buf));
            t0.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Median nanoseconds per chunk with the chunks running on two threads
/// at once (the calling thread and one scoped thread), so both cores
/// are loaded as they are during a pass.
pub fn probe_ns() -> f64 {
    let mut times = std::thread::scope(|s| {
        let other = s.spawn(|| timed_chunks(1));
        let mut mine = timed_chunks(0);
        mine.extend(other.join().expect("probe thread panicked"));
        mine
    });
    times.retain(|t| *t > 0.0);
    stats::median(&times).unwrap_or(REFERENCE_NS)
}

/// The factor that takes a time measured next to a probe reading of
/// `probe_ns` to reference host speed (below 1 on a slow host).
pub fn scale(probe_ns: f64) -> f64 {
    REFERENCE_NS / probe_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_is_deterministic_and_the_probe_measures_time() {
        let mut a = vec![0u32; CHUNK_LEN];
        let mut b = vec![0u32; CHUNK_LEN];
        assert_eq!(chunk(7, &mut a), chunk(7, &mut b));
        assert_ne!(chunk(7, &mut a), chunk(8, &mut b));
        assert!(probe_ns() > 0.0);
        assert_eq!(scale(REFERENCE_NS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_NS), 0.5);
    }
}
