//! Request telemetry: hdr-style fixed-bucket latency histograms and
//! per-tenant counters, all lock-free (`AtomicU64`) so the hot path
//! never serializes on observability.
//!
//! The histogram is the classic HdrHistogram bucket scheme with a
//! 5-bit sub-bucket mantissa: values below 32 get exact unit buckets;
//! above that, each power-of-two octave is split into 32 sub-buckets,
//! bounding the relative quantization error at ~3% across the full
//! `u64` range with a fixed 1920-slot table — no allocation after
//! construction, no dependencies.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32 linear buckets per octave
const OCTAVES: usize = 64 - SUB_BITS as usize; // 2^5 ..= 2^63
const NBUCKETS: usize = SUB * (OCTAVES + 1); // unit range + 59 octaves = 1920

/// Fixed-bucket log-linear histogram of `u64` samples (we record
/// nanoseconds). ~3% relative error, constant memory, lock-free.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for a sample. Saturates into the top sub-bucket of the
/// top octave, so every `u64` (including `u64::MAX`) maps strictly
/// below [`NBUCKETS`] — `record` can never index out of bounds.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // 2^e <= v, e >= 5
        let mantissa = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
        ((e + 1 - SUB_BITS) as usize * SUB + mantissa).min(NBUCKETS - 1)
    }
}

/// Upper bound of the bucket (conservative quantiles round *up*).
/// Clamps out-of-range indices to the top bucket and saturates the
/// upper-bound arithmetic, which sits exactly at `u64::MAX` for the
/// final sub-bucket — one stray bit would otherwise wrap to a tiny
/// bound and silently corrupt every top-octave quantile.
fn bucket_value(idx: usize) -> u64 {
    let idx = idx.min(NBUCKETS - 1);
    if idx < SUB {
        idx as u64
    } else {
        let g = (idx / SUB) as u32; // octave index, >= 1
        let m = (idx % SUB) as u64;
        let e = g + SUB_BITS - 1; // 5 ..= 63
        let unit = e - SUB_BITS; // sub-bucket width = 2^unit
        ((SUB as u64 + m) << unit).saturating_add((1u64 << unit) - 1)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (exact, not bucket-rounded).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound; `0`
    /// when empty. `quantile(0.5)` = p50, `quantile(0.999)` = p999.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_value(i);
            }
        }
        self.max()
    }
}

/// Per-tenant request counters. `shed` counts `OVERLOADED` replies —
/// the admission-control evidence the fairness tests assert on.
#[derive(Default)]
pub struct TenantCounters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub errors: AtomicU64,
}

impl TenantCounters {
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.submitted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
}

/// Service-wide counters.
#[derive(Default)]
pub struct ServiceStats {
    /// BFS requests launched. Kept for grb-bench's
    /// `server.coalesce_req_per_launch` probe, 1.00 by construction.
    pub bfs_requests: AtomicU64,
    /// BFS launches, bumped with `bfs_requests` once per BFS job. Kept
    /// for grb-bench's `server.coalesce_req_per_launch` probe, 1.00 by
    /// construction.
    pub bfs_batches: AtomicU64,
    /// Requests admitted into the scheduler (all types).
    pub admitted: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn index_value_round_trip_within_3pct() {
        for v in [
            1u64,
            31,
            32,
            33,
            100,
            1_000,
            4_095,
            65_537,
            1_000_000,
            123_456_789,
            u64::MAX / 2,
        ] {
            let ub = bucket_value(bucket_index(v));
            assert!(ub >= v, "upper bound {ub} below sample {v}");
            let err = (ub - v) as f64 / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "v={v} ub={ub} err={err}");
        }
    }

    #[test]
    fn bucket_boundaries_are_monotone() {
        let mut prev = 0;
        for i in 1..NBUCKETS {
            let v = bucket_value(i);
            assert!(v > prev, "bucket {i}: {v} <= {prev}");
            prev = v;
        }
    }

    #[test]
    fn extreme_values_round_trip_without_panic() {
        // The top sub-bucket's upper bound is exactly u64::MAX; every
        // edge value must index in range and reconstruct a bound at or
        // above the sample.
        for v in [0u64, 1, 31, 32, u64::MAX - 1, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < NBUCKETS, "v={v} idx={idx} out of range");
            let ub = bucket_value(idx);
            assert!(ub >= v, "v={v} idx={idx} ub={ub} below sample");
        }
        assert_eq!(bucket_value(bucket_index(u64::MAX)), u64::MAX);
        // Out-of-range indices clamp instead of shifting past the word.
        assert_eq!(bucket_value(NBUCKETS), u64::MAX);
        assert_eq!(bucket_value(usize::MAX), u64::MAX);
        // Recording the extremes must not panic, and the quantile read
        // side must see them.
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn random_samples_round_trip_within_3pct() {
        // Deterministic xorshift sweep across all magnitudes: the
        // round-trip invariant (in-range index, upper bound >= sample,
        // <= 1/32 relative error away from the top octave) must hold
        // for arbitrary u64 samples, not just curated ones.
        let mut x = 0x243F_6A88_85A3_08D3u64; // seed: pi digits
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // vary magnitude: mask to a random bit-width 1..=64
            let width = (x % 64) + 1;
            let v = if width == 64 {
                x
            } else {
                x & ((1u64 << width) - 1)
            };
            let idx = bucket_index(v);
            assert!(idx < NBUCKETS, "v={v} idx={idx}");
            let ub = bucket_value(idx);
            assert!(ub >= v, "v={v} idx={idx} ub={ub}");
            if v >= 32 {
                // relative error bound; ub may saturate at u64::MAX in
                // the top sub-bucket, which only tightens it
                let err = (ub - v) as f64 / v as f64;
                assert!(err <= 1.0 / 32.0 + 1e-9, "v={v} ub={ub} err={err}");
            }
        }
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        let h = Histogram::new();
        // 1000 samples: 900 at ~1us, 90 at ~1ms, 10 at ~100ms (in ns)
        for _ in 0..900 {
            h.record(1_000);
        }
        for _ in 0..90 {
            h.record(1_000_000);
        }
        for _ in 0..10 {
            h.record(100_000_000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!((900..=1100).contains(&p50), "p50={p50}");
        assert!((950_000..=1_100_000).contains(&p99), "p99={p99}");
        assert!(p999 >= 100_000_000, "p999={p999}");
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max(), 0);
    }
}
