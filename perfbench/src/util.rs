//! Small shared pieces: seed derivation, order statistics, process
//! resource usage, digests and the injected-slowdown hook.

use std::time::{Duration, Instant};

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis: the start value for [`fnv`].
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64 finalizer: a bijective scramble of one word.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The stream a workload draws from: a hash of the benchmark seed and
/// the workload's name. Neighbouring seeds give unrelated streams, so no
/// two seeds share inputs the way `seed + i` numbering does.
pub fn derive(seed: u64, name: &str) -> u64 {
    mix(seed ^ mix(fnv(FNV0, name.as_bytes())))
}

/// The `i`-th draw of a derived stream (hashed, never `base + i`).
pub fn nth(base: u64, i: u64) -> u64 {
    mix(base ^ mix(i))
}

/// Order statistics of a sample, as reported for every timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Linear-interpolation percentile (`p` in `[0, 1]`) of a sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Quartiles and count of a sample.
pub fn quartiles(xs: &[f64]) -> Quartiles {
    Quartiles {
        q1: percentile(xs, 0.25),
        median: median(xs),
        q3: percentile(xs, 0.75),
        n: xs.len(),
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage_self() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the kernel's
    // 64-bit layout; getrusage(2) writes exactly that struct and nothing
    // else, and RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    ru
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, finished threads included.
pub fn cpu_seconds() -> f64 {
    let ru = rusage_self();
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(ru.utime) + tv(ru.stime)
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage_self().maxrss as f64 / 1024.0
}

/// The sensitivity hook: a benchmark-side delay of `factor` × the time a
/// unit took, spent spinning so it costs CPU like real work would.
/// `Pace::NONE` is what every measured run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pace {
    /// Added delay as a share of the unit's own duration.
    pub factor: f64,
}

impl Pace {
    /// No added delay.
    pub const NONE: Pace = Pace { factor: 0.0 };

    /// Spin for `factor` × the time elapsed since `unit_start`.
    pub fn after(self, unit_start: Instant) {
        if self.factor > 0.0 {
            self.spin(unit_start.elapsed().mul_f64(self.factor));
        }
    }

    /// Busy-compute for `d`. Arithmetic, not a pause-hinted spin loop:
    /// the delay must compete for the core like the simulator does.
    pub fn spin(self, d: Duration) {
        let t = Instant::now();
        let mut x = 1u64;
        while t.elapsed() < d {
            for _ in 0..256 {
                x = std::hint::black_box(x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 29));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_inclusive_method() {
        // statistics.quantiles([1..=9], n=4, method="inclusive")
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        let q = quartiles(&xs);
        assert_eq!((q.q1, q.median, q.q3, q.n), (3.0, 5.0, 7.0, 9));
    }

    #[test]
    fn derived_streams_do_not_overlap_across_neighbouring_seeds() {
        let a: Vec<u64> = (0..64).map(|i| nth(derive(1, "w"), i)).collect();
        let b: Vec<u64> = (0..64).map(|i| nth(derive(2, "w"), i)).collect();
        assert!(a.iter().all(|x| !b.contains(x)));
        assert_ne!(derive(1, "a"), derive(1, "b"));
    }

    #[test]
    fn cpu_clock_advances_under_work() {
        let c0 = cpu_seconds();
        Pace { factor: 0.0 }.spin(Duration::from_millis(30));
        assert!(cpu_seconds() - c0 > 0.01);
        assert!(peak_rss_mb() > 0.0);
    }
}
