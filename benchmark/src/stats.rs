//! Sample statistics, the seeded generator, and the process readings
//! (the process CPU clock, `/proc/self/status`) the end-to-end metrics
//! use.

/// Seeded SplitMix64: the only source of randomness in the benchmark,
/// so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `i`-th of the `n`-quantiles of `values` (0 < i < n) by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=n)`,
/// so every reported percentile and spread can be reproduced with the
/// standard library. A single sample is each of its own quantiles; an
/// empty one has none (`NaN`).
pub fn quantile(values: &[f64], i: usize, n: usize) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return data.first().copied().unwrap_or(f64::NAN);
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 1, 2)
}

/// First and third quartiles of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 1, 4), quantile(values, 3, 4))
}

/// Each `(key, value)` sample's value replaced by the lower quartile of
/// every value with the same key, in sample order: a request's latency
/// taken over all its repeats in a run. Load from the rest of a shared
/// host only ever adds time, so the faster repeats are the steadier
/// reading of the program's own cost; a burst that slows fewer than
/// three in four repeats moves no percentile.
pub fn key_lower_quartiles(samples: &[(usize, f64)]) -> Vec<f64> {
    let keys = samples.iter().map(|&(k, _)| k + 1).max().unwrap_or(0);
    let mut repeats = vec![Vec::new(); keys];
    for &(k, v) in samples {
        repeats[k].push(v);
    }
    // With two repeats the exclusive method reaches below the faster one.
    let fastest = |r: &Vec<f64>| r.iter().copied().fold(f64::INFINITY, f64::min);
    let lower: Vec<f64> = repeats
        .iter()
        .map(|r| quantile(r, 1, 4).max(fastest(r)))
        .collect();
    samples.iter().map(|&(k, _)| lower[k]).collect()
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, now: *mut Timespec) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// User plus system CPU time of the whole process (every thread, live
/// or exited) in milliseconds, to the nanosecond: `/proc/self/stat`
/// counts in 10 ms ticks, as long as a `store-warm` request.
pub fn process_cpu_ms() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec`, and the C
    // library linked by std provides `clock_gettime`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    now.tv_sec as f64 * 1e3 + now.tv_nsec as f64 / 1e6
}

/// Peak resident set size (`VmHWM`) in megabytes, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("status reports VmHWM in kB");
    kib as f64 * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3.0, 1.0], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn median_and_deciles_match_python() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles(range(1, 21), n=10)[8]
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 9, 10), 18.9);
    }

    #[test]
    fn key_lower_quartiles_replace_each_sample_by_its_keys_quartile() {
        // statistics.quantiles([10, 11, 90, 12], n=4)[0] == 10.25; that
        // of [40, 50] is 37.5, below the faster repeat, so 40.
        let samples = [
            (0, 10.0),
            (1, 50.0),
            (0, 90.0),
            (1, 40.0),
            (0, 11.0),
            (0, 12.0),
        ];
        assert_eq!(
            key_lower_quartiles(&samples),
            [10.25, 40.0, 10.25, 40.0, 10.25, 10.25]
        );
        assert!(key_lower_quartiles(&[]).is_empty());
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let start = process_cpu_ms();
        let mut x = 0u64;
        while process_cpu_ms() - start < 1.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_ms() > start);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
