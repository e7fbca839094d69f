//! Summary statistics and process counters.
//!
//! Timings are reported as medians and interpolated percentiles, never
//! best-of-N: a best-of hides exactly the jitter a regression bound has
//! to be read against.

/// Interpolated percentile of an unsorted sample (`p` in [0, 100]; an
/// empty sample yields 0): the older bins' `report::percentile`, so old
/// and new ledgers read alike.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    exrquy_bench::report::percentile(&sorted, p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean of strictly positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Interquartile distance as a share of the median — the spread the
/// regression bounds are judged against. `None` below four values.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let m = median(values);
    (m != 0.0).then(|| (percentile(values, 75.0) - percentile(values, 25.0)) / m.abs())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds consumed by all threads of this process, from the
/// scheduler's nanosecond clock. (`/proc/self/stat` counts the same in
/// 10 ms ticks: 5 % of the 0.4 s a `serve_mix` window uses.) 0 where
/// that clock is not to be had.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` — two 64-bit
    // integers on 64-bit Linux — through the pointer and keeps nothing.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0.0;
    }
    t.sec as f64 + t.nsec as f64 / 1e9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn geomean_and_spread() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(iqr_share(&[1.0, 2.0]), None);
        let s = iqr_share(&[10.0, 10.0, 10.0, 10.0]).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 5 {}
        assert!(cpu_seconds() - before > 0.002);
    }
}
