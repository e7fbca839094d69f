//! Latency statistics shared with the `perfbench/` benchmark.

/// Interpolated percentile over an **ascending-sorted** slice of
/// latencies. `p` in [0, 100]; empty input yields 0.
pub fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0) * (sorted_ms.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted_ms[lo]
    } else {
        let frac = rank - lo as f64;
        sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
