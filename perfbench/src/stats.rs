//! Order statistics over measured samples.

/// The share of a run's cycles (or compile passes) its fast-side figures
/// come from: a virtual machine on a shared host loses vCPU time in bursts
/// of seconds, which slows whole cycles.
pub const QUIET_SHARE: f64 = 0.1;

/// The nearest-rank `q`-quantile of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The nearest-rank `q`-quantile of `values` (any order); 0 when empty.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The quantiles a timing summary may report, lowest first.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// A timing distribution as the benchmark reports it: the sample count,
/// p50, p99, and the highest quantile of [`LADDER`] that still has at least
/// ten samples beyond it (the tail the count can support).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Samples in the distribution.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest supported quantile (0 when fewer than 20 samples).
    pub top_q: f64,
    /// The value at `top_q`.
    pub top: f64,
}

impl Timing {
    /// Summarize `values` (any order).
    pub fn of(values: &[f64]) -> Timing {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let top_q = LADDER
            .iter()
            .copied()
            .rfind(|&q| (n as f64) * (1.0 - q) >= 10.0)
            .unwrap_or(0.0);
        Timing {
            n,
            p50: quantile(&sorted, 0.5),
            p99: quantile(&sorted, 0.99),
            top_q,
            top: if top_q > 0.0 {
                quantile(&sorted, top_q)
            } else {
                0.0
            },
        }
    }

    /// One report line: `n=…, p50=…, p99=…, p<top>=…` in `unit`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "n={} p50={:.1}{unit} p99={:.1}{unit} p{}={:.1}{unit}",
            self.n,
            self.p50,
            self.p99,
            self.top_q * 100.0,
            self.top
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn the_reported_tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = Timing::of(&v);
        assert_eq!(t.n, 1000);
        assert_eq!(t.top_q, 0.99);
        let t = Timing::of(&v[..19]);
        assert_eq!(t.top_q, 0.0);
    }
}
