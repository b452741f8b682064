//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, by linear interpolation
/// between closest ranks; `None` on an empty sample.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// A sample of latencies (any unit), summarised on demand.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

impl Sample {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The arithmetic mean, or 0 on an empty sample.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len().max(1) as f64
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile, or 0 on an empty sample.
    pub fn q(&mut self, q: f64) -> f64 {
        self.sort();
        quantile(&self.values, q).unwrap_or(0.0)
    }

    pub fn median(&mut self) -> f64 {
        self.q(0.5)
    }

    /// The highest of p99/p90/p50 that leaves at least ten samples
    /// beyond it, as `(percentile, value)`; `None` below 20 samples.
    pub fn tail(&mut self) -> Option<(u32, f64)> {
        let n = self.values.len() as f64;
        [99u32, 90, 50]
            .into_iter()
            .find(|p| n * (1.0 - f64::from(*p) / 100.0) >= 10.0)
            .map(|p| (p, self.q(f64::from(p) / 100.0)))
    }

    /// One-line summary for the run log: count, median, quartiles, tail.
    pub fn describe(&mut self, unit: &str) -> String {
        let n = self.len();
        let (p25, p50, p75) = (self.q(0.25), self.q(0.5), self.q(0.75));
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p} {v:.1}"),
            None => "tail n/a".to_string(),
        };
        format!("n={n} p50 {p50:.1} [{p25:.1}, {p75:.1}] {tail} {unit}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let mut s = Sample::default();
        for i in 0..1000 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail().map(|t| t.0), Some(99));
        let mut small = Sample::default();
        for i in 0..50 {
            small.push(f64::from(i));
        }
        assert_eq!(small.tail().map(|t| t.0), Some(50));
    }
}
