//! Order statistics for timing samples.

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A timing summary: the median plus the tail, the highest percentile
/// that still has at least ten samples beyond it (the maximum when the
/// sample is too small for any).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is; 100 means the maximum.
    pub tail_pct: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                count: 0,
                p50: f64::NAN,
                tail: f64::NAN,
                tail_pct: f64::NAN,
            };
        }
        // Exactly ten samples lie beyond the (1 - 10/n) quantile; below
        // 20 samples that would fall under the median, so take the maximum.
        let tail_pct = if n >= 20 {
            100.0 * (1.0 - 10.0 / n as f64)
        } else {
            100.0
        };
        Summary {
            count: n,
            p50: percentile_sorted(&sorted, 50.0),
            tail: percentile_sorted(&sorted, tail_pct),
            tail_pct,
        }
    }

    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{:.2} {:.4} {unit} (n={})",
            self.p50, self.tail_pct, self.tail, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(samples.iter().filter(|&&x| x > s.tail).count(), 10);
        let small: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(Summary::of(&small).tail_pct, 100.0);
        assert_eq!(Summary::of(&small).tail, 14.0);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
