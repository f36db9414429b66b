//! Exact order statistics over raw samples kept by the benchmark, and the
//! error tally that feeds `error_rate`.

/// Median (mean of the two middle samples for an even count); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least [`Tail::BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile (an observed value, never above the
    /// maximum).
    pub value: f64,
    /// Which percentile it is, in percent.
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

impl Tail {
    pub const BEYOND: usize = 10;

    /// The `BEYOND + 1`-th largest sample, which has `BEYOND` samples
    /// above it; with at most `BEYOND` samples, the maximum.
    pub fn of(samples: &[f64]) -> Tail {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let beyond = if n > Self::BEYOND { Self::BEYOND } else { 0 };
        Tail {
            value: if n == 0 { 0.0 } else { v[n - beyond - 1] },
            percentile: if n == 0 {
                0.0
            } else {
                100.0 * (n - beyond) as f64 / n as f64
            },
            samples: n,
        }
    }
}

/// Attempted and failed operations; every failure is a wrong verdict, a
/// rejected certificate, a non-distinguishing counterexample, an engine
/// or transport error, or an abandoned request.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the run's detail line.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_never_exceeds_the_max() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.samples, 200);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let few = Tail::of(&[5.0, 7.0, 6.0]);
        assert_eq!(few.value, 7.0);
        assert!(Tail::of(&[43_079.0; 50]).value <= 43_079.0);
    }
}
