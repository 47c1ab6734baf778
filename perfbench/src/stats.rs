//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is computed here from the
//! per-operation samples it kept, never from a bucketed histogram.

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by the nearest-rank
/// rule: the smallest sample such that at least `q * n` samples are at or
/// below it. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median of `samples` (nearest rank), or 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Samples strictly above the nearest rank of percentile `p` among `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - ((p as f64 / 100.0 * n as f64).ceil() as usize).min(n)
}

/// A workload's tail latency: a percentile fixed per workload, chosen to
/// leave at least ten samples beyond it at the sample count a run
/// reaches, so every run reports the same percentile.
pub struct Tail {
    pub p: u32,
    pub value: f64,
    pub n: usize,
}

impl Tail {
    /// Percentile `p` of `samples` (0 for an empty slice).
    pub fn of(samples: &[f64], p: u32) -> Tail {
        Tail {
            p,
            value: quantile(samples, p as f64 / 100.0).unwrap_or(0.0),
            n: samples.len(),
        }
    }

    /// `p95; n=331, 16 beyond`, flagged when fewer than ten lie beyond.
    pub fn note(&self) -> String {
        let beyond = beyond(self.n, self.p);
        let flag = if beyond < 10 {
            " (fewer than 10 beyond)"
        } else {
            ""
        };
        format!("p{}; n={}, {beyond} beyond{flag}", self.p, self.n)
    }
}

/// Arithmetic mean, or 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force: the smallest sample `x` with `#{s <= x} >= q * n`.
    fn brute(samples: &[f64], q: f64) -> f64 {
        let n = samples.len() as f64;
        let mut best = f64::INFINITY;
        for &x in samples {
            let at_or_below = samples.iter().filter(|&&s| s <= x).count() as f64;
            if at_or_below >= q * n - 1e-9 && x < best {
                best = x;
            }
        }
        best
    }

    #[test]
    fn quantile_matches_brute_force() {
        let mut state = 7u64;
        for n in 1..60usize {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 50) as f64 / 7.0
                })
                .collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
                let got = quantile(&samples, q).unwrap();
                let want = if q == 0.0 {
                    samples.iter().copied().fold(f64::INFINITY, f64::min)
                } else {
                    brute(&samples, q)
                };
                assert_eq!(got, want, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn quantile_of_nothing_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_counts_the_samples_beyond_its_rank() {
        assert_eq!(beyond(200, 95), 10);
        assert_eq!(beyond(72, 75), 18);
        assert_eq!(beyond(3, 100), 0);
        assert_eq!(beyond(0, 50), 0);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Tail::of(&samples, 95);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.note(), "p95; n=200, 10 beyond");
        assert!(Tail::of(&samples[..50], 95)
            .note()
            .ends_with("(fewer than 10 beyond)"));
    }
}
