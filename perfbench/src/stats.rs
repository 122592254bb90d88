//! Order statistics and the fixed-size sample reservoir.

use crate::rng::Rng;

/// The `q` quantile of `v` (`0 ≤ q ≤ 1`) by linear interpolation
/// between closest ranks (NumPy's default, R type 7). Sorts `v`.
/// `NaN` for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v` (sorts it).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// One completed operation's timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Wall-clock latency, microseconds.
    pub wall_us: f64,
    /// Completion time on the virtual clock, milliseconds.
    pub fct_ms: f64,
}

/// Uniform sample of every completed operation (Vitter's Algorithm R)
/// in memory allocated and touched up front: the harness's resident
/// size does not grow with the number of operations a run completes,
/// so `peak_rss_mib` does not reward a slower program. Runs shorter
/// than the capacity keep every sample, in order.
#[derive(Debug)]
pub struct Reservoir {
    buf: Vec<Sample>,
    len: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    /// An empty reservoir of `cap` samples; replacement draws come
    /// from `seed`.
    pub fn new(seed: u64, cap: usize) -> Self {
        Reservoir {
            buf: vec![
                Sample {
                    wall_us: -1.0,
                    fct_ms: -1.0
                };
                cap
            ],
            len: 0,
            seen: 0,
            rng: Rng::new(seed, 0x5e5e),
        }
    }

    /// Offers one sample.
    pub fn push(&mut self, s: Sample) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = s;
            self.len += 1;
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.buf.len() {
                self.buf[j] = s;
            }
        }
    }

    /// Samples held (at most the capacity).
    pub fn samples(&self) -> &[Sample] {
        &self.buf[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn reservoir_keeps_short_runs_whole() {
        let mut r = Reservoir::new(1, 16);
        for i in 0..10 {
            r.push(Sample {
                wall_us: i as f64,
                fct_ms: 0.0,
            });
        }
        assert_eq!(r.samples().len(), 10);
        assert_eq!(r.samples()[9].wall_us, 9.0);
    }
}
