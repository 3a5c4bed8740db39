//! Latency series, percentiles and the sample rule.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it; every reported percentile carries its sample count.

use backbone_server::json::Json;

use crate::calib::Calibration;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A set of latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Series {
    samples: Vec<f64>,
    sorted: bool,
}

impl Series {
    pub fn with_capacity(n: usize) -> Series {
        Series {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn push(&mut self, ms: f64) {
        self.samples.push(ms);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Series) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile, `q` in (0, 1]. Panics on an empty series.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.samples.is_empty(), "quantile of an empty series");
        self.sort();
        self.samples[rank(self.samples.len(), q) - 1]
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// A reported percentile and the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub q: f64,
    pub value: f64,
    /// Samples in all.
    pub n: usize,
    /// Samples beyond the percentile.
    pub beyond: usize,
}

impl Point {
    pub fn to_json(&self) -> Json {
        crate::obj([
            ("q", Json::Float(self.q)),
            ("value", Json::Float(self.value)),
            ("n", Json::Int(self.n as i64)),
            ("beyond", Json::Int(self.beyond as i64)),
        ])
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Equal slices of the timed window. `ops_per_s` is the interquartile
/// mean of the slices' rates: a disturbance that lasts a slice falls
/// outside the middle half.
pub const SLICES: usize = 20;

/// Timed operations: start (seconds into the window) and latency (ms).
#[derive(Debug, Default, Clone)]
pub struct Timed {
    ops: Vec<(f64, f64)>,
}

impl Timed {
    pub fn push(&mut self, start_s: f64, ms: f64) {
        self.ops.push((start_s, ms));
    }

    pub fn extend(&mut self, other: &Timed) {
        self.ops.extend_from_slice(&other.ops);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Every latency in one series, each divided by the slowdown of the
    /// second of the window it started in when a calibration is given.
    pub fn series(&self, cal: Option<&Calibration>) -> Series {
        let per_second: Vec<f64> = match cal {
            Some(cal) => {
                let seconds = self
                    .ops
                    .iter()
                    .map(|&(t, _)| t as usize + 1)
                    .max()
                    .unwrap_or(0);
                (0..seconds)
                    .map(|i| cal.slowdown(i as f64, (i + 1) as f64))
                    .collect()
            }
            None => Vec::new(),
        };
        let mut s = Series::with_capacity(self.ops.len());
        for &(start, ms) in &self.ops {
            s.push(ms / per_second.get(start as usize).copied().unwrap_or(1.0));
        }
        s
    }

    /// Operations per second: the interquartile mean over the slices. An operation
    /// counts in each slice it overlaps, in proportion to the overlap. With
    /// a calibration, each slice's rate is multiplied by its slowdown.
    pub fn rate(&self, window_s: f64, cal: Option<&Calibration>) -> f64 {
        let width = window_s / SLICES as f64;
        let mut ops = [0.0; SLICES];
        for &(start, ms) in &self.ops {
            let end = start + ms / 1e3;
            let len = (end - start).max(f64::MIN_POSITIVE);
            let first = (start / width) as usize;
            let last = ((end / width) as usize).min(SLICES - 1);
            for (i, n) in ops.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = start.max(i as f64 * width);
                let hi = end.min((i + 1) as f64 * width);
                *n += (hi - lo).max(0.0) / len;
            }
        }
        let rates: Vec<f64> = ops
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let f = cal.map_or(1.0, |c| {
                    c.slowdown(i as f64 * width, (i + 1) as f64 * width)
                });
                n / width * f
            })
            .collect();
        interquartile_mean(&rates)
    }

    /// Percentile `q` of the whole window's latencies, calibrated as in
    /// [`Timed::series`]. A tail percentile (`q > 0.5`) needs at least
    /// [`MIN_BEYOND`] samples beyond it; otherwise the run has too few
    /// samples and there is no value.
    pub fn point(&self, q: f64, cal: Option<&Calibration>) -> Result<Point, String> {
        let n = self.len();
        let beyond = beyond(n, q);
        if n == 0 || (q > 0.5 && beyond < MIN_BEYOND) {
            return Err(format!(
                "p{} of {n} samples: {beyond} beyond it, {MIN_BEYOND} needed",
                q * 100.0
            ));
        }
        Ok(Point {
            q,
            value: self.series(cal).quantile(q),
            n,
            beyond,
        })
    }
}

/// Mean of the middle half of `values` (the interquartile mean).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median of a small set of values (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_beyond() {
        let mut s = Series::default();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.5), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
    }

    #[test]
    fn tails_need_ten_beyond() {
        let mut t = Timed::default();
        for i in 0..1000 {
            t.push(i as f64 / 100.0, (i % 100) as f64);
        }
        let p90 = t.point(0.9, None).expect("p90 has 100 beyond");
        assert_eq!((p90.value, p90.beyond), (89.0, 100));
        assert!(t.point(0.995, None).is_err(), "5 beyond");
        assert!(Timed::default().point(0.5, None).is_err(), "no samples");
    }
}
