//! The machine's speed, measured through a run with fixed reference
//! kernels.
//!
//! On a shared host the same code runs at different speeds from one minute
//! to the next: the other tenants of the host slow every instruction, with
//! no steal time and no change in the process's CPU time. The same
//! `olap-scan` seed ran at 38, 49 and 42 operations per second in three
//! back-to-back runs. The reference is fixed work that uses none of the
//! engine's code, in two parts: a core part (a pointer chase over 128 KiB,
//! a hash over 64 KiB and a sort of 2k keys, all inside the core's own
//! caches) and a cache part (a sum over 4 MiB, twice the core's L2, so it
//! reads from the cache the host's cores share). Each part runs once
//! untimed, to bring its data back after the workload's last operation
//! evicted it, and once timed. They run between the workload's operations,
//! about every [`PERIOD_S`], on the workload's own CPU. The slowdown of a
//! sample is the geometric mean of each part's time over its nominal time;
//! the gated figures divide latencies by the slowdown and multiply rates by
//! it, and the report line carries the raw figures next to them.

use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// Milliseconds the core part takes at nominal speed: its median on an
/// idle 2-vCPU Intel Xeon (2.0 GHz). With [`NOMINAL_CACHE_MS`] only a
/// scale: figures taken at these speeds read the same calibrated as raw.
pub const NOMINAL_CORE_MS: f64 = 0.28;

/// Milliseconds the cache part takes at nominal speed, on the same machine.
pub const NOMINAL_CACHE_MS: f64 = 0.33;

/// Seconds between reference samples in a window.
pub const PERIOD_S: f64 = 0.1;

const CHASE_SLOTS: usize = 1 << 15;
const CHASE_STEPS: usize = 1 << 15;
const HASH_BYTES: usize = 64 << 10;
const SORT_KEYS: usize = 2_048;
const SUM_WORDS: usize = 1 << 19;

/// One timing of the reference: each part's milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub core_ms: f64,
    pub cache_ms: f64,
}

impl Sample {
    /// The geometric mean of each part's time over its nominal time.
    pub fn slowdown(&self) -> f64 {
        (self.core_ms / NOMINAL_CORE_MS * self.cache_ms / NOMINAL_CACHE_MS).sqrt()
    }
}

/// The reference kernels' inputs, fixed: they do not depend on the seed.
pub struct Reference {
    next: Vec<u32>,
    bytes: Vec<u8>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    words: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = Rng::new(0x5eed);
        // One cycle through every slot (Sattolo's shuffle), so the chase
        // never settles into a short loop.
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = rng.below(i as u64) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0u32; CHASE_SLOTS];
        for w in 0..CHASE_SLOTS {
            next[order[w] as usize] = order[(w + 1) % CHASE_SLOTS];
        }
        Reference {
            next,
            bytes: (0..HASH_BYTES).map(|_| rng.next_u64() as u8).collect(),
            keys: (0..SORT_KEYS).map(|_| rng.next_u64()).collect(),
            scratch: Vec::with_capacity(SORT_KEYS),
            words: (0..SUM_WORDS).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Run each part twice; the second runs' milliseconds.
    pub fn sample(&mut self) -> Sample {
        self.core();
        let start = Instant::now();
        self.core();
        let core_ms = start.elapsed().as_secs_f64() * 1e3;
        self.cache();
        let start = Instant::now();
        self.cache();
        let cache_ms = start.elapsed().as_secs_f64() * 1e3;
        Sample { core_ms, cache_ms }
    }

    fn core(&mut self) {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in black_box(&self.bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        black_box((at, h, self.scratch[SORT_KEYS / 2]));
    }

    fn cache(&self) {
        let sum = black_box(&self.words)
            .iter()
            .fold(0u64, |a, &w| a.wrapping_add(w));
        black_box(sum);
    }
}

/// Reference samples taken through a window. The default takes none.
#[derive(Default)]
pub struct Calibration {
    reference: Option<Reference>,
    timed_from: Option<Instant>,
    next_s: f64,
    /// Seconds into the window, and the sample taken then.
    samples: Vec<(f64, Sample)>,
}

impl Calibration {
    /// A calibration for the window that starts at `timed_from`.
    pub fn new(timed_from: Instant) -> Calibration {
        Calibration {
            reference: Some(Reference::new()),
            timed_from: Some(timed_from),
            next_s: 0.0,
            samples: Vec::new(),
        }
    }

    /// Call between operations: samples the reference when a period has
    /// passed since the last sample. Nothing happens before the window
    /// starts.
    pub fn tick(&mut self) {
        let (Some(reference), Some(timed_from)) = (&mut self.reference, self.timed_from) else {
            return;
        };
        let now = Instant::now();
        if now < timed_from {
            return;
        }
        let at = (now - timed_from).as_secs_f64();
        if at >= self.next_s {
            self.samples.push((at, reference.sample()));
            self.next_s = at + PERIOD_S;
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The slowdown over `[lo_s, hi_s)` of the window: the median of the
    /// samples' slowdowns there. A span with fewer than three samples takes
    /// the whole window's median; a window without samples reads 1.
    pub fn slowdown(&self, lo_s: f64, hi_s: f64) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= lo_s && *t < hi_s)
            .map(|(_, s)| s.slowdown())
            .collect();
        if inside.len() >= 3 {
            crate::stats::median(&inside)
        } else {
            self.median(Sample::slowdown).unwrap_or(1.0)
        }
    }

    /// The median of `f` over the window's samples.
    pub fn median(&self, f: impl Fn(&Sample) -> f64) -> Option<f64> {
        let all: Vec<f64> = self.samples.iter().map(|(_, s)| f(s)).collect();
        (!all.is_empty()).then(|| crate::stats::median(&all))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Timed;

    /// Samples at `(seconds, slowdown)`, each part slowed alike.
    fn with_samples(samples: Vec<(f64, f64)>) -> Calibration {
        let samples = samples
            .into_iter()
            .map(|(t, f)| {
                let s = Sample {
                    core_ms: f * NOMINAL_CORE_MS,
                    cache_ms: f * NOMINAL_CACHE_MS,
                };
                (t, s)
            })
            .collect();
        Calibration {
            samples,
            ..Calibration::default()
        }
    }

    #[test]
    fn slowdown_is_the_span_median() {
        let cal = with_samples(vec![
            (0.1, 2.0),
            (0.2, 2.0),
            (0.3, 9.0),
            (1.1, 1.0),
            (1.2, 1.0),
        ]);
        assert_eq!(cal.slowdown(0.0, 1.0), 2.0);
        // Two samples are too few: the whole window's median.
        assert_eq!(cal.slowdown(1.0, 2.0), 2.0);
        assert_eq!(Calibration::default().slowdown(0.0, 1.0), 1.0);
    }

    #[test]
    fn calibration_divides_latencies_and_multiplies_rates() {
        let cal = with_samples((0..200).map(|i| (i as f64 * 0.05, 2.0)).collect());
        let mut t = Timed::default();
        for i in 0..1000 {
            t.push(i as f64 / 100.0, 4.0);
        }
        let raw = t.point(0.5, None).unwrap().value;
        let calibrated = t.point(0.5, Some(&cal)).unwrap().value;
        assert_eq!((raw, calibrated), (4.0, 2.0));
        let ratio = t.rate(10.0, Some(&cal)) / t.rate(10.0, None);
        assert!((ratio - 2.0).abs() < 1e-9, "{ratio}");
    }
}
