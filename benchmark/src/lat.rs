//! Exact latency samples and the slice-median summary every end-to-end
//! metric is computed from. `labflow_core::LatencyHist` has 1.35x-wide
//! buckets, under which a 10 % change is invisible; here every sample is
//! kept as `u32` nanoseconds in a preallocated buffer and quantiles are
//! nearest-rank over the sorted samples.

use std::time::Instant;

/// The benchmark's time base: nanoseconds since the run began.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One completed operation (or, on `build-2x`, one lab tick of `ops`
/// workflow steps whose latency is the tick's mean step time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Completion time on the run's [`Clock`].
    pub done_ns: u64,
    /// Client-observed latency; saturates at `u32::MAX` (4.29 s).
    pub lat_ns: u32,
    /// Operations this sample stands for.
    pub ops: u32,
}

/// One client thread's samples.
pub struct Recorder {
    samples: Vec<Sample>,
}

impl Recorder {
    /// Room for `cap` samples without reallocating inside the timed loop.
    pub fn with_capacity(cap: usize) -> Recorder {
        Recorder {
            samples: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn record(&mut self, done_ns: u64, lat_ns: u64, ops: u32) {
        let lat_ns = u32::try_from(lat_ns).unwrap_or(u32::MAX);
        self.samples.push(Sample {
            done_ns,
            lat_ns,
            ops,
        });
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// Nearest-rank quantile of ascending `sorted` (`0 < q <= 1`): the
/// smallest sample with at least `q` of the samples at or below it.
pub fn quantile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile of unsorted latencies, in microseconds.
pub fn quantile_us(lat_ns: &mut [u32], q: f64) -> f64 {
    lat_ns.sort_unstable();
    f64::from(quantile(lat_ns, q)) / 1e3
}

/// The middle value; the mean of the two middle values of an even count.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Number of equal-count slices a measured phase is cut into.
pub const SLICES: usize = 5;
/// A slice needs this many samples for its own p99 (ten beyond it).
const P99_MIN_SAMPLES: usize = 1000;

/// The measured phase, summarised.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Median over the slices of operations per wall-clock second.
    pub ops_per_s: f64,

    /// Median over the slices of the slice's median latency.
    pub p50_us: f64,
    /// Median over the slices of the slice's 99th percentile; taken over
    /// the whole phase instead when a slice has under 1,000 samples.
    pub p99_us: f64,
    /// Samples beyond the reported p99 in the unit it was taken over.
    pub p99_beyond: usize,
    pub samples: usize,
    pub ops: u64,
    /// First measured instant to last completion.
    pub elapsed_s: f64,
    pub slice_ops_per_s: Vec<f64>,
}

/// Summarise the samples of all client threads of one phase that began
/// at `start_ns`. Each metric is the median over [`SLICES`] slices of
/// equal sample count in completion order, so one noisy-neighbour burst
/// moves one slice and not the result.
pub fn summarize(recorders: &[Recorder], start_ns: u64) -> Summary {
    let mut all: Vec<Sample> = recorders
        .iter()
        .flat_map(|r| r.samples().iter().copied())
        .collect();
    all.sort_by_key(|s| s.done_ns);
    let n = all.len();
    let slices = if n >= SLICES { SLICES } else { 1 };
    let mut rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut min_slice = usize::MAX;
    for i in 0..slices {
        let (a, b) = (i * n / slices, (i + 1) * n / slices);
        let Some(slice) = all.get(a..b).filter(|s| !s.is_empty()) else {
            continue;
        };
        let from = if a == 0 { start_ns } else { all[a - 1].done_ns };
        let dur_s = all[b - 1].done_ns.saturating_sub(from).max(1) as f64 / 1e9;
        let ops: u64 = slice.iter().map(|s| u64::from(s.ops)).sum();
        rate.push(ops as f64 / dur_s);
        let mut lat: Vec<u32> = slice.iter().map(|s| s.lat_ns).collect();
        p50.push(quantile_us(&mut lat, 0.50));
        p99.push(f64::from(quantile(&lat, 0.99)) / 1e3);
        min_slice = min_slice.min(slice.len());
    }
    if rate.is_empty() {
        return Summary::default();
    }
    let (p99_us, p99_unit) = if min_slice >= P99_MIN_SAMPLES {
        (median(p99), min_slice)
    } else {
        let mut lat: Vec<u32> = all.iter().map(|s| s.lat_ns).collect();
        (quantile_us(&mut lat, 0.99), n)
    };
    let ops: u64 = all.iter().map(|s| u64::from(s.ops)).sum();
    let elapsed_s = all[n - 1].done_ns.saturating_sub(start_ns).max(1) as f64 / 1e9;
    Summary {
        ops_per_s: median(rate.clone()),
        p50_us: median(p50),
        p99_us,
        p99_beyond: p99_unit - (0.99 * p99_unit as f64).ceil() as usize,
        samples: n,
        ops,
        elapsed_s,
        slice_ops_per_s: rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The textbook definition, computed the slow way.
    fn reference_quantile(samples: &[u32], q: f64) -> u32 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        *s.iter()
            .find(|&&x| s.iter().filter(|&&y| y <= x).count() as f64 >= q * s.len() as f64)
            .unwrap()
    }

    #[test]
    fn quantile_matches_sorted_reference() {
        let mut rng = Rng::stream(11, 0);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<u32> = (0..n).map(|_| rng.below(5000) as u32).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    quantile(&sorted, q),
                    reference_quantile(&samples, q),
                    "n={n} q={q}"
                );
            }
        }
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn recorder_is_exact_and_saturates() {
        let mut r = Recorder::with_capacity(4);
        r.record(10, 1234, 1);
        r.record(20, u64::from(u32::MAX) + 5, 3);
        assert_eq!(
            r.samples()[0],
            Sample {
                done_ns: 10,
                lat_ns: 1234,
                ops: 1
            }
        );
        assert_eq!(r.samples()[1].lat_ns, u32::MAX);
    }

    #[test]
    fn a_burst_in_one_slice_does_not_move_the_medians() {
        // 5,000 ops, one per microsecond at 2 us latency, from two threads;
        // the fourth fifth of the run stalls: 10x the gap and the latency.
        let mut recs = [Recorder::with_capacity(5000), Recorder::with_capacity(5000)];
        let mut t = 1_000_000u64;
        for i in 0..5000usize {
            let slow = (3000..4000).contains(&i);
            t += if slow { 10_000 } else { 1_000 };
            recs[i % 2].record(t, if slow { 20_000 } else { 2_000 }, 1);
        }
        let s = summarize(&recs, 1_000_000);
        assert_eq!(s.samples, 5000);
        assert_eq!(s.ops, 5000);
        assert!((s.ops_per_s - 1e6).abs() < 1.0, "{}", s.ops_per_s);
        assert_eq!(s.p50_us, 2.0);
        assert_eq!(s.p99_us, 2.0);
        assert_eq!(s.p99_beyond, 10);
        assert!((s.slice_ops_per_s[3] - 1e5).abs() < 1.0);
        assert!((s.elapsed_s - 0.014).abs() < 1e-9);
    }

    #[test]
    fn small_phases_take_the_tail_over_the_whole_phase() {
        let mut rec = Recorder::with_capacity(100);
        for i in 0..100u64 {
            rec.record(i * 1000 + 1000, if i == 57 { 9_000 } else { 1_000 }, 4);
        }
        let s = summarize(&[rec], 0);
        assert_eq!(s.p99_us, 1.0);
        assert_eq!(s.p99_beyond, 1);
        assert_eq!(s.ops, 400);
        assert!((s.ops_per_s - 4e6).abs() < 1.0);
        assert_eq!(summarize(&[], 0).samples, 0);
    }
}
