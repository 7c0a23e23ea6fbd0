//! Order statistics over raw samples and a lock-free log-linear
//! histogram for per-probe timings (too many samples to keep raw).

use std::sync::atomic::{AtomicU64, Ordering};

/// Nearest-rank percentile `p` (0..=1) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sub-buckets per power of two: values are kept to within 1/16
/// (~6 %) of their magnitude.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

/// Concurrent histogram of `u64` samples with log-linear buckets.
pub struct Histogram {
    bins: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            bins: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((msb - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Midpoint of bucket `i`'s value range.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let msb = (i / SUB) as u32 + SUB_BITS - 1;
    let width = 1u64 << (msb - SUB_BITS);
    let lo = (SUB + i % SUB) << (msb - SUB_BITS);
    lo as f64 + width as f64 / 2.0
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.bins[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.bins.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Nearest-rank percentile `p` (0..=1), as its bucket's midpoint; 0
    /// when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        0.0
    }

    /// Clears every bucket.
    pub fn reset(&self) {
        for b in &self.bins {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, 123_456, u64::MAX / 3] {
            let mid = bucket_mid(bucket_of(v));
            assert!(
                (mid - v as f64).abs() <= v as f64 / 16.0 + 1.0,
                "{v} -> {mid}"
            );
        }
        for v in 1..5000u64 {
            assert!(bucket_of(v) >= bucket_of(v - 1));
            assert!(bucket_of(v) - bucket_of(v - 1) <= 1);
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        let h = Histogram::default();
        for x in 1..=10u64 {
            h.record(x);
        }
        assert_eq!(h.percentile(0.5), 5.0);
        assert_eq!(h.count(), 10);
    }
}
