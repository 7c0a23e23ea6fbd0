//! Synthetic pinger-report streams with bursty loss.
//!
//! The diagnoser's report fold is sized for *report* arrival rates, not
//! probe rates, so its benchmarks need a generator that produces
//! realistic per-window `(path, sent, lost)` entry streams without
//! simulating any packets. Loss in data centers is bursty — a failing
//! link stays bad for minutes, not one window (§2 of the paper) — which
//! is exactly the regime the incremental localizer exploits: the lossy
//! set is small and mostly stable between windows. [`BurstLossReports`] reproduces that shape:
//!
//! * a fraction of the path space is lossy at any time, in **bursts**
//!   lasting a configurable number of windows;
//! * which paths burst changes at each burst boundary (deterministic in
//!   the seed), so consecutive windows inside a burst patch cheaply
//!   while boundary windows exercise the re-score path;
//! * everything is a pure function of `(seed, window)` — no RNG state,
//!   no allocation surprises, bit-identical streams for the same
//!   parameters.

use detector_core::types::PathId;

/// Deterministic generator of per-window report entry streams with
/// Gilbert–Elliott-style bursty loss.
#[derive(Clone, Copy, Debug)]
pub struct BurstLossReports {
    /// Size of the path-id space (entries use `PathId(0..paths)`).
    pub paths: u32,
    /// Reports (pingers) per window; the path space is striped across
    /// them so every path appears in exactly one report per window.
    pub reports_per_window: u32,
    /// Probes sent per path per window.
    pub probes_per_path: u64,
    /// Fraction of paths lossy at any time (0..=1).
    pub lossy_fraction: f64,
    /// Windows a burst lasts before the lossy set is redrawn.
    pub burst_windows: u64,
    /// Seeds the burst membership and loss intensities.
    pub seed: u64,
}

impl Default for BurstLossReports {
    fn default() -> Self {
        Self {
            paths: 1024,
            reports_per_window: 16,
            probes_per_path: 30,
            lossy_fraction: 0.02,
            burst_windows: 8,
            seed: 0xB0257,
        }
    }
}

/// SplitMix64: a cheap avalanche hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BurstLossReports {
    /// The burst index `window` falls in.
    fn burst_of(&self, window: u64) -> u64 {
        window / self.burst_windows.max(1)
    }

    /// Whether `path` is lossy in `window`, stable across the whole
    /// burst.
    pub fn is_lossy(&self, window: u64, path: PathId) -> bool {
        let h = mix(self.seed ^ mix(self.burst_of(window)) ^ u64::from(path.0));
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.lossy_fraction
    }

    /// The `(path, sent, lost)` entries of one report. Report `r` of a
    /// window carries the paths congruent to `r` modulo
    /// [`reports_per_window`](Self::reports_per_window). A lossy path
    /// loses a burst-stable fraction of its probes (at least one).
    pub fn report_entries(&self, window: u64, report: u32) -> Vec<(PathId, u64, u64)> {
        let stripe = self.reports_per_window.max(1);
        let mut entries = Vec::with_capacity((self.paths / stripe + 1) as usize);
        let mut p = report % stripe;
        while p < self.paths {
            let path = PathId(p);
            let lost = if self.is_lossy(window, path) {
                // Loss intensity is burst-stable too: severity in
                // 1..=probes (a full outage when the draw saturates).
                let h = mix(self.seed ^ mix(self.burst_of(window)).rotate_left(17) ^ u64::from(p));
                1 + h % self.probes_per_path.max(1)
            } else {
                0
            };
            entries.push((path, self.probes_per_path, lost));
            p += stripe;
        }
        entries
    }

    /// All reports of one window, in report order.
    pub fn window_reports(&self, window: u64) -> Vec<Vec<(PathId, u64, u64)>> {
        (0..self.reports_per_window.max(1))
            .map(|r| self.report_entries(window, r))
            .collect()
    }

    /// Number of distinct lossy paths in a window.
    pub fn lossy_paths(&self, window: u64) -> usize {
        (0..self.paths)
            .filter(|&p| self.is_lossy(window, PathId(p)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let g = BurstLossReports::default();
        assert_eq!(g.window_reports(3), g.window_reports(3));
        assert_eq!(g.report_entries(7, 2), g.report_entries(7, 2));
    }

    #[test]
    fn every_path_appears_exactly_once_per_window() {
        let g = BurstLossReports {
            paths: 100,
            reports_per_window: 7,
            ..Default::default()
        };
        let mut seen: Vec<u32> = g
            .window_reports(0)
            .into_iter()
            .flatten()
            .map(|(p, _, _)| p.0)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn loss_is_burst_stable_and_changes_at_boundaries() {
        let g = BurstLossReports {
            paths: 2048,
            lossy_fraction: 0.05,
            burst_windows: 4,
            ..Default::default()
        };
        // Same burst ⇒ identical lossy set.
        let in_burst: Vec<bool> = (0..g.paths).map(|p| g.is_lossy(0, PathId(p))).collect();
        for w in 1..4 {
            let again: Vec<bool> = (0..g.paths).map(|p| g.is_lossy(w, PathId(p))).collect();
            assert_eq!(in_burst, again, "window {w} left its burst");
        }
        // Next burst ⇒ a different set (with overwhelming probability).
        let next: Vec<bool> = (0..g.paths).map(|p| g.is_lossy(4, PathId(p))).collect();
        assert_ne!(in_burst, next, "burst boundary must redraw the set");
    }

    #[test]
    fn lossy_fraction_is_roughly_respected() {
        let g = BurstLossReports {
            paths: 20_000,
            lossy_fraction: 0.1,
            ..Default::default()
        };
        let frac = g.lossy_paths(0) as f64 / f64::from(g.paths);
        assert!((frac - 0.1).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn lossy_entries_lose_at_least_one_probe_and_never_more_than_sent() {
        let g = BurstLossReports {
            paths: 512,
            lossy_fraction: 0.2,
            probes_per_path: 30,
            ..Default::default()
        };
        for (path, sent, lost) in g.window_reports(5).into_iter().flatten() {
            assert_eq!(sent, 30);
            assert!(lost <= sent);
            assert_eq!(lost > 0, g.is_lossy(5, path));
        }
    }
}
