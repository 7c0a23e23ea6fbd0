//! Incremental PLL: re-score only what changed between windows.
//!
//! Within one plan epoch every window observes the same probe paths, so
//! the expensive part of [`localize`](super::localize) — resolving each
//! observation through the probe matrix and building the link → paths
//! index — produces the same skeleton window after window.
//! [`IncrementalPll`] caches that skeleton, keyed on the pre-processed
//! observation id vector, and per window only:
//!
//! 1. diffs the per-path *lossy* flags against the previous window and
//!    patches the per-link lossy counters for the links whose paths
//!    flipped (`O(flipped paths × path length)`);
//! 2. rebuilds the candidate list and hit ratios from those counters
//!    (`O(links)` integer scans — no per-path work);
//! 3. reruns the cheap greedy cover against the cached index.
//!
//! A window whose pre-processed observations are *identical* to the
//! previous one short-circuits to the cached verdict. Anything that can
//! change the skeleton falls back to a full rebuild: a different
//! observation id set, a different link count, or an explicit
//! [`invalidate`](IncrementalPll::invalidate) (the diagnoser calls it
//! whenever a new probe matrix is installed — plan epoch changes and
//! cycle refreshes).
//!
//! It is the diagnoser's only localizer; plain [`localize`](super::localize)
//! stays the oracle. Equivalence is by construction — the candidate
//! order, hit ratios and greedy are the same computations over the same
//! data — and is property-tested here over random matrices and in
//! `tests/diagnoser_properties.rs` over real controller re-plans.

use std::collections::HashSet;

use super::pll_impl::{greedy, Diagnosis, ObservedMatrix};
use super::{preprocess, PllConfig};
use crate::pmc::ProbeMatrix;
use crate::types::{LinkId, PathId, PathObservation};

/// Cached cross-window PLL state. One instance per diagnoser; feed it
/// every window in order and [`invalidate`](IncrementalPll::invalidate)
/// it on matrix changes.
#[derive(Debug, Default)]
pub struct IncrementalPll {
    /// Cached skeleton is usable (set after a full rebuild, cleared by
    /// [`invalidate`](IncrementalPll::invalidate)).
    valid: bool,
    /// Pre-processed observation ids the skeleton was built for.
    path_ids: Vec<PathId>,
    /// Link → indices into the observation vector.
    link_paths: Vec<Vec<u32>>,
    /// Previous window's pre-processed observations.
    obs: Vec<PathObservation>,
    /// Previous window's per-observation lossy flags.
    lossy: Vec<bool>,
    /// Per-link count of lossy observed paths (hit-ratio numerators).
    lossy_count: Vec<u32>,
    /// Previous window's verdict (for the unchanged-window shortcut).
    verdict: Diagnosis,
    full_rebuilds: u64,
    patched_windows: u64,
    reused_verdicts: u64,
}

impl IncrementalPll {
    /// Fresh, empty state: the first window always rebuilds fully.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached skeleton. Call whenever the probe matrix the
    /// observations are resolved against changes (plan epoch change,
    /// cycle refresh): path ids may be reused with different link sets,
    /// which the id-vector key alone cannot detect.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Windows that rebuilt the skeleton from scratch.
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Windows that patched the cached skeleton.
    pub fn patched_windows(&self) -> u64 {
        self.patched_windows
    }

    /// Windows that returned the cached verdict unchanged.
    pub fn reused_verdicts(&self) -> u64 {
        self.reused_verdicts
    }

    /// Localizes one window, reusing the cached skeleton when the
    /// observation set allows it. Produces exactly what
    /// [`localize`](super::localize) would for the same inputs.
    pub fn localize(
        &mut self,
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
        cfg: &PllConfig,
    ) -> Diagnosis {
        let obs = preprocess(observations, cfg, &HashSet::new());
        let reusable = self.valid
            && self.link_paths.len() == matrix.num_links
            && self.path_ids.len() == obs.len()
            && self.path_ids.iter().zip(&obs).all(|(p, o)| *p == o.path);
        if !reusable {
            self.rebuild(matrix, obs, cfg);
            return self.verdict.clone();
        }
        if self.obs == obs {
            self.reused_verdicts += 1;
            return self.verdict.clone();
        }

        // Patch: flip the lossy counters of links on paths whose lossy
        // flag changed since the previous window.
        for (i, o) in obs.iter().enumerate() {
            let was = self.lossy[i];
            let is = o.is_lossy();
            if was == is {
                continue;
            }
            self.lossy[i] = is;
            let Some(path) = matrix.path(o.path) else {
                continue;
            };
            for l in path.links() {
                if is {
                    self.lossy_count[l.index()] += 1;
                } else {
                    self.lossy_count[l.index()] -= 1;
                }
            }
        }
        self.obs = obs;
        self.patched_windows += 1;
        self.verdict = greedy(&self.obs, &self.link_paths, &self.hit(), cfg);
        self.verdict.clone()
    }

    /// Candidate links with hit ratios, in ascending link order — the
    /// exact list `ObservedMatrix::build` + `hit_ratio` would produce.
    fn hit(&self) -> Vec<(LinkId, f64)> {
        self.lossy_count
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(li, &c)| {
                let l = LinkId(li as u32);
                (l, c as f64 / self.link_paths[li].len() as f64)
            })
            .collect()
    }

    fn rebuild(&mut self, matrix: &ProbeMatrix, obs: Vec<PathObservation>, cfg: &PllConfig) {
        // `obs` is already pre-processed; build indexes it against the
        // matrix. Re-running preprocess inside build is a no-op on
        // already-normalized observations *except* that noise-normalized
        // rows (lost forced to 0) stay 0 — so feeding the pre-processed
        // vector is exact.
        let om = ObservedMatrix::build(matrix, &obs, cfg);
        self.path_ids = om.obs.iter().map(|o| o.path).collect();
        self.lossy = om.obs.iter().map(|o| o.is_lossy()).collect();
        self.lossy_count = vec![0; matrix.num_links];
        for (li, paths) in om.link_paths.iter().enumerate() {
            self.lossy_count[li] = paths
                .iter()
                .filter(|&&oi| om.obs[oi as usize].is_lossy())
                .count() as u32;
        }
        let hit: Vec<(LinkId, f64)> = om
            .candidate_links
            .iter()
            .map(|&l| (l, om.hit_ratio(l)))
            .collect();
        self.verdict = greedy(&om.obs, &om.link_paths, &hit, cfg);
        self.obs = om.obs;
        self.link_paths = om.link_paths;
        self.valid = true;
        self.full_rebuilds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::localize;
    use crate::types::ProbePath;
    use proptest::prelude::*;

    /// p0={0,1}, p1={0,2}, p2={2,3}, p3={3}, p4={1}.
    fn matrix() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
            ProbePath::from_links(2, vec![LinkId(2), LinkId(3)]),
            ProbePath::from_links(3, vec![LinkId(3)]),
            ProbePath::from_links(4, vec![LinkId(1)]),
        ];
        ProbeMatrix::from_paths(4, paths)
    }

    fn obs(rows: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        rows.iter()
            .map(|&(p, s, l)| PathObservation::new(PathId(p), s, l))
            .collect()
    }

    #[test]
    fn matches_full_pll_across_changing_windows() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut inc = IncrementalPll::new();
        let windows = vec![
            obs(&[
                (0, 100, 100),
                (1, 100, 100),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            obs(&[
                (0, 100, 0),
                (1, 100, 0),
                (2, 100, 31),
                (3, 100, 29),
                (4, 100, 0),
            ]),
            obs(&[
                (0, 100, 0),
                (1, 100, 0),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            obs(&[
                (0, 100, 30),
                (1, 100, 0),
                (2, 100, 35),
                (3, 100, 30),
                (4, 100, 25),
            ]),
        ];
        for w in &windows {
            assert_eq!(inc.localize(&m, w, &cfg), localize(&m, w, &cfg));
        }
        assert_eq!(inc.full_rebuilds(), 1);
        assert_eq!(inc.patched_windows(), 3);
    }

    #[test]
    fn identical_window_reuses_the_verdict() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut inc = IncrementalPll::new();
        let w = obs(&[
            (0, 100, 100),
            (1, 100, 100),
            (2, 100, 0),
            (3, 100, 0),
            (4, 100, 0),
        ]);
        let first = inc.localize(&m, &w, &cfg);
        let second = inc.localize(&m, &w, &cfg);
        assert_eq!(first, second);
        assert_eq!(inc.reused_verdicts(), 1);
        assert_eq!(inc.full_rebuilds(), 1);
    }

    #[test]
    fn changed_observation_set_triggers_a_rebuild() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut inc = IncrementalPll::new();
        inc.localize(&m, &obs(&[(0, 100, 0), (1, 100, 0)]), &cfg);
        // A path drops out of the window (e.g. its pinger went down).
        let w = obs(&[(0, 100, 100)]);
        assert_eq!(inc.localize(&m, &w, &cfg), localize(&m, &w, &cfg));
        assert_eq!(inc.full_rebuilds(), 2);
    }

    #[test]
    fn invalidate_forces_the_next_window_to_rebuild() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut inc = IncrementalPll::new();
        let w = obs(&[
            (0, 100, 0),
            (1, 100, 0),
            (2, 100, 0),
            (3, 100, 0),
            (4, 100, 0),
        ]);
        inc.localize(&m, &w, &cfg);
        inc.invalidate();
        inc.localize(&m, &w, &cfg);
        assert_eq!(inc.full_rebuilds(), 2);
        assert_eq!(inc.patched_windows(), 0);
    }

    #[test]
    fn noise_normalized_windows_stay_equivalent() {
        // A window where preprocess rewrites losses (below the noise
        // thresholds) still patches and matches full PLL.
        let m = matrix();
        let cfg = PllConfig {
            min_loss_count: 3,
            ..PllConfig::default()
        };
        let mut inc = IncrementalPll::new();
        let w1 = obs(&[
            (0, 100, 100),
            (1, 100, 100),
            (2, 100, 0),
            (3, 100, 0),
            (4, 100, 0),
        ]);
        let w2 = obs(&[
            (0, 100, 2),
            (1, 100, 1),
            (2, 100, 0),
            (3, 100, 0),
            (4, 100, 0),
        ]);
        assert_eq!(inc.localize(&m, &w1, &cfg), localize(&m, &w1, &cfg));
        assert_eq!(inc.localize(&m, &w2, &cfg), localize(&m, &w2, &cfg));
        assert_eq!(inc.patched_windows(), 1);
    }

    #[test]
    fn unresolvable_lossy_paths_stay_unexplained() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut inc = IncrementalPll::new();
        let w = obs(&[(0, 100, 100), (1, 100, 100), (99, 100, 100)]);
        let d = inc.localize(&m, &w, &cfg);
        assert_eq!(d, localize(&m, &w, &cfg));
        assert_eq!(d.unexplained_paths, vec![PathId(99)]);
    }

    #[test]
    fn all_healthy_window_patches_without_rebuilding() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut inc = IncrementalPll::new();
        let lossy = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 0)]);
        let clean = obs(&[(0, 100, 0), (1, 100, 0), (2, 100, 0)]);
        inc.localize(&m, &lossy, &cfg);
        let d = inc.localize(&m, &clean, &cfg);
        assert!(d.is_clean());
        assert_eq!(d, localize(&m, &clean, &cfg));
        assert_eq!(inc.full_rebuilds(), 1);
        assert_eq!(inc.patched_windows(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random 12-link matrices under multi-window biased-random
        /// loss, in both greedy orders: every window equals `localize`,
        /// with the skeleton reused across the windows of one run (the
        /// observed id set changes only when a window is shorter).
        #[test]
        fn matches_localize_across_random_windows(
            paths in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..4), 4..12),
            windows in proptest::collection::vec(proptest::collection::vec(0u64..3, 4..12), 1..6),
            consistent in 0u32..2,
        ) {
            let probe_paths: Vec<ProbePath> = paths
                .iter()
                .enumerate()
                .map(|(i, ls)| {
                    let mut ls: Vec<LinkId> = ls.iter().map(|&l| LinkId(l)).collect();
                    ls.sort_unstable();
                    ls.dedup();
                    ProbePath::from_links(i as u32, ls)
                })
                .collect();
            let m = ProbeMatrix::from_paths(12, probe_paths);
            let cfg = if consistent == 1 {
                PllConfig::default().consistency_first()
            } else {
                PllConfig::default()
            };
            let mut inc = IncrementalPll::new();
            for w in &windows {
                let window: Vec<PathObservation> = w
                    .iter()
                    .take(paths.len())
                    .enumerate()
                    .map(|(i, &sev)| PathObservation::new(PathId(i as u32), 100, sev * 40))
                    .collect();
                prop_assert_eq!(inc.localize(&m, &window, &cfg), localize(&m, &window, &cfg));
            }
        }
    }
}
