//! The PLL greedy (§5.3, Steps 1–5).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use super::rate::estimate_rate;
use super::{preprocess, PllConfig};
use crate::json::{Json, ToJson};
use crate::pmc::ProbeMatrix;
use crate::types::{LinkId, PathId, PathObservation};

/// A link blamed by a localization algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuspectLink {
    /// The blamed physical link.
    pub link: LinkId,
    /// Estimated loss rate on the link (MLE under the assumption that the
    /// losses of the paths this link explains happened on this link).
    pub estimated_loss_rate: f64,
    /// Hit ratio of the link at selection time: lossy observed paths
    /// through the link / all observed paths through the link.
    pub hit_ratio: f64,
    /// Number of lossy paths this link explained.
    pub explained_paths: u32,
    /// Number of lost packets this link explained.
    pub explained_losses: u64,
}

/// Result of a localization run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Blamed links in selection order (first = strongest explanation).
    pub suspects: Vec<SuspectLink>,
    /// Lossy paths whose losses no suspect link explains (e.g. all their
    /// links stayed below the hit-ratio threshold).
    pub unexplained_paths: Vec<PathId>,
}

impl Diagnosis {
    /// Blamed link ids, sorted.
    pub fn suspect_links(&self) -> Vec<LinkId> {
        let mut v: Vec<LinkId> = self.suspects.iter().map(|s| s.link).collect();
        v.sort_unstable();
        v
    }

    /// True if nothing was blamed and nothing was left unexplained.
    pub fn is_clean(&self) -> bool {
        self.suspects.is_empty() && self.unexplained_paths.is_empty()
    }

    /// Rebuilds a diagnosis from its [`ToJson`] representation.
    pub fn from_json(v: &Json) -> Option<Diagnosis> {
        let suspects = v
            .get("suspects")?
            .as_array()?
            .iter()
            .map(SuspectLink::from_json)
            .collect::<Option<Vec<_>>>()?;
        let unexplained_paths = v
            .get("unexplained_paths")?
            .as_array()?
            .iter()
            .map(|p| p.as_u32().map(PathId))
            .collect::<Option<Vec<_>>>()?;
        Some(Diagnosis {
            suspects,
            unexplained_paths,
        })
    }
}

impl ToJson for Diagnosis {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "suspects",
                Json::Array(self.suspects.iter().map(ToJson::to_json).collect()),
            ),
            (
                "unexplained_paths",
                Json::Array(
                    self.unexplained_paths
                        .iter()
                        .map(|p| Json::uint(p.0 as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

impl SuspectLink {
    /// Rebuilds a suspect from its [`ToJson`] representation.
    pub fn from_json(v: &Json) -> Option<SuspectLink> {
        Some(SuspectLink {
            link: LinkId(v.get("link")?.as_u32()?),
            estimated_loss_rate: v.get("estimated_loss_rate")?.as_f64()?,
            hit_ratio: v.get("hit_ratio")?.as_f64()?,
            explained_paths: v.get("explained_paths")?.as_u32()?,
            explained_losses: v.get("explained_losses")?.as_u64()?,
        })
    }
}

impl ToJson for SuspectLink {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("link", Json::uint(self.link.0 as u64)),
            ("estimated_loss_rate", Json::Float(self.estimated_loss_rate)),
            ("hit_ratio", Json::Float(self.hit_ratio)),
            ("explained_paths", Json::uint(self.explained_paths as u64)),
            ("explained_losses", Json::uint(self.explained_losses)),
        ])
    }
}

/// Pre-indexed view of the observations against the probe matrix, shared
/// by PLL and the baseline localizers.
pub(super) struct ObservedMatrix {
    /// Pre-processed observations.
    pub obs: Vec<PathObservation>,
    /// For every physical link: indices into `obs` of observed paths
    /// through the link.
    pub link_paths: Vec<Vec<u32>>,
    /// Links that lie on at least one lossy observed path.
    pub candidate_links: Vec<LinkId>,
}

impl ObservedMatrix {
    pub(super) fn build(
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
        cfg: &PllConfig,
    ) -> Self {
        let obs = preprocess(observations, cfg, &HashSet::new());
        let mut link_paths: Vec<Vec<u32>> = vec![Vec::new(); matrix.num_links];
        for (oi, o) in obs.iter().enumerate() {
            // Resolve through the matrix's id index: ids may be segmented
            // (sparse within per-cell ranges), and observations against a
            // retired pre-re-base id simply drop out here.
            let Some(path) = matrix.path(o.path) else {
                continue;
            };
            for l in path.links() {
                link_paths[l.index()].push(oi as u32);
            }
        }
        let mut candidate_links: Vec<LinkId> = Vec::new();
        for (li, paths) in link_paths.iter().enumerate() {
            if paths.iter().any(|&oi| obs[oi as usize].is_lossy()) {
                candidate_links.push(LinkId(li as u32));
            }
        }
        Self {
            obs,
            link_paths,
            candidate_links,
        }
    }

    /// Hit ratio of a link: lossy observed paths / all observed paths.
    pub(super) fn hit_ratio(&self, link: LinkId) -> f64 {
        let paths = &self.link_paths[link.index()];
        if paths.is_empty() {
            return 0.0;
        }
        let lossy = paths
            .iter()
            .filter(|&&oi| self.obs[oi as usize].is_lossy())
            .count();
        lossy as f64 / paths.len() as f64
    }
}

/// Localizes packet losses with the PLL algorithm.
///
/// Observations are pre-processed first (noise filtering, §5.1); callers
/// that need watchdog-based outlier exclusion should run
/// [`preprocess`](super::preprocess) with their exclusion set beforehand.
///
/// The greedy repeatedly blames, among the links whose *hit ratio* meets
/// `cfg.hit_ratio_threshold`, the link explaining the most still-unexplained
/// lost packets, until every lossy path is explained or no candidate
/// remains (remaining paths are reported in
/// [`Diagnosis::unexplained_paths`]).
pub fn localize(
    matrix: &ProbeMatrix,
    observations: &[PathObservation],
    cfg: &PllConfig,
) -> Diagnosis {
    let om = ObservedMatrix::build(matrix, observations, cfg);
    // Hit ratios are computed once: explanation does not change the
    // underlying observation data, only what remains to be explained.
    let hit: Vec<(LinkId, f64)> = om
        .candidate_links
        .iter()
        .map(|&l| (l, om.hit_ratio(l)))
        .collect();
    greedy(&om.obs, &om.link_paths, &hit, cfg)
}

/// The greedy cover (Steps 3–5) over a pre-indexed window: `obs` are the
/// pre-processed observations, `link_paths` maps every link to its
/// observed path indices, `hit` lists the candidate links with their hit
/// ratios in ascending link order. Factored out of [`localize`] so the
/// incremental mode can rerun it against a cached skeleton.
pub(super) fn greedy(
    obs: &[PathObservation],
    link_paths: &[Vec<u32>],
    hit: &[(LinkId, f64)],
    cfg: &PllConfig,
) -> Diagnosis {
    let mut unexplained: Vec<bool> = obs.iter().map(PathObservation::is_lossy).collect();
    let mut remaining: u64 = obs.iter().map(|o| o.lost).sum();
    let mut suspects = Vec::new();

    while remaining > 0 {
        // Step 3: score = lost packets this link could still explain.
        // The paper-faithful order ranks by score with the hit ratio as a
        // filter only; the consistency-first variant promotes fully
        // consistent links (hit ratio 1: *every* observed path through
        // the link is lossy) ahead of any partially consistent one.
        let mut best: Option<(bool, u64, f64, LinkId)> = None;
        for &(l, h) in hit {
            if h < cfg.hit_ratio_threshold {
                continue;
            }
            let score: u64 = link_paths[l.index()]
                .iter()
                .filter(|&&oi| unexplained[oi as usize])
                .map(|&oi| obs[oi as usize].lost)
                .sum();
            if score == 0 {
                continue;
            }
            let consistent = cfg.prefer_consistent && h >= 1.0 - 1e-12;
            let better = match best {
                None => true,
                Some((bc, bs, bh, bl)) => {
                    (consistent, score, h, std::cmp::Reverse(l))
                        > (bc, bs, bh, std::cmp::Reverse(bl))
                }
            };
            if better {
                best = Some((consistent, score, h, l));
            }
        }
        let Some((_, score, h, link)) = best else {
            break;
        };

        // Step 4: blame the link and explain its lossy paths.
        let mut explained_paths = 0u32;
        let mut samples: Vec<(u64, u64)> = Vec::new();
        for &oi in &link_paths[link.index()] {
            let oi = oi as usize;
            if unexplained[oi] {
                unexplained[oi] = false;
                explained_paths += 1;
                remaining -= obs[oi].lost;
                samples.push((obs[oi].sent, obs[oi].lost));
            }
        }
        suspects.push(SuspectLink {
            link,
            estimated_loss_rate: estimate_rate(&samples),
            hit_ratio: h,
            explained_paths,
            explained_losses: score,
        });
    }

    let unexplained_paths = obs
        .iter()
        .zip(&unexplained)
        .filter(|(_, &u)| u)
        .map(|(o, _)| o.path)
        .collect();
    Diagnosis {
        suspects,
        unexplained_paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProbePath;

    /// A 4-link matrix: p0={0,1}, p1={0,2}, p2={2,3}, p3={3}, p4={1}.
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
            .map(|&(p, sent, lost)| PathObservation::new(PathId(p), sent, lost))
            .collect()
    }

    #[test]
    fn single_full_loss_is_localized() {
        // Link 0 fully bad: p0 and p1 lose everything, others clean.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 100),
                (1, 100, 100),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
        let s = &d.suspects[0];
        assert!((s.estimated_loss_rate - 1.0).abs() < 1e-9);
        assert_eq!(s.explained_paths, 2);
        assert!(d.unexplained_paths.is_empty());
    }

    #[test]
    fn hit_ratio_filters_partial_suspects() {
        // Only p0 is lossy. Links 0 and 1 both lie on it; link 0 has hit
        // ratio 1/2 (p1 clean), link 1 has 1/2 (p4 clean). With the 0.6
        // threshold nothing qualifies and the loss stays unexplained.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 40),
                (1, 100, 0),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            &PllConfig::default(),
        );
        assert!(d.suspects.is_empty());
        assert_eq!(d.unexplained_paths, vec![PathId(0)]);

        // Lowering the threshold lets the greedy blame one of them.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 40),
                (1, 100, 0),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            &PllConfig::default().with_hit_ratio(0.5),
        );
        assert_eq!(d.suspects.len(), 1);
    }

    #[test]
    fn two_failures_are_both_blamed() {
        // Links 1 and 3 bad (partial): p0, p4 lossy (via 1); p2, p3 lossy
        // (via 3).
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 30),
                (1, 100, 0),
                (2, 100, 35),
                (3, 100, 30),
                (4, 100, 25),
            ]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(1), LinkId(3)]);
        assert!(d.unexplained_paths.is_empty());
    }

    #[test]
    fn noise_produces_clean_diagnosis() {
        let d = localize(
            &matrix(),
            &obs(&[(0, 100_000, 3), (1, 100_000, 5), (2, 100_000, 0)]),
            &PllConfig::default(),
        );
        assert!(d.is_clean());
    }

    #[test]
    fn localizes_over_segmented_path_ids() {
        // The same single-full-loss scenario, but with the matrix ids
        // living in two plan-cell ranges (0.. and 16..) with headroom
        // gaps: observations resolve through the id index.
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0)]),
            ProbePath::from_links(16, vec![LinkId(2), LinkId(3)]),
            ProbePath::from_links(17, vec![LinkId(3)]),
        ];
        let m = ProbeMatrix::from_segmented(4, paths);
        let d = localize(
            &m,
            &obs(&[(0, 100, 100), (1, 100, 100), (16, 100, 0), (17, 100, 0)]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
        // A retired (unknown) id never aliases another row: its losses
        // surface as unexplained instead of blaming some other path's
        // links.
        let d = localize(
            &m,
            &obs(&[(7, 100, 100), (16, 100, 0), (17, 100, 0)]),
            &PllConfig::default(),
        );
        assert!(d.suspects.is_empty());
        assert_eq!(d.unexplained_paths, vec![PathId(7)]);
    }

    #[test]
    fn consistency_first_prefers_fully_consistent_links() {
        // Link 0 lies on p0, p1 (lossy) and p2 (clean): hit ratio 2/3,
        // score 200. Links 1 and 2 are fully consistent (hit ratio 1)
        // with score 100 each. The paper-faithful order blames link 0
        // alone; consistency-first blames exactly the consistent pair.
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
            ProbePath::from_links(2, vec![LinkId(0)]),
        ];
        let m = ProbeMatrix::from_paths(3, paths);
        let window = [(0u32, 100u64, 100u64), (1, 100, 100), (2, 100, 0)];

        let score_first = localize(&m, &obs(&window), &PllConfig::default());
        assert_eq!(score_first.suspect_links(), vec![LinkId(0)]);

        let consistency_first =
            localize(&m, &obs(&window), &PllConfig::default().consistency_first());
        assert_eq!(
            consistency_first.suspect_links(),
            vec![LinkId(1), LinkId(2)]
        );
        assert!(consistency_first.unexplained_paths.is_empty());
    }

    #[test]
    fn rate_estimate_reflects_partial_loss() {
        // Link 3 drops ~30%.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 0),
                (1, 100, 0),
                (2, 100, 31),
                (3, 100, 29),
                (4, 100, 0),
            ]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(3)]);
        let r = d.suspects[0].estimated_loss_rate;
        assert!((r - 0.30).abs() < 0.02, "estimated {r}");
    }
}
