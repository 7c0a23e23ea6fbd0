//! Connected components of one window's lossy-path/link incidence: the
//! number of independent localization subproblems a window holds (§4.3's
//! Observation 1 applied to §5), reported per window in `DiagStats`.

use std::collections::{HashMap, HashSet};

use super::{preprocess, PllConfig};
use crate::pmc::ProbeMatrix;
use crate::types::PathObservation;

/// Cheap per-window statistics of the lossy-path/link incidence:
/// `(lossy_paths, components)`, where `lossy_paths` counts the
/// pre-processed observations that stay lossy after noise filtering and
/// `components` counts the connected components their links induce — the
/// number of independent localization subproblems in the window. Costs
/// O(lossy incidence): an all-healthy window does no per-link work at
/// all. Lossy observations whose path id does not resolve in the matrix
/// count toward `lossy_paths` but induce no component (no links).
///
/// The count is a pure function of (matrix, observations, cfg), so every
/// driver — sequential, pipelined, distributed — reports the same value
/// for the same window.
pub fn lossy_components(
    matrix: &ProbeMatrix,
    observations: &[PathObservation],
    cfg: &PllConfig,
) -> (u64, u64) {
    let obs = preprocess(observations, cfg, &HashSet::new());
    let mut lossy_paths = 0u64;
    // Sparse union-find over link ids, smaller-root discipline (same as
    // `pmc::decompose`).
    let mut parent: HashMap<u32, u32> = HashMap::new();
    fn find_sparse(parent: &mut HashMap<u32, u32>, x: u32) -> u32 {
        let mut root = x;
        while let Some(&p) = parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        let mut cur = x;
        while cur != root {
            let next = parent.insert(cur, root).unwrap_or(root);
            cur = next;
        }
        root
    }
    for o in &obs {
        if !o.is_lossy() {
            continue;
        }
        lossy_paths += 1;
        let Some(path) = matrix.path(o.path) else {
            continue;
        };
        let Some((&first, rest)) = path.links().split_first() else {
            continue;
        };
        parent.entry(first.0).or_insert(first.0);
        for l in rest {
            let ra = find_sparse(&mut parent, first.0);
            parent.entry(l.0).or_insert(l.0);
            let rb = find_sparse(&mut parent, l.0);
            if ra != rb {
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent.insert(hi, lo);
            }
        }
    }
    let mut roots: Vec<u32> = {
        let keys: Vec<u32> = parent.keys().copied().collect();
        keys.into_iter()
            .map(|k| find_sparse(&mut parent, k))
            .collect()
    };
    roots.sort_unstable();
    roots.dedup();
    (lossy_paths, roots.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LinkId, PathId, ProbePath};

    /// Two disjoint 2-link islands plus a stray single-link path:
    /// p0,p1 ∈ {0,1}; p2,p3 ∈ {2,3}; p4 = {4}.
    fn matrix() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0)]),
            ProbePath::from_links(2, vec![LinkId(2), LinkId(3)]),
            ProbePath::from_links(3, vec![LinkId(3)]),
            ProbePath::from_links(4, vec![LinkId(4)]),
        ];
        ProbeMatrix::from_paths(5, paths)
    }

    fn obs(rows: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        rows.iter()
            .map(|&(p, s, l)| PathObservation::new(PathId(p), s, l))
            .collect()
    }

    #[test]
    fn lossy_components_counts_the_incidence() {
        let m = matrix();
        let cfg = PllConfig::default();
        let healthy = obs(&[(0, 100, 0), (1, 100, 0), (2, 100, 0)]);
        assert_eq!(lossy_components(&m, &healthy, &cfg), (0, 0));
        let both = obs(&[(0, 100, 40), (2, 100, 40), (4, 100, 40)]);
        assert_eq!(lossy_components(&m, &both, &cfg), (3, 3));
        let stray = obs(&[(99, 100, 40)]);
        assert_eq!(lossy_components(&m, &stray, &cfg), (1, 0));
    }
}
