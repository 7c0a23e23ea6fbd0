//! The per-window report fold: dense `(sent, lost)` counters indexed by
//! probe-matrix row.

use std::collections::BTreeMap;

use detector_core::pmc::ProbeMatrix;
use detector_core::types::{PathId, PathObservation};

/// One path's running counters in an open window. `seen` marks a path
/// some report named, even with zero probes, so the sealed window lists
/// exactly the paths the reports carried.
#[derive(Clone, Copy, Debug, Default)]
struct Counter {
    sent: u64,
    lost: u64,
    seen: bool,
}

/// The counters of one open window.
#[derive(Debug)]
struct Lane {
    window: u64,
    reports: u64,
    /// Indexed by [`ProbeMatrix::row_of`] of the matrix in force.
    rows: Vec<Counter>,
    /// Ids the matrix does not resolve (counters reported against a
    /// retired pinglist), kept exactly.
    stray: BTreeMap<PathId, (u64, u64)>,
}

impl Lane {
    fn new(window: u64, rows: usize) -> Self {
        Self {
            window,
            reports: 0,
            rows: vec![Counter::default(); rows],
            stray: BTreeMap::new(),
        }
    }

    fn add(&mut self, matrix: &ProbeMatrix, path: PathId, sent: u64, lost: u64) {
        match matrix.row_of(path).and_then(|row| self.rows.get_mut(row)) {
            Some(c) => {
                c.sent += sent;
                c.lost += lost;
                c.seen = true;
            }
            None => {
                let e = self.stray.entry(path).or_default();
                e.0 += sent;
                e.1 += lost;
            }
        }
    }

    /// The lane's counters as `(path, sent, lost)`: named rows in matrix
    /// order, then the side list.
    fn entries<'a>(
        &'a self,
        matrix: &'a ProbeMatrix,
    ) -> impl Iterator<Item = (PathId, u64, u64)> + 'a {
        let rows = self
            .rows
            .iter()
            .zip(&matrix.paths)
            .filter(|(c, _)| c.seen)
            .map(|(c, p)| (p.id, c.sent, c.lost));
        let stray = self
            .stray
            .iter()
            .map(|(&path, &(sent, lost))| (path, sent, lost));
        rows.chain(stray)
    }
}

/// A sealed window: its aggregated observations, sorted by path id, and
/// the number of reports folded into it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SealedWindow {
    /// Per-path observations, ascending by path id.
    pub observations: Vec<PathObservation>,
    /// Reports folded into the window.
    pub reports: u64,
}

/// Folds pinger reports into per-window `(sent, lost)` vectors as they
/// arrive, one dense slot per probe-matrix row, so a window's PLL input
/// exists the moment its last report lands.
///
/// Every method takes the matrix the counters are indexed against; the
/// caller passes the same matrix until it calls
/// [`relayout`](WindowFold::relayout). [`seal`](WindowFold::seal) yields
/// exactly what aggregating the same reports path by path would, ids
/// sorted — including ids the matrix does not resolve.
#[derive(Debug, Default)]
pub struct WindowFold {
    open: Vec<Lane>,
}

impl WindowFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one report's `(path, sent, lost)` entries into `window`.
    pub fn fold(
        &mut self,
        matrix: &ProbeMatrix,
        window: u64,
        entries: impl IntoIterator<Item = (PathId, u64, u64)>,
    ) {
        let mut lane = self
            .take(window)
            .unwrap_or_else(|| Lane::new(window, matrix.paths.len()));
        lane.reports += 1;
        for (path, sent, lost) in entries {
            lane.add(matrix, path, sent, lost);
        }
        self.open.push(lane);
    }

    /// Seals `window`: its observations sorted by path id plus its
    /// report count, and drops its counters. A window nothing was folded
    /// into seals empty.
    pub fn seal(&mut self, matrix: &ProbeMatrix, window: u64) -> SealedWindow {
        let Some(lane) = self.take(window) else {
            return SealedWindow::default();
        };
        let mut observations: Vec<PathObservation> = lane
            .entries(matrix)
            .map(|(path, sent, lost)| PathObservation::new(path, sent, lost))
            .collect();
        // Rows follow the matrix's path order, which is id order for
        // dense matrices and near it for segmented ones.
        observations.sort_unstable_by_key(|o| o.path);
        SealedWindow {
            observations,
            reports: lane.reports,
        }
    }

    /// Re-indexes every open window from `old` onto `new` (a plan change
    /// between a window's reports); ids `new` does not resolve move to
    /// the exact side list.
    pub fn relayout(&mut self, old: &ProbeMatrix, new: &ProbeMatrix) {
        for lane in &mut self.open {
            let mut moved = Lane::new(lane.window, new.paths.len());
            moved.reports = lane.reports;
            for (path, sent, lost) in lane.entries(old) {
                moved.add(new, path, sent, lost);
            }
            *lane = moved;
        }
    }

    /// Removes `window`'s lane from the open set.
    fn take(&mut self, window: u64) -> Option<Lane> {
        let at = self.open.iter().position(|l| l.window == window)?;
        Some(self.open.swap_remove(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::types::{LinkId, ProbePath};

    fn path(id: u32) -> ProbePath {
        ProbePath::from_links(id, vec![LinkId(id)])
    }

    /// Dense ids 0..n: the id is the row.
    fn dense(n: u32) -> ProbeMatrix {
        ProbeMatrix::from_paths(n as usize, (0..n).map(path).collect())
    }

    fn obs(rows: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        rows.iter()
            .map(|&(p, s, l)| PathObservation::new(PathId(p), s, l))
            .collect()
    }

    fn entries(rows: &[(u32, u64, u64)]) -> Vec<(PathId, u64, u64)> {
        rows.iter().map(|&(p, s, l)| (PathId(p), s, l)).collect()
    }

    #[test]
    fn folds_aggregate_and_seal_sorts_by_path() {
        let m = dense(4);
        let mut f = WindowFold::new();
        f.fold(&m, 7, entries(&[(3, 10, 1), (0, 10, 0)]));
        f.fold(&m, 7, entries(&[(3, 5, 5), (1, 0, 0)]));
        let sealed = f.seal(&m, 7);
        assert_eq!(sealed.reports, 2);
        // Path 1 was named with zero probes: it still appears.
        assert_eq!(
            sealed.observations,
            obs(&[(0, 10, 0), (1, 0, 0), (3, 15, 6)])
        );
    }

    #[test]
    fn sealing_resets_the_lane_for_reuse() {
        let m = dense(3);
        let mut f = WindowFold::new();
        f.fold(&m, 0, entries(&[(2, 9, 9)]));
        assert_eq!(f.seal(&m, 0).observations, obs(&[(2, 9, 9)]));
        assert_eq!(f.seal(&m, 0), SealedWindow::default());
        f.fold(&m, 1, entries(&[(0, 4, 0)]));
        let sealed = f.seal(&m, 1);
        assert_eq!(sealed.observations, obs(&[(0, 4, 0)]));
        assert_eq!(sealed.reports, 1);
    }

    #[test]
    fn windows_fold_independently() {
        let m = dense(2);
        let mut f = WindowFold::new();
        f.fold(&m, 0, entries(&[(0, 1, 1)]));
        f.fold(&m, 1, entries(&[(0, 2, 0)]));
        f.fold(&m, 0, entries(&[(1, 3, 0)]));
        assert_eq!(f.seal(&m, 1).observations, obs(&[(0, 2, 0)]));
        assert_eq!(f.seal(&m, 0).observations, obs(&[(0, 1, 1), (1, 3, 0)]));
    }

    #[test]
    fn unresolved_ids_stay_exact_and_sorted() {
        let m = dense(2);
        let mut f = WindowFold::new();
        f.fold(&m, 0, entries(&[(9, 4, 1), (1, 2, 2)]));
        f.fold(&m, 0, entries(&[(9, 4, 3), (5, 1, 0)]));
        assert_eq!(
            f.seal(&m, 0).observations,
            obs(&[(1, 2, 2), (5, 1, 0), (9, 8, 4)])
        );
    }

    #[test]
    fn relayout_moves_open_counters_onto_the_new_rows() {
        // A segmented plan whose rows are not in id order, re-based so
        // id 20 retires and id 40 appears between two reports.
        let old = ProbeMatrix::from_segmented(64, vec![path(30), path(10), path(20)]);
        let new = ProbeMatrix::from_segmented(64, vec![path(40), path(10), path(30)]);
        let mut f = WindowFold::new();
        f.fold(&old, 3, entries(&[(20, 6, 6), (30, 5, 0), (40, 1, 1)]));
        f.relayout(&old, &new);
        f.fold(&new, 3, entries(&[(40, 2, 0), (10, 7, 0), (20, 1, 0)]));
        let sealed = f.seal(&new, 3);
        assert_eq!(sealed.reports, 2);
        assert_eq!(
            sealed.observations,
            obs(&[(10, 7, 0), (20, 7, 6), (30, 5, 0), (40, 3, 1)])
        );
    }
}
