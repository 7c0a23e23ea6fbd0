//! Property tests for the report → verdict path.
//!
//! * The fold: folding reports into a [`WindowFold`] and sealing a
//!   window yields exactly `ReportStore::window_observations` over the
//!   same reports — ids sorted, ids the matrix does not resolve kept,
//!   across dense and segmented matrices and a mid-window re-layout onto
//!   a re-based plan.
//! * The diagnoser: over matrices from real `Controller` re-plans
//!   (LinkDown/LinkUp on Fattree(4) and Fattree(6)), every window's
//!   verdict equals plain `localize` over the window's observations —
//!   through identical consecutive windows, lossy ↔ clean flips, plan
//!   changes and counters reported against retired path ids.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use detector::prelude::*;
use detector::system::{Controller, Diagnoser, PathCounters, PingerReport, ReportStore, Watchdog};
use proptest::prelude::*;

fn path(id: u32, links: &[u32]) -> ProbePath {
    ProbePath::from_links(id, links.iter().map(|&l| LinkId(l % 8)).collect())
}

/// A matrix over `ids` (rows in the given order): dense ids 0..n when
/// `dense`, the given (segmented) ids otherwise.
fn matrix_from(ids: &[u32], dense: bool) -> ProbeMatrix {
    let paths: Vec<ProbePath> = ids.iter().map(|&id| path(id, &[id, id / 3])).collect();
    if dense {
        ProbeMatrix::from_paths(8, paths)
    } else {
        ProbeMatrix::from_segmented(8, paths)
    }
}

fn dedup(ids: &[u32]) -> Vec<u32> {
    let mut seen = HashSet::new();
    ids.iter().copied().filter(|id| seen.insert(*id)).collect()
}

fn report(pinger: u32, window: u64, entries: &[(u32, u64, u64)]) -> PingerReport {
    PingerReport {
        pinger: NodeId(pinger),
        window,
        paths: entries
            .iter()
            .map(|&(id, sent, lost)| {
                let c = PathCounters {
                    sent,
                    lost,
                    ..PathCounters::default()
                };
                (PathId(id), c)
            })
            .collect(),
        ..PingerReport::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// fold + seal ≡ `ReportStore::window_observations`, windows
    /// interleaved, with the matrix re-laid out onto a re-based plan
    /// after `switch_at` reports.
    #[test]
    fn fold_seal_matches_window_observations(
        ids_a in proptest::collection::vec(0u32..48, 1..16),
        ids_b in proptest::collection::vec(16u32..64, 1..16),
        dense_a in 0u8..2,
        reports in proptest::collection::vec(
            (0u32..6, 0u64..3, proptest::collection::vec((0u32..64, 0u64..20, 0u64..25), 0..12)),
            0..16,
        ),
        switch_at in 0usize..17,
    ) {
        let a = matrix_from(&dedup(&ids_a), dense_a == 1);
        let b = matrix_from(&dedup(&ids_b), false);
        let store = ReportStore::new();
        let mut fold = WindowFold::new();
        let mut current = &a;
        let mut folded: HashMap<u64, u64> = HashMap::new();
        for (i, (pinger, window, entries)) in reports.iter().enumerate() {
            if i == switch_at {
                fold.relayout(current, &b);
                current = &b;
            }
            let r = report(*pinger, *window, entries);
            fold.fold(current, r.window, r.paths.iter().map(|(p, c)| (*p, c.sent, c.lost)));
            *folded.entry(r.window).or_default() += 1;
            store.ingest(r);
        }
        for w in 0..3u64 {
            let sealed = fold.seal(current, w);
            prop_assert_eq!(&sealed.observations, &store.window_observations(w, &|_| false));
            prop_assert_eq!(sealed.reports, folded.get(&w).copied().unwrap_or(0));
        }
    }
}

/// One window's reports: `(pinger, [(path id, sent, lost)])`.
type WindowReports = Vec<(u32, Vec<(u32, u64, u64)>)>;

/// Per-window scenario knobs, decoded from raw proptest draws.
struct Step {
    /// 0–1: LinkDown of `target`; 2: LinkUp of the last downed link;
    /// otherwise no topology event.
    event: u8,
    target: u16,
    /// Repeat the previous window's reports verbatim.
    repeat: bool,
    /// Links failing this window (empty ⇒ a clean window).
    failing: Vec<u16>,
}

fn run_replans(k: u32, rebase: bool, steps: &[Step]) {
    let ft = Arc::new(Fattree::new(k).unwrap());
    let cfg = SystemConfig {
        id_headroom: if rebase {
            IdHeadroom::NONE
        } else {
            IdHeadroom::default()
        },
        ..SystemConfig::default()
    };
    let pll = cfg.pll;
    let mut ctl = Controller::new(ft.clone() as SharedTopology, cfg);
    let no_one = HashSet::new();
    let dep = ctl.build_deployment(&no_one).unwrap();
    let mut diagnoser = Diagnoser::new(dep.matrix, pll);
    let watchdog = Watchdog::new();
    let probe_links = ft.probe_links() as u32;
    let mut down: Vec<LinkId> = Vec::new();
    let mut retired: Vec<PathId> = Vec::new();
    let mut previous: WindowReports = Vec::new();

    for (w, step) in steps.iter().enumerate() {
        let w = w as u64;
        let event = match step.event {
            0 | 1 => {
                let link = LinkId(u32::from(step.target) % probe_links);
                down.push(link);
                Some(TopologyEvent::LinkDown { link })
            }
            2 => down.pop().map(|link| TopologyEvent::LinkUp { link }),
            _ => None,
        };
        if let Some(ev) = event {
            let update = ctl.apply_event(&ev).unwrap();
            if update.links_changed > 0 {
                let dep = ctl.build_deployment(&no_one).unwrap();
                let live: HashSet<PathId> = dep.matrix.paths.iter().map(|p| p.id).collect();
                retired.extend(
                    diagnoser
                        .matrix()
                        .paths
                        .iter()
                        .map(|p| p.id)
                        .filter(|id| !live.contains(id)),
                );
                diagnoser.set_matrix(dep.matrix);
            }
        }

        let rows: WindowReports = if step.repeat && !previous.is_empty() {
            previous.clone()
        } else {
            let failing: HashSet<LinkId> = step
                .failing
                .iter()
                .map(|&t| LinkId(u32::from(t) % probe_links))
                .collect();
            let m = diagnoser.matrix();
            // Two pingers split the plan; a third reports counters
            // against retired ids (a pinglist from before the re-plan).
            let mut by_pinger: WindowReports =
                vec![(1, Vec::new()), (2, Vec::new()), (3, Vec::new())];
            for (row, p) in m.paths.iter().enumerate() {
                let lost = if p.links().iter().any(|l| failing.contains(l)) {
                    10 + (row as u64 % 7)
                } else {
                    0
                };
                by_pinger[row % 2].1.push((p.id.0, 30, lost));
            }
            for (i, id) in retired.iter().rev().take(4).enumerate() {
                by_pinger[2].1.push((id.0, 30, 5 * (i as u64 % 2)));
            }
            by_pinger
        };
        for (pinger, entries) in &rows {
            diagnoser.ingest(report(*pinger, w, entries));
        }
        previous = rows;

        let observations = diagnoser.observations(w, &watchdog);
        let oracle = localize(diagnoser.matrix(), &observations, &pll);
        let ev = diagnoser.diagnose(w, &watchdog);
        prop_assert_eq!(ev.num_observations, observations.len(), "window {}", w);
        prop_assert_eq!(ev.reports, 3, "window {}", w);
        prop_assert_eq!(&ev.diagnosis, &oracle, "window {}", w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Diagnoser` ≡ `localize` over controller re-plans: every verdict
    /// of the incremental localizer equals the oracle over
    /// `Diagnoser::observations` for the same window.
    #[test]
    fn diagnoser_verdicts_equal_localize_across_replans(
        big in 0u8..2,
        rebase in 0u8..2,
        raw in proptest::collection::vec(
            (0u8..6, 0u16..512, 0u8..3, proptest::collection::vec(0u16..512, 0..4)),
            1..8,
        ),
    ) {
        let k = if big == 0 { 6 } else { 4 };
        let steps: Vec<Step> = raw
            .into_iter()
            .map(|(event, target, repeat, failing)| Step {
                event,
                target,
                repeat: repeat == 0,
                failing,
            })
            .collect();
        run_replans(k, rebase == 1, &steps);
    }
}
