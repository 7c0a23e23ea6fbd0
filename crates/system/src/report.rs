//! Pinger reports and the diagnoser-side report store (§6.1).
//!
//! Every 30 seconds each pinger aggregates per-path counters into a report
//! and POSTs it to the diagnoser, which stores them for real-time analysis
//! and later queries. The store is concurrency-safe (parking_lot) because
//! production pingers report independently.

use std::collections::HashMap;

use detector_core::types::{NodeId, PathId, PathObservation};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Per-path counters over one window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PathCounters {
    /// Probes sent.
    pub sent: u64,
    /// Probes lost (timeout or drop).
    pub lost: u64,
    /// Sum of measured RTTs (µs) over delivered probes.
    pub rtt_sum_us: f64,
    /// Max measured RTT (µs).
    pub rtt_max_us: f64,
}

impl PathCounters {
    /// Mean RTT of delivered probes, µs.
    pub fn mean_rtt_us(&self) -> f64 {
        let delivered = self.sent.saturating_sub(self.lost);
        if delivered == 0 {
            0.0
        } else {
            self.rtt_sum_us / delivered as f64
        }
    }

    /// Merges another window's counters.
    pub fn merge(&mut self, other: &PathCounters) {
        self.sent += other.sent;
        self.lost += other.lost;
        self.rtt_sum_us += other.rtt_sum_us;
        self.rtt_max_us = self.rtt_max_us.max(other.rtt_max_us);
    }
}

/// One pinger's report for one window.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PingerReport {
    /// Reporting pinger.
    pub pinger: NodeId,
    /// Window index (window start / window length).
    pub window: u64,
    /// Counters per probe-matrix path.
    pub paths: HashMap<PathId, PathCounters>,
    /// Counters for in-rack probes (server–ToR links), keyed by responder.
    pub in_rack: HashMap<NodeId, PathCounters>,
    /// Per-flow counters per path, keyed by (path, flow discriminator):
    /// the raw material for loss-type classification (§7). The flow
    /// discriminator packs the probe's source port and DSCP class.
    pub flows: HashMap<(PathId, u64), (u64, u64)>,
}

impl PingerReport {
    /// Total probes sent in this report (paths + in-rack).
    pub fn total_sent(&self) -> u64 {
        self.paths.values().map(|c| c.sent).sum::<u64>()
            + self.in_rack.values().map(|c| c.sent).sum::<u64>()
    }

    /// True when every probe of the report was lost (a strong hint the
    /// *pinger* is sick, not the network — §5.1 outliers).
    pub fn all_lost(&self) -> bool {
        let sent = self.total_sent();
        let lost = self.paths.values().map(|c| c.lost).sum::<u64>()
            + self.in_rack.values().map(|c| c.lost).sum::<u64>();
        sent > 0 && lost == sent
    }
}

/// Diagnoser-side store of reports, per window.
pub struct ReportStore {
    inner: RwLock<HashMap<u64, Vec<PingerReport>>>,
}

impl Default for ReportStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportStore {
    /// Debug-build acquisition rank of the store's lock (see the
    /// parking_lot shim): any lock the diagnoser may take *while*
    /// aggregating reports must rank above this.
    const LOCK_RANK: u32 = 100;

    /// An empty store.
    pub fn new() -> Self {
        Self {
            inner: RwLock::with_rank(HashMap::new(), Self::LOCK_RANK, "ReportStore.inner"),
        }
    }

    /// Ingests one report.
    pub fn ingest(&self, report: PingerReport) {
        self.inner
            .write()
            .entry(report.window)
            .or_default()
            .push(report);
    }

    /// Aggregates one window's reports into per-path observations,
    /// skipping reports from `excluded` pingers (watchdog outliers).
    pub fn window_observations(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
    ) -> Vec<PathObservation> {
        let inner = self.inner.read();
        let mut agg: HashMap<PathId, PathCounters> = HashMap::new();
        if let Some(reports) = inner.get(&window) {
            for r in reports {
                if excluded(r.pinger) {
                    continue;
                }
                for (pid, c) in &r.paths {
                    agg.entry(*pid).or_default().merge(c);
                }
            }
        }
        let mut out: Vec<PathObservation> = agg
            .into_iter()
            .map(|(pid, c)| PathObservation::new(pid, c.sent, c.lost))
            .collect();
        out.sort_unstable_by_key(|o| o.path);
        out
    }

    /// True when some report of `window` comes from a pinger `pred`
    /// selects.
    pub fn has_report_from(&self, window: u64, pred: &dyn Fn(NodeId) -> bool) -> bool {
        self.inner
            .read()
            .get(&window)
            .is_some_and(|rs| rs.iter().any(|r| pred(r.pinger)))
    }

    /// Aggregates the per-flow counters of a window over paths selected
    /// by `keep_path`, excluding flagged pingers (classification input).
    pub fn flow_samples(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
        keep_path: &dyn Fn(PathId) -> bool,
    ) -> HashMap<(NodeId, PathId, u64), (u64, u64)> {
        let inner = self.inner.read();
        // Keyed by pinger too: two pingers probing the same path use
        // different source addresses, so a header-matching blackhole can
        // treat their otherwise-identical flows differently — merging them
        // would fake intermediate loss rates and hide bimodality.
        let mut agg: HashMap<(NodeId, PathId, u64), (u64, u64)> = HashMap::new();
        if let Some(reports) = inner.get(&window) {
            for r in reports {
                if excluded(r.pinger) {
                    continue;
                }
                for (&(pid, flow), &(sent, lost)) in &r.flows {
                    if !keep_path(pid) {
                        continue;
                    }
                    let e = agg.entry((r.pinger, pid, flow)).or_insert((0, 0));
                    e.0 += sent;
                    e.1 += lost;
                }
            }
        }
        agg
    }

    /// Drops windows older than `keep_from` (the paper keeps a database
    /// for later queries; the simulator prunes to bound memory).
    pub fn prune_before(&self, keep_from: u64) {
        self.inner.write().retain(|w, _| *w >= keep_from);
    }

    /// Number of stored reports for a window.
    pub fn reports_in_window(&self, window: u64) -> usize {
        self.inner.read().get(&window).map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pinger: u32, window: u64, path: u32, sent: u64, lost: u64) -> PingerReport {
        let mut paths = HashMap::new();
        paths.insert(
            PathId(path),
            PathCounters {
                sent,
                lost,
                rtt_sum_us: 100.0 * (sent - lost) as f64,
                rtt_max_us: 120.0,
            },
        );
        PingerReport {
            pinger: NodeId(pinger),
            window,
            paths,
            in_rack: HashMap::new(),
            flows: HashMap::new(),
        }
    }

    #[test]
    fn aggregation_merges_pingers() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 2));
        store.ingest(report(2, 0, 7, 10, 3));
        let obs = store.window_observations(0, &|_| false);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].sent, 20);
        assert_eq!(obs[0].lost, 5);
    }

    #[test]
    fn excluded_pingers_are_ignored() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 0));
        store.ingest(report(2, 0, 7, 10, 10));
        let obs = store.window_observations(0, &|p| p == NodeId(2));
        assert_eq!(obs[0].lost, 0);
    }

    #[test]
    fn windows_are_separate() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 1));
        store.ingest(report(1, 1, 7, 10, 2));
        assert_eq!(store.window_observations(0, &|_| false)[0].lost, 1);
        assert_eq!(store.window_observations(1, &|_| false)[0].lost, 2);
    }

    #[test]
    fn prune_drops_old_windows() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 1));
        store.ingest(report(1, 5, 7, 10, 1));
        store.prune_before(3);
        assert_eq!(store.reports_in_window(0), 0);
        assert_eq!(store.reports_in_window(5), 1);
    }

    #[test]
    fn counters_mean_rtt() {
        let c = PathCounters {
            sent: 10,
            lost: 2,
            rtt_sum_us: 800.0,
            rtt_max_us: 150.0,
        };
        assert!((c.mean_rtt_us() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn all_lost_detects_sick_pinger() {
        let r = report(1, 0, 7, 10, 10);
        assert!(r.all_lost());
        let r = report(1, 0, 7, 10, 9);
        assert!(!r.all_lost());
    }
}
