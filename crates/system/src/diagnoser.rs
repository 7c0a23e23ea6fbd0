//! The diagnoser: report aggregation and PLL every window (§3.1, §6.1).
//!
//! Each report is folded into the window's dense per-path `(sent, lost)`
//! vector ([`WindowFold`]) the moment it is ingested, and its raw form is
//! filed in the [`ReportStore`] for the consumers that need per-pinger or
//! per-flow attribution (loss classification, the
//! [`observations`](Diagnoser::observations) oracle view). Diagnosis
//! seals the window and runs [`IncrementalPll`] over it — exactly
//! [`localize`](detector_core::pll::localize) over the same observations,
//! re-scoring only what changed since the previous window.

use detector_core::pll::{
    classify_loss, lossy_components, ClassifyConfig, Diagnosis, FlowSample, IncrementalPll,
    LossClassification, PllConfig,
};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, PathObservation};
use detector_ingest::WindowFold;

use crate::events::RuntimeEvent;
use crate::report::{PingerReport, ReportStore};
use crate::watchdog::Watchdog;

/// One diagnosis produced at the end of a window.
#[derive(Clone, Debug)]
pub struct DiagnosisEvent {
    /// The window the diagnosis covers.
    pub window: u64,
    /// Number of per-path observations aggregated.
    pub num_observations: usize,
    /// The PLL output.
    pub diagnosis: Diagnosis,
    /// Reports folded into the window.
    pub reports: u64,
    /// Observed paths with losses above the noise filters.
    pub lossy_paths: u64,
    /// Connected components of the lossy path/link incidence.
    pub components: u64,
}

impl DiagnosisEvent {
    /// The window's `IngestStats` and `DiagStats` events, in emission
    /// order.
    pub fn stats_events(&self) -> [RuntimeEvent; 2] {
        [
            RuntimeEvent::IngestStats {
                window: self.window,
                reports: self.reports,
                paths_active: self.num_observations as u64,
                topk_hits: 0,
                shard_contention: 0,
                retract_mismatch: 0,
            },
            RuntimeEvent::DiagStats {
                window: self.window,
                lossy_paths: self.lossy_paths,
                components: self.components,
                suspects: self.diagnosis.suspects.len() as u64,
            },
        ]
    }
}

/// The diagnoser service.
pub struct Diagnoser {
    matrix: ProbeMatrix,
    pll: PllConfig,
    store: ReportStore,
    fold: WindowFold,
    localizer: IncrementalPll,
}

impl Diagnoser {
    /// A diagnoser for the given probe matrix.
    pub fn new(matrix: ProbeMatrix, pll: PllConfig) -> Self {
        Self {
            matrix,
            pll,
            store: ReportStore::new(),
            fold: WindowFold::new(),
            localizer: IncrementalPll::new(),
        }
    }

    /// The probe matrix in force.
    pub fn matrix(&self) -> &ProbeMatrix {
        &self.matrix
    }

    /// Replaces the probe matrix (new controller cycle or plan epoch).
    /// Re-indexes any open window's counters onto the new rows and
    /// invalidates the localizer's skeleton — path ids may be reused
    /// with different link sets.
    pub fn set_matrix(&mut self, matrix: ProbeMatrix) {
        self.fold.relayout(&self.matrix, &matrix);
        self.localizer.invalidate();
        self.matrix = matrix;
    }

    /// Ingests a pinger report (the HTTP POST of §6.1): folds its path
    /// counters into the window and files the raw report. Drivers ingest
    /// only reports of pingers the watchdog considers healthy.
    pub fn ingest(&mut self, report: PingerReport) {
        self.fold.fold(
            &self.matrix,
            report.window,
            report.paths.iter().map(|(p, c)| (*p, c.sent, c.lost)),
        );
        self.store.ingest(report);
    }

    /// Aggregated observations of a window from the raw report store,
    /// excluding watchdog-flagged pingers — the attribution-aware view,
    /// and the oracle the diagnosis input is tested against.
    pub fn observations(&self, window: u64, watchdog: &Watchdog) -> Vec<PathObservation> {
        self.store
            .window_observations(window, &|p| !watchdog.is_healthy(p))
    }

    /// Seals the window and runs PLL over it: exactly `localize` over
    /// [`observations`](Diagnoser::observations).
    pub fn diagnose(&mut self, window: u64, watchdog: &Watchdog) -> DiagnosisEvent {
        debug_assert!(
            !self
                .store
                .has_report_from(window, &|p| !watchdog.is_healthy(p)),
            "window {window} holds a report from a pinger the watchdog flags"
        );
        let sealed = self.fold.seal(&self.matrix, window);
        let obs = sealed.observations;
        let (lossy_paths, components) = lossy_components(&self.matrix, &obs, &self.pll);
        DiagnosisEvent {
            window,
            num_observations: obs.len(),
            diagnosis: self.localizer.localize(&self.matrix, &obs, &self.pll),
            reports: sealed.reports,
            lossy_paths,
            components,
        }
    }

    /// Prunes stored reports older than `keep_from`.
    pub fn prune_before(&self, keep_from: u64) {
        self.store.prune_before(keep_from);
    }

    /// Classifies the loss pattern behind a suspect link (§7): aggregates
    /// the per-flow counters of the window's reports over the paths
    /// through the link and looks at the per-flow loss profile. Each
    /// (path, flow) pair is one sample — a blackhole drops a flow on one
    /// path deterministically, so bimodality shows at that granularity.
    pub fn classify_suspect(
        &self,
        window: u64,
        link: LinkId,
        watchdog: &Watchdog,
    ) -> Option<LossClassification> {
        let through: std::collections::HashSet<_> =
            self.matrix.paths_through(link).map(|p| p.id).collect();
        let samples = self
            .store
            .flow_samples(window, &|p| !watchdog.is_healthy(p), &|pid| {
                through.contains(&pid)
            });
        let samples: Vec<FlowSample> = samples
            .into_iter()
            .map(|((pinger, pid, flow), (sent, lost))| {
                let id = ((pinger.0 as u64) << 48) ^ ((pid.0 as u64) << 24) ^ flow;
                FlowSample::new(id, sent, lost)
            })
            .collect();
        classify_loss(&samples, &ClassifyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PathCounters;
    use detector_core::pll::localize;
    use detector_core::types::{LinkId, NodeId, PathId, ProbePath};

    fn matrix() -> ProbeMatrix {
        ProbeMatrix::from_paths(
            2,
            vec![
                ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
                ProbePath::from_links(1, vec![LinkId(0)]),
                ProbePath::from_links(2, vec![LinkId(1)]),
            ],
        )
    }

    fn report(pinger: u32, window: u64, rows: &[(u32, u64, u64)]) -> PingerReport {
        let mut r = PingerReport {
            pinger: NodeId(pinger),
            window,
            ..Default::default()
        };
        for &(p, sent, lost) in rows {
            r.paths.insert(
                PathId(p),
                PathCounters {
                    sent,
                    lost,
                    ..Default::default()
                },
            );
        }
        r
    }

    #[test]
    fn diagnoses_from_aggregated_reports() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        // Link 0 bad: paths 0 and 1 lossy from two pingers.
        d.ingest(report(1, 0, &[(0, 50, 25), (1, 50, 25), (2, 50, 0)]));
        d.ingest(report(2, 0, &[(0, 50, 25), (1, 50, 25), (2, 50, 0)]));
        let ev = d.diagnose(0, &Watchdog::new());
        assert_eq!(ev.num_observations, 3);
        assert_eq!(ev.reports, 2);
        assert_eq!(ev.lossy_paths, 2);
        assert_eq!(ev.diagnosis.suspect_links(), vec![LinkId(0)]);
    }

    #[test]
    fn flagged_pingers_are_excluded() {
        // Pinger 9 is sick and reports everything lost; the oracle view
        // drops its report once the watchdog flags it.
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        d.ingest(report(1, 0, &[(0, 50, 0), (1, 50, 0), (2, 50, 0)]));
        d.ingest(report(9, 0, &[(0, 50, 50), (1, 50, 50), (2, 50, 50)]));
        let mut w = Watchdog::new();
        w.mark_unhealthy(NodeId(9));
        let obs = d.observations(0, &w);
        assert!(obs.iter().all(|o| o.sent == 50 && o.lost == 0));
        assert!(localize(d.matrix(), &obs, &PllConfig::default()).is_clean());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "watchdog flags")]
    fn diagnosing_a_flagged_pingers_report_is_a_driver_bug() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        d.ingest(report(9, 0, &[(0, 50, 50)]));
        let mut w = Watchdog::new();
        w.mark_unhealthy(NodeId(9));
        d.diagnose(0, &w);
    }

    #[test]
    fn empty_window_is_clean() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        let ev = d.diagnose(3, &Watchdog::new());
        assert_eq!(ev.num_observations, 0);
        assert_eq!(ev.reports, 0);
        assert!(ev.diagnosis.is_clean());
    }

    #[test]
    fn sealed_snapshot_matches_the_store_aggregation() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        d.ingest(report(1, 0, &[(0, 50, 25), (1, 40, 0)]));
        d.ingest(report(2, 0, &[(0, 10, 1), (2, 30, 30), (7, 5, 5)]));
        let w = Watchdog::new();
        let oracle = d.observations(0, &w);
        let ev = d.diagnose(0, &w);
        assert_eq!(ev.num_observations, oracle.len());
        assert_eq!(ev.reports, 2);
        assert_eq!(
            ev.diagnosis,
            localize(d.matrix(), &oracle, &PllConfig::default())
        );
    }

    #[test]
    fn incremental_mode_matches_full_diagnosis() {
        // Lossy and clean windows alternate over one matrix: every
        // patched verdict equals a from-scratch `localize`.
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        let w = Watchdog::new();
        for win in 0..4u64 {
            let lost = if win % 2 == 0 { 25 } else { 0 };
            d.ingest(report(1, win, &[(0, 50, lost), (1, 50, lost), (2, 50, 0)]));
            let oracle = localize(d.matrix(), &d.observations(win, &w), &PllConfig::default());
            assert_eq!(d.diagnose(win, &w).diagnosis, oracle, "window {win}");
        }
    }
}
