//! The deTector runtime handle: an owned, event-driven monitoring loop
//! (§3.2's controller → pingers → diagnoser cycle).
//!
//! [`Detector`] owns its topology (`Arc<dyn DcnTopology>`), validates its
//! configuration at build time, and executes windows as an event stream:
//! every [`step`](Detector::step) emits typed [`RuntimeEvent`]s to the
//! registered [`EventSink`]s and returns the window's [`WindowResult`].
//! The network is reached only through the [`DataPlane`] seam, so the
//! same runtime drives the simulated fabric, a mock, or (eventually) a
//! real-packet backend.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use detector_core::pll::LossClassification;
use detector_core::pmc::{PmcError, ProbeMatrix};
use detector_core::types::{LinkId, NodeId, PathObservation};
use detector_topology::{Dcn, DcnTopology, TopologyEvent, TopologyView};
use rand::rngs::SmallRng;
use rand::Rng;

use detector_core::types::PathIdRange;

use crate::clock::SimClock;
use crate::controller::{Controller, Deployment, PlanUpdate};
use crate::dataplane::DataPlane;
use crate::diagnoser::Diagnoser;
use crate::dispatch::{rebase_and_diff, rebase_pairs, DispatchStats};
use crate::events::{EventSink, RuntimeEvent, WindowResult};
use crate::pinger::PingerBatch;
use crate::pinglist::Pinglist;
use crate::watchdog::Watchdog;
use crate::{ConfigError, SharedTopology, SystemConfig};

/// Why a [`Detector`] could not be built.
#[derive(Debug)]
pub enum BuildError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// Probe-matrix construction failed.
    Pmc(PmcError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "invalid configuration: {e}"),
            BuildError::Pmc(e) => write!(f, "probe-matrix construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<PmcError> for BuildError {
    fn from(e: PmcError) -> Self {
        BuildError::Pmc(e)
    }
}

/// Builder for [`Detector`]: topology in, validated runtime out.
pub struct DetectorBuilder {
    topo: SharedTopology,
    cfg: SystemConfig,
    sinks: Vec<Box<dyn EventSink>>,
    offline: Vec<LinkId>,
}

impl DetectorBuilder {
    /// Replaces the configuration (defaults are §6.1's).
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Registers an event sink; sinks observe every [`RuntimeEvent`] in
    /// emission order. May be called repeatedly.
    pub fn sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Seeds the topology view with links that are already known to be
    /// down at boot (e.g. from an inventory system): the first probe
    /// plan is born with them excluded, and the view starts at epoch 1.
    pub fn offline_links(mut self, links: impl IntoIterator<Item = LinkId>) -> Self {
        self.offline.extend(links);
        self
    }

    /// Validates the configuration, computes the first probe matrix and
    /// pinglists, and returns the runtime handle.
    pub fn build(self) -> Result<Detector, BuildError> {
        self.cfg.validate()?;
        let mut controller = Controller::new(self.topo.clone(), self.cfg.clone());
        if !self.offline.is_empty() {
            // One batch: the view absorbs every seeded LinkDown before
            // the first (lazy) plan build, so the plan is born degraded
            // rather than built pristine and immediately patched.
            controller.apply_events(
                self.offline
                    .iter()
                    .map(|&link| TopologyEvent::LinkDown { link }),
            )?;
        }
        let watchdog = Watchdog::new();
        let deployment = controller.build_deployment(watchdog.unhealthy_set())?;
        let diagnoser = Diagnoser::new(deployment.matrix.clone(), self.cfg.pll);
        Ok(Detector {
            topo: self.topo,
            cfg: self.cfg,
            controller,
            deployment,
            diagnoser,
            watchdog,
            clock: SimClock::new(),
            window: 0,
            sinks: self.sinks,
            bound: HashMap::new(),
        })
    }
}

/// A running deTector deployment.
///
/// Owns the monitored topology; drive it window by window with
/// [`step`](Self::step) against any [`DataPlane`].
pub struct Detector {
    pub(crate) topo: SharedTopology,
    pub(crate) cfg: SystemConfig,
    pub(crate) controller: Controller,
    pub(crate) deployment: Deployment,
    pub(crate) diagnoser: Diagnoser,
    /// The watchdog, exposed for scenario scripting (e.g. killing a
    /// pinger server mid-run).
    pub watchdog: Watchdog,
    pub(crate) clock: SimClock,
    pub(crate) window: u64,
    pub(crate) sinks: Vec<Box<dyn EventSink>>,
    /// Bound pinger batches cached across windows, keyed by server;
    /// re-bound only when the dispatched pinglist's version changes
    /// (incremental re-plans keep untouched lists at their old version,
    /// see [`Deployment::rebase_versions`]). Batches are `Arc`-shared so
    /// the pipelined scheduler can ship them to probe workers without
    /// re-binding.
    pub(crate) bound: HashMap<NodeId, Arc<PingerBatch>>,
}

impl Detector {
    /// Starts building a detector for `topo`.
    pub fn builder(topo: SharedTopology) -> DetectorBuilder {
        DetectorBuilder {
            topo,
            cfg: SystemConfig::default(),
            sinks: Vec::new(),
            offline: Vec::new(),
        }
    }

    /// Builds a detector with no sinks — shorthand for
    /// `Detector::builder(topo).config(cfg).build()`.
    pub fn new(topo: SharedTopology, cfg: SystemConfig) -> Result<Self, BuildError> {
        Self::builder(topo).config(cfg).build()
    }

    /// Registers an additional event sink on a built detector.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// The probe matrix currently deployed.
    pub fn matrix(&self) -> &ProbeMatrix {
        &self.deployment.matrix
    }

    /// The monitored topology.
    pub fn topology(&self) -> &dyn DcnTopology {
        self.topo.as_ref()
    }

    /// A shared handle to the monitored topology.
    pub fn topology_arc(&self) -> SharedTopology {
        Arc::clone(&self.topo)
    }

    /// The live topology view (epoch, offline links, drained switches).
    pub fn view(&self) -> &TopologyView {
        self.controller.view()
    }

    /// The partitioned probe plan behind the current deployment: exposes
    /// the per-cell `PathId` ranges and the cells a delta would touch,
    /// so dispatch stability can be asserted from the outside.
    pub fn probe_plan(&self) -> Option<&crate::ProbePlan> {
        self.controller.probe_plan()
    }

    /// The topology view's current epoch.
    pub fn epoch(&self) -> u64 {
        self.controller.epoch()
    }

    /// The pinglists of the current deployment.
    pub fn pinglists(&self) -> &[Pinglist] {
        &self.deployment.pinglists
    }

    /// Applies a topology event between windows: the view absorbs it, the
    /// probe plan is incrementally patched (only the PMC subproblems the
    /// delta touches are re-solved), pinglists are re-dispatched — lists
    /// whose assignment is unchanged keep their version, so their pingers
    /// are not re-bound. Path ids are *segmented*: every plan cell owns a
    /// stable `PathId` range with headroom, so a delta that changes one
    /// cell's path count leaves every other cell's ids — and therefore
    /// the pinglists that carry only those cells' paths — bit-identical.
    /// A [`RuntimeEvent::PlanUpdated`] (carrying the re-dispatch count)
    /// is emitted to every sink.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use detector_system::{Detector, SystemConfig};
    /// use detector_topology::{Fattree, TopologyEvent};
    ///
    /// let ft = Arc::new(Fattree::new(4).unwrap());
    /// let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
    /// let update = run
    ///     .apply(&TopologyEvent::LinkDown { link: ft.ea_link(0, 0, 0) })
    ///     .unwrap();
    /// assert_eq!(update.epoch, 1);
    /// assert_eq!(update.links_changed, 1);
    /// // No deployed path crosses the dead link any more.
    /// assert!(run.matrix().uncoverable.contains(&ft.ea_link(0, 0, 0)));
    /// ```
    pub fn apply(&mut self, event: &TopologyEvent) -> Result<PlanUpdate, PmcError> {
        // detlint::allow(determinism, reason = "replan_micros stopwatch; measurement only, never branches")
        let t0 = Instant::now();
        let ranges_before = self.controller.probe_plan().map(|p| p.cell_ranges());
        let mut update = self.controller.apply_event(event)?;
        if update.links_changed > 0 {
            let dep = self
                .controller
                .build_deployment(self.watchdog.unhealthy_set())?;
            // Cells whose id range moved (overflow re-base): the wire
            // diff broadcasts them so agents can retire the old ids.
            let ranges_after = self.controller.probe_plan().map(|p| p.cell_ranges());
            let rebases = rebase_pairs(ranges_before.as_deref(), ranges_after.as_deref());
            let stats = self.install_deployment(dep, &rebases);
            update.lists_redispatched = stats.lists_redispatched;
            update.entries_diffed = stats.entries_diffed;
            update.bytes_dispatched = stats.bytes_dispatched;
        }
        // Report the full replan latency: view update + plan patch +
        // matrix assembly + pinglist re-dispatch.
        update.replan_micros = t0.elapsed().as_micros() as u64;
        let ev = RuntimeEvent::PlanUpdated {
            epoch: update.epoch,
            links_changed: update.links_changed,
            probes_delta: update.probes_delta,
            lists_redispatched: update.lists_redispatched,
            entries_diffed: update.entries_diffed,
            bytes_dispatched: update.bytes_dispatched,
            replan_micros: update.replan_micros,
        };
        for s in self.sinks.iter_mut() {
            s.on_event(&ev);
        }
        Ok(update)
    }

    /// Installs a fresh deployment: rebases versions so unchanged lists
    /// keep their cached pinger bindings, points the diagnoser at the new
    /// matrix, and prunes bindings of servers no longer on pinger duty.
    /// Shared by [`Detector::apply`] and the cycle refresh in
    /// [`Detector::step`]. Returns the dispatch cost.
    fn install_deployment(
        &mut self,
        dep: Deployment,
        rebases: &[(PathIdRange, PathIdRange)],
    ) -> DispatchStats {
        let (matrix, stats) =
            install_dispatched(&mut self.deployment, &mut self.bound, dep, rebases);
        self.diagnoser.set_matrix(matrix);
        stats
    }

    /// Scheduled detection probes per window (before loss confirmations):
    /// pingers × rate × window.
    pub fn scheduled_probes_per_window(&self) -> u64 {
        self.deployment.pinglists.len() as u64
            * (self.cfg.probe_rate_pps * self.cfg.window_s as f64) as u64
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> u64 {
        self.clock.now_s()
    }

    /// Classifies the loss pattern behind a suspect link from a past
    /// window's per-flow counters (§7 — narrows the operator's diagnosis
    /// scope: link down vs blackhole vs random corruption vs congestion).
    pub fn classify_suspect(&self, window: u64, link: LinkId) -> Option<LossClassification> {
        self.diagnoser
            .classify_suspect(window, link, &self.watchdog)
    }

    /// A past window's aggregated path observations from the raw report
    /// store, excluding watchdog-flagged pingers: plain `localize` over
    /// them and [`matrix`](Detector::matrix) is the full-rescore oracle
    /// for that window's diagnosis.
    pub fn observations(&self, window: u64) -> Vec<PathObservation> {
        self.diagnoser.observations(window, &self.watchdog)
    }

    /// Runs one window against `dataplane`: every healthy pinger probes
    /// its list, reports are ingested, and the diagnoser runs PLL.
    ///
    /// Event order per window: `WindowStarted`, then an optional
    /// `CycleRefreshed` (exactly on cycle boundaries), then one
    /// `PingerUnhealthy` or `ReportIngested` per pinger, and finally
    /// `DiagnosisReady` carrying the returned [`WindowResult`].
    ///
    /// Exactly one `u64` is drawn from `rng` per window (the window's
    /// master seed); each server's probe stream is a [`PingerBatch`] RNG
    /// derived from it via [`batch_seed`](crate::batch_seed). A window's
    /// outcome therefore does not depend on the order servers probe in —
    /// which is what lets [`run_pipelined`](Detector::run_pipelined)
    /// produce identical results while probing concurrently.
    pub fn step(&mut self, dataplane: &dyn DataPlane, rng: &mut SmallRng) -> WindowResult {
        let window = self.window;
        let start_s = self.clock.now_s();
        let emit = |ev: RuntimeEvent, sinks: &mut Vec<Box<dyn EventSink>>| {
            for s in sinks.iter_mut() {
                s.on_event(&ev);
            }
        };

        emit(
            RuntimeEvent::WindowStarted { window, start_s },
            &mut self.sinks,
        );
        dataplane.window_started(window, start_s);

        // Controller cycle boundary: recompute pinglists (topology or
        // health may have changed). The matrix itself is recomputed too,
        // matching §6.1's 10-minute refresh. cycle_s == 0 is rejected at
        // build time (ConfigError::ZeroCycle), so the boundary check is
        // well defined here.
        if window > 0 && start_s.is_multiple_of(self.cfg.cycle_s) {
            if let Ok(dep) = self
                .controller
                .build_deployment(self.watchdog.unhealthy_set())
            {
                let (version, num_paths) = (dep.version, dep.matrix.num_paths());
                self.install_deployment(dep, &[]);
                emit(
                    RuntimeEvent::CycleRefreshed {
                        window,
                        version,
                        num_paths,
                    },
                    &mut self.sinks,
                );
            }
        }

        let window_seed: u64 = rng.gen();
        let mut probes_sent = 0u64;
        let graph = self.topo.graph();
        for list in &self.deployment.pinglists {
            if !self.watchdog.is_healthy(list.pinger) {
                emit(
                    RuntimeEvent::PingerUnhealthy {
                        window,
                        pinger: list.pinger,
                    },
                    &mut self.sinks,
                );
                continue;
            }
            // Re-bind only when the dispatched list changed: an
            // incremental re-plan leaves untouched lists at their old
            // version.
            let batch = bound_batch(&mut self.bound, list, graph);
            let report = batch.run_window(dataplane, &self.cfg, window, window_seed);
            let sent = report.total_sent();
            probes_sent += sent;
            emit(
                RuntimeEvent::ReportIngested {
                    window,
                    pinger: list.pinger,
                    probes_sent: sent,
                    num_paths: report.paths.len(),
                },
                &mut self.sinks,
            );
            // Server health comes from the management plane (heartbeats),
            // not from dataplane loss: an all-lost report usually means the
            // pinger's rack uplink or ToR failed — precisely what the
            // diagnoser must see, not a reason to silence the pinger.
            // External health marks (watchdog.mark_unhealthy) still exclude
            // reports and pinger duty.
            self.diagnoser.ingest(report);
        }

        let event = self.diagnoser.diagnose(window, &self.watchdog);
        self.clock.advance_s(self.cfg.window_s);
        self.window += 1;
        // Keep a few windows of history, as the paper's database would.
        self.diagnoser.prune_before(window.saturating_sub(20));

        for ev in event.stats_events() {
            emit(ev, &mut self.sinks);
        }
        let result = WindowResult {
            window,
            start_s,
            probes_sent,
            num_observations: event.num_observations,
            diagnosis: event.diagnosis,
        };
        emit(
            RuntimeEvent::DiagnosisReady(result.clone()),
            &mut self.sinks,
        );
        dataplane.window_finished(window, self.clock.now_s());
        result
    }
}

/// The shared deployment-installation protocol, minus the diagnoser
/// handoff (in the pipelined scheduler the diagnosis stage owns the
/// diagnoser, so the dispatcher calls this and ships the returned matrix
/// in the window's meta record): rebase pinglist versions so cached
/// batches stay valid, compute the wire diff and its cost, install, and
/// prune batches of servers no longer on pinger duty. Any change to the
/// install protocol must go through here (or through
/// [`rebase_and_diff`], which the distributed controller in
/// `detector-agent` shares) — sequential/pipelined/distributed
/// equivalence depends on every driver running the identical procedure.
pub(crate) fn install_dispatched(
    deployment: &mut Deployment,
    bound: &mut HashMap<NodeId, Arc<PingerBatch>>,
    mut dep: Deployment,
    rebases: &[(PathIdRange, PathIdRange)],
) -> (ProbeMatrix, DispatchStats) {
    let (_, stats) = rebase_and_diff(deployment, &mut dep, rebases);
    *deployment = dep;
    let active: HashSet<NodeId> = deployment.pinglists.iter().map(|l| l.pinger).collect();
    bound.retain(|k, _| active.contains(k));
    (deployment.matrix.clone(), stats)
}

/// The batch serving `list`, re-binding first iff the dispatched list
/// changed (§3.2's idempotent pinglist refresh). The binding cache is
/// keyed on (version, content stamp) so a refresh can never serve a
/// pre-re-base binding; going through the entry keeps insert-then-get a
/// single infallible operation. Shared by both drivers — see
/// [`install_dispatched`] on why they must stay identical.
pub(crate) fn bound_batch(
    bound: &mut HashMap<NodeId, Arc<PingerBatch>>,
    list: &Pinglist,
    graph: &Dcn,
) -> Arc<PingerBatch> {
    match bound.entry(list.pinger) {
        Entry::Occupied(mut e) => {
            if !e.get().bound_to(list) {
                e.insert(Arc::new(PingerBatch::bind(list.clone(), graph)));
            }
            Arc::clone(e.get())
        }
        Entry::Vacant(e) => Arc::clone(e.insert(Arc::new(PingerBatch::bind(list.clone(), graph)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pll::evaluate_diagnosis;
    use detector_simnet::{Fabric, FailureGenerator, LossDiscipline};
    use detector_topology::Fattree;
    use rand::SeedableRng;

    fn detector(cfg: SystemConfig) -> Detector {
        Detector::new(Arc::new(Fattree::new(4).unwrap()), cfg).unwrap()
    }

    #[test]
    fn clean_fabric_produces_clean_diagnoses() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..3 {
            let w = run.step(&fabric, &mut rng);
            assert!(w.diagnosis.suspects.is_empty(), "window {}", w.window);
            assert!(w.probes_sent > 0);
        }
    }

    #[test]
    fn full_link_failure_is_localized_within_one_window() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ac_link(2, 1, 0);
        fabric.set_discipline_both(bad, LossDiscipline::Full);
        let mut rng = SmallRng::seed_from_u64(2);
        let w = run.step(&fabric, &mut rng);
        assert!(
            w.diagnosis.suspect_links().contains(&bad),
            "suspects: {:?}",
            w.diagnosis.suspect_links()
        );
    }

    #[test]
    fn random_scenarios_reach_high_accuracy() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let gen = FailureGenerator::links_only().with_min_rate(0.05);
        let mut acc_sum = 0.0;
        let n = 10;
        for _ in 0..n {
            let mut fabric = Fabric::quiet(&ft);
            let scenario = gen.sample(&ft, 1, &mut rng);
            fabric.apply_scenario(&scenario);
            let w = run.step(&fabric, &mut rng);
            let m = evaluate_diagnosis(&w.diagnosis.suspect_links(), &scenario.ground_truth(&ft));
            acc_sum += m.accuracy;
        }
        let acc = acc_sum / n as f64;
        assert!(acc >= 0.7, "accuracy {acc}");
    }

    #[test]
    fn clock_advances_per_window() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(run.now_s(), 0);
        run.step(&fabric, &mut rng);
        assert_eq!(run.now_s(), 30);
    }

    #[test]
    fn zero_cycle_is_rejected_at_build_time() {
        let topo: SharedTopology = Arc::new(Fattree::new(4).unwrap());
        let cfg = SystemConfig {
            cycle_s: 0,
            ..SystemConfig::default()
        };
        match Detector::new(topo, cfg).err() {
            Some(BuildError::Config(ConfigError::ZeroCycle)) => {}
            other => panic!("expected ConfigError::ZeroCycle, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_each_invalid_field() {
        let topo: SharedTopology = Arc::new(Fattree::new(4).unwrap());
        let cases: Vec<(SystemConfig, ConfigError)> = vec![
            (
                SystemConfig {
                    window_s: 0,
                    ..SystemConfig::default()
                },
                ConfigError::ZeroWindow,
            ),
            (
                SystemConfig {
                    probe_rate_pps: 0.0,
                    ..SystemConfig::default()
                },
                ConfigError::NonPositiveProbeRate,
            ),
            (
                SystemConfig {
                    probe_rate_pps: f64::NAN,
                    ..SystemConfig::default()
                },
                ConfigError::NonPositiveProbeRate,
            ),
            (
                SystemConfig {
                    dscp_classes: vec![],
                    ..SystemConfig::default()
                },
                ConfigError::NoDscpClasses,
            ),
            (
                SystemConfig {
                    pingers_per_tor: 0,
                    ..SystemConfig::default()
                },
                ConfigError::ZeroPingersPerTor,
            ),
            (
                SystemConfig {
                    timeout_us: 0.0,
                    ..SystemConfig::default()
                },
                ConfigError::NonPositiveTimeout,
            ),
        ];
        for (cfg, want) in cases {
            match Detector::new(Arc::clone(&topo), cfg).err() {
                Some(BuildError::Config(got)) => assert_eq!(got, want),
                other => panic!("expected {want:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn detector_is_owned_and_outlives_its_construction_scope() {
        // The borrow-bound MonitorRun<'a> forced callers to Box::leak
        // topologies; the owned handle must move freely.
        let run = {
            let topo: SharedTopology = Arc::new(Fattree::new(4).unwrap());
            Detector::new(topo, SystemConfig::default()).unwrap()
        };
        assert!(run.matrix().num_paths() > 0);
        assert_eq!(run.topology().graph().num_switches(), 20);
    }
}
