//! The pipelined scheduler: overlapping probe, collection and diagnosis
//! stages across windows.
//!
//! The paper's controller runs its 30-second windows strictly in
//! sequence — probe, collect, diagnose, repeat. At production scale the
//! three stages are independent for *different* windows: window N+1's
//! probes can transmit while window N's reports are still being
//! diagnosed. [`Detector::run_pipelined`] exploits exactly that, as a
//! three-stage pipeline over `crossbeam` channels and scoped worker
//! threads:
//!
//! ```text
//!             ┌────────────────────┐   WindowMeta (bounded, depth)
//!  script ──▶ │  dispatch stage    │ ───────────────────────────────┐
//!  (churn,    │  (caller thread)   │   BatchJob                     │
//!   health)   │  replans, refreshes│ ──────────────┐                ▼
//!             │  cycles, seeds     │               ▼        ┌──────────────┐
//!             └────────────────────┘      ┌──────────────┐  │ diagnosis    │
//!                                         │ probe stage  │  │ stage        │
//!                                         │ (N workers,  │  │ (1 thread)   │
//!                                         │ PingerBatch) │─▶│ ingests,     │
//!                                         └──────────────┘  │ runs PLL,    │
//!                                           BatchDone       │ emits events │
//!                                                           └──────────────┘
//! ```
//!
//! * The **dispatch stage** (the calling thread) walks windows in order:
//!   it applies the window's scripted [`ScriptAction`]s (topology churn
//!   through the incremental re-planner, watchdog health marks),
//!   performs the cycle refresh on exactly the boundaries sequential
//!   [`Detector::step`] would, draws the window's master seed, and ships
//!   one [`PingerBatch`] job per healthy pinger.
//! * The **probe stage** is a pool of workers pulling batch jobs from a
//!   shared channel; each runs a server's whole pinglist for the window
//!   with its own RNG stream ([`batch_seed`](crate::batch_seed)) and posts the report.
//! * The **diagnosis stage** assembles each window's reports (stashing
//!   early arrivals from younger windows), ingests them in pinglist
//!   order, runs PLL, and emits the window's [`RuntimeEvent`]s.
//!
//! Windows in flight are bounded by [`PipelineConfig::depth`] via the
//! bounded meta channel, so a slow diagnosis stage back-pressures the
//! dispatcher instead of letting probes run unboundedly ahead.
//!
//! **Equivalence.** The pipelined run produces *exactly* the event
//! stream and [`WindowResult`]s of driving [`Detector::step`] over the
//! same script (the sequential oracle, [`Detector::run_scripted`]):
//! per-server probe outcomes are a pure function of the window's master
//! seed ([`batch_seed`](crate::batch_seed)), replans/refreshes happen at the same window
//! boundaries, the diagnosis stage snapshots the watchdog as of each
//! window's dispatch, and all events are emitted from one thread in
//! window order. The only permitted difference is the wall-clock
//! `replan_micros` field of `PlanUpdated`. This is property-tested in
//! `tests/scheduler_equivalence.rs`.
//!
//! One precondition: the *timing* of the [`DataPlane`] window hooks
//! differs. The dispatcher fires `window_started(N+1)` while window N's
//! batches may still be probing (that is the overlap), and
//! `window_finished` fires from the diagnosis stage. A data plane whose
//! hooks mutate probe behavior — e.g. `tests/scheduler_soak.rs`'s
//! `ChurnFabric`, which applies fabric churn in `window_started` — is
//! therefore **outside** the equivalence guarantee at depth > 1: probes
//! of an in-flight window can observe a younger window's fabric state.
//! Equivalence holds for any data plane whose probe outcomes are a pure
//! function of `(route, flow, rng)` between hook calls, which includes
//! the plain `Fabric`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;
use detector_core::pmc::{PmcError, ProbeMatrix};
use detector_core::types::NodeId;
use detector_topology::TopologyEvent;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::controller::Controller;
use crate::dataplane::DataPlane;
use crate::dispatch::{rebase_pairs, DispatchStats};
use crate::events::{RuntimeEvent, WindowResult};
use crate::pinger::PingerBatch;
use crate::report::PingerReport;
use crate::runtime::{bound_batch, install_dispatched, Detector};
use crate::watchdog::Watchdog;
use crate::SystemConfig;

/// One scripted action, applied at the start of its window (before that
/// window's probes are dispatched), in push order within the window.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptAction {
    /// Apply a topology event through the incremental re-planner (what
    /// [`Detector::apply`] does between sequential windows).
    Topology(TopologyEvent),
    /// Mark a server unhealthy (management-plane watchdog signal): it is
    /// dropped from pinger duty and its reports are excluded.
    MarkUnhealthy(NodeId),
    /// Clear a server's unhealthy mark.
    MarkHealthy(NodeId),
}

/// A windowed script of runtime actions — churn and pinger failures —
/// consumed by both [`Detector::run_scripted`] (the sequential oracle)
/// and [`Detector::run_pipelined`]. Window indices are **relative to the
/// start of the run** (0 = before the first window of the run).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Script {
    /// `(window, action)` pairs, sorted by window (stable within one).
    actions: Vec<(u64, ScriptAction)>,
}

impl Script {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action firing before `window` (builder style). Actions
    /// pushed for the same window keep their push order.
    pub fn at(mut self, window: u64, action: ScriptAction) -> Self {
        self.actions.push((window, action));
        // Stable sort: same-window actions keep push order.
        self.actions.sort_by_key(|(w, _)| *w);
        self
    }

    /// Adds a topology event firing before `window`.
    pub fn topology(self, window: u64, event: TopologyEvent) -> Self {
        self.at(window, ScriptAction::Topology(event))
    }

    /// Marks `server` unhealthy before `window`.
    pub fn mark_unhealthy(self, window: u64, server: NodeId) -> Self {
        self.at(window, ScriptAction::MarkUnhealthy(server))
    }

    /// Clears `server`'s unhealthy mark before `window`.
    pub fn mark_healthy(self, window: u64, server: NodeId) -> Self {
        self.at(window, ScriptAction::MarkHealthy(server))
    }

    /// Builds a script from `(window, TopologyEvent)` pairs — e.g. the
    /// entries of a `detector_simnet::ChurnSchedule`.
    pub fn from_topology_events(events: impl IntoIterator<Item = (u64, TopologyEvent)>) -> Self {
        events
            .into_iter()
            .fold(Self::new(), |s, (w, ev)| s.topology(w, ev))
    }

    /// The actions due before the run's `window`-th window.
    pub fn due(&self, window: u64) -> impl Iterator<Item = &ScriptAction> {
        self.actions
            .iter()
            .filter(move |(w, _)| *w == window)
            .map(|(_, a)| a)
    }

    /// Total number of scripted actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no action is scripted.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Shape of the pipeline: how wide the probe stage fans out and how many
/// windows may be in flight at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Worker threads in the probe stage (each runs whole
    /// [`PingerBatch`]es). Clamped to ≥ 1.
    pub probe_workers: usize,
    /// Maximum windows in flight across the stages (the bounded meta
    /// channel's capacity). 1 degenerates to lock-step; ≥ 2 overlaps
    /// window N's diagnosis with window N+1's probing. Clamped to ≥ 1.
    pub depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self {
            probe_workers: cores.clamp(1, 8),
            depth: 2,
        }
    }
}

impl PipelineConfig {
    /// A pipeline with `probe_workers` workers and the default depth.
    pub fn with_workers(probe_workers: usize) -> Self {
        Self {
            probe_workers,
            ..Self::default()
        }
    }
}

/// Why a pipelined run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// A scripted topology event failed to re-plan; windows dispatched
    /// before the failure were completed and their events emitted, but
    /// the run's results are discarded.
    Replan(PmcError),
    /// A pipeline stage panicked or disconnected unexpectedly.
    Stage(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Replan(e) => write!(f, "scripted re-plan failed: {e}"),
            PipelineError::Stage(s) => write!(f, "pipeline stage failure: {s}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PmcError> for PipelineError {
    fn from(e: PmcError) -> Self {
        PipelineError::Replan(e)
    }
}

/// One probe-stage work item: a server's batch for one window.
struct BatchJob {
    window: u64,
    /// The window's master seed; the batch derives its own stream from
    /// it ([`batch_seed`](crate::batch_seed)), exactly as sequential `step` does.
    window_seed: u64,
    batch: Arc<PingerBatch>,
}

/// One probe-stage completion. `report` is `None` when the batch
/// panicked (e.g. a `DataPlane::probe` implementation blew up): the
/// diagnosis stage turns that into a [`PipelineError::Stage`] instead of
/// waiting forever for a report that will never come.
struct BatchDone {
    window: u64,
    pinger: NodeId,
    report: Option<PingerReport>,
}

/// Everything the diagnosis stage needs to finish one window, sent by
/// the dispatcher in window order.
struct WindowMeta {
    window: u64,
    start_s: u64,
    end_s: u64,
    /// Events to emit before `WindowStarted` (scripted `PlanUpdated`s).
    pre_events: Vec<RuntimeEvent>,
    /// `CycleRefreshed` payload, when this window sits on a boundary.
    cycle: Option<(u64, usize)>,
    /// New probe matrix for the diagnoser when the deployment changed.
    new_matrix: Option<ProbeMatrix>,
    /// Every pinger of the window's deployment in pinglist order, with
    /// its health at dispatch time (unhealthy ⇒ no report expected).
    roster: Vec<(NodeId, bool)>,
    /// Watchdog snapshot as of this window's dispatch, used to filter
    /// reports at diagnosis time exactly like sequential `step` does.
    watchdog: Watchdog,
    /// True for the trailing record sent when a scripted re-plan fails
    /// mid-window: only `pre_events` (the `PlanUpdated`s of the actions
    /// that *did* apply, matching what sequential `apply` would have
    /// emitted before erroring) and `new_matrix` are consumed; the
    /// window itself never runs.
    flush_only: bool,
}

impl Detector {
    /// Drives `windows` sequential [`step`](Detector::step)s, applying
    /// the script's due actions before each — the **sequential oracle**
    /// the pipelined runtime is proven equivalent to. Window indices in
    /// `script` are relative to the start of this run.
    pub fn run_scripted(
        &mut self,
        dataplane: &dyn DataPlane,
        windows: u64,
        script: &Script,
        rng: &mut SmallRng,
    ) -> Result<Vec<WindowResult>, PmcError> {
        let mut out = Vec::with_capacity(windows as usize);
        for i in 0..windows {
            for action in script.due(i) {
                match action {
                    ScriptAction::Topology(ev) => {
                        self.apply(ev)?;
                    }
                    ScriptAction::MarkUnhealthy(s) => self.watchdog.mark_unhealthy(*s),
                    ScriptAction::MarkHealthy(s) => self.watchdog.mark_healthy(*s),
                }
            }
            out.push(self.step(dataplane, rng));
        }
        Ok(out)
    }

    /// Runs `windows` windows through the pipelined scheduler: probe
    /// dispatch, report collection and diagnosis overlap across windows
    /// (dispatch / probe-worker / diagnosis stages; the `scheduler`
    /// module source documents the layout), while the
    /// emitted event stream and returned [`WindowResult`]s are identical
    /// to [`run_scripted`](Detector::run_scripted) over the same inputs
    /// — up to the wall-clock `replan_micros` field of `PlanUpdated`.
    ///
    /// The data plane must be `Sync`: probe-stage workers share it. The
    /// simulated `Fabric` qualifies ([`probe`](DataPlane::probe) takes
    /// `&self`).
    ///
    /// The equivalence guarantee assumes probe outcomes are a pure
    /// function of `(route, flow, rng)`: the [`DataPlane`] *window
    /// hooks* fire at pipeline timing (`window_started(N+1)` while
    /// window N may still be probing), so a data plane that mutates its
    /// own probe behavior from those hooks diverges from the sequential
    /// oracle at depth > 1 (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use detector_simnet::Fabric;
    /// use detector_system::{Detector, PipelineConfig, Script, SystemConfig};
    /// use detector_topology::Fattree;
    /// use rand::SeedableRng;
    ///
    /// let ft = Arc::new(Fattree::new(4).unwrap());
    /// let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
    /// let fabric = Fabric::quiet(ft.as_ref());
    /// let mut rng = <rand::rngs::SmallRng as SeedableRng>::seed_from_u64(1);
    /// let results = run
    ///     .run_pipelined(&fabric, 3, &Script::new(), &PipelineConfig::default(), &mut rng)
    ///     .unwrap();
    /// assert_eq!(results.len(), 3);
    /// assert!(results.iter().all(|w| w.diagnosis.suspects.is_empty()));
    /// ```
    pub fn run_pipelined(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &Script,
        pipeline: &PipelineConfig,
        rng: &mut SmallRng,
    ) -> Result<Vec<WindowResult>, PipelineError> {
        if windows == 0 {
            return Ok(Vec::new());
        }
        let workers = pipeline.probe_workers.max(1);
        let depth = pipeline.depth.max(1);

        // Disjoint field borrows: the dispatcher (this thread) owns the
        // planning state, the diagnosis stage owns the diagnoser and the
        // sinks.
        let cfg: &SystemConfig = &self.cfg;
        let graph = self.topo.graph();
        let controller: &mut Controller = &mut self.controller;
        let deployment = &mut self.deployment;
        let diagnoser = &mut self.diagnoser;
        let watchdog = &mut self.watchdog;
        let clock = &mut self.clock;
        let window_counter = &mut self.window;
        let sinks = &mut self.sinks;
        let bound = &mut self.bound;

        let (job_tx, job_rx) = channel::unbounded::<BatchJob>();
        let (done_tx, done_rx) = channel::unbounded::<BatchDone>();
        // The bounded meta channel is the pipeline-depth regulator: the
        // dispatcher blocks here once `depth` windows are in flight.
        let (meta_tx, meta_rx) = channel::bounded::<WindowMeta>(depth);

        let mut dispatch_err: Option<PmcError> = None;

        let run = crossbeam::thread::scope(|scope| {
            // Probe stage.
            for _ in 0..workers {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                scope.spawn(move |_| {
                    while let Ok(job) = job_rx.recv() {
                        // A panicking DataPlane must not strand the
                        // diagnosis stage waiting for a report that will
                        // never come (the other workers would keep
                        // done_rx connected): catch it and let the
                        // collector surface a PipelineError::Stage
                        // instead.
                        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            job.batch
                                .run_window(dataplane, cfg, job.window, job.window_seed)
                        }))
                        .ok();
                        let panicked = report.is_none();
                        let done = BatchDone {
                            window: job.window,
                            pinger: job.batch.server(),
                            report,
                        };
                        if done_tx.send(done).is_err() || panicked {
                            break; // Diagnosis stage gone, or this worker is compromised.
                        }
                    }
                });
            }
            // Keep disconnect tracking on the worker clones only.
            drop(job_rx);
            drop(done_tx);

            // Diagnosis stage.
            let collector = scope.spawn(move |_| -> Result<Vec<WindowResult>, PipelineError> {
                let mut results = Vec::new();
                // Reports that arrived before their window's meta.
                let mut stash: HashMap<u64, HashMap<NodeId, PingerReport>> = HashMap::new();
                let mut emit = |ev: RuntimeEvent| {
                    for s in sinks.iter_mut() {
                        s.on_event(&ev);
                    }
                };
                for meta in meta_rx.iter() {
                    for ev in meta.pre_events {
                        emit(ev);
                    }
                    if let Some(matrix) = meta.new_matrix {
                        diagnoser.set_matrix(matrix);
                    }
                    if meta.flush_only {
                        continue;
                    }
                    emit(RuntimeEvent::WindowStarted {
                        window: meta.window,
                        start_s: meta.start_s,
                    });
                    if let Some((version, num_paths)) = meta.cycle {
                        emit(RuntimeEvent::CycleRefreshed {
                            window: meta.window,
                            version,
                            num_paths,
                        });
                    }

                    let expected = meta.roster.iter().filter(|(_, h)| *h).count();
                    let mut have = stash.remove(&meta.window).unwrap_or_default();
                    while have.len() < expected {
                        let Ok(done) = done_rx.recv() else {
                            return Err(PipelineError::Stage(
                                "probe stage disconnected mid-window",
                            ));
                        };
                        let Some(report) = done.report else {
                            return Err(PipelineError::Stage(
                                "probe worker panicked while probing",
                            ));
                        };
                        if done.window == meta.window {
                            have.insert(done.pinger, report);
                        } else {
                            // A younger window's report outran this
                            // window's stragglers.
                            stash
                                .entry(done.window)
                                .or_default()
                                .insert(done.pinger, report);
                        }
                    }

                    let mut probes_sent = 0u64;
                    for (pinger, healthy) in &meta.roster {
                        if !healthy {
                            emit(RuntimeEvent::PingerUnhealthy {
                                window: meta.window,
                                pinger: *pinger,
                            });
                            continue;
                        }
                        let Some(report) = have.remove(pinger) else {
                            return Err(PipelineError::Stage(
                                "probe stage omitted a healthy pinger's report",
                            ));
                        };
                        let sent = report.total_sent();
                        probes_sent += sent;
                        emit(RuntimeEvent::ReportIngested {
                            window: meta.window,
                            pinger: *pinger,
                            probes_sent: sent,
                            num_paths: report.paths.len(),
                        });
                        diagnoser.ingest(report);
                    }

                    let event = diagnoser.diagnose(meta.window, &meta.watchdog);
                    diagnoser.prune_before(meta.window.saturating_sub(20));
                    for ev in event.stats_events() {
                        emit(ev);
                    }
                    let result = WindowResult {
                        window: meta.window,
                        start_s: meta.start_s,
                        probes_sent,
                        num_observations: event.num_observations,
                        diagnosis: event.diagnosis,
                    };
                    emit(RuntimeEvent::DiagnosisReady(result.clone()));
                    dataplane.window_finished(meta.window, meta.end_s);
                    results.push(result);
                }
                Ok(results)
            });

            // Dispatch stage (this thread).
            for i in 0..windows {
                let window = *window_counter;
                let start_s = clock.now_s();
                let mut pre_events = Vec::new();
                let mut new_matrix: Option<ProbeMatrix> = None;

                for action in script.due(i) {
                    match action {
                        ScriptAction::Topology(ev) => {
                            // Mirrors `Detector::apply`, with the
                            // diagnoser's matrix handoff deferred to the
                            // diagnosis stage via the meta record.
                            // detlint::allow(determinism, reason = "replan_micros stopwatch; measurement only, never branches")
                            let t0 = Instant::now();
                            let ranges_before = controller.probe_plan().map(|p| p.cell_ranges());
                            let update = match controller.apply_event(ev) {
                                Ok(u) => u,
                                Err(e) => {
                                    dispatch_err = Some(e);
                                    break;
                                }
                            };
                            let mut stats = DispatchStats::default();
                            if update.links_changed > 0 {
                                match controller.build_deployment(watchdog.unhealthy_set()) {
                                    Ok(dep) => {
                                        let ranges_after =
                                            controller.probe_plan().map(|p| p.cell_ranges());
                                        let rebases = rebase_pairs(
                                            ranges_before.as_deref(),
                                            ranges_after.as_deref(),
                                        );
                                        let (matrix, s) =
                                            install_dispatched(deployment, bound, dep, &rebases);
                                        new_matrix = Some(matrix);
                                        stats = s;
                                    }
                                    Err(e) => {
                                        dispatch_err = Some(e);
                                        break;
                                    }
                                }
                            }
                            pre_events.push(RuntimeEvent::PlanUpdated {
                                epoch: update.epoch,
                                links_changed: update.links_changed,
                                probes_delta: update.probes_delta,
                                lists_redispatched: stats.lists_redispatched,
                                entries_diffed: stats.entries_diffed,
                                bytes_dispatched: stats.bytes_dispatched,
                                replan_micros: t0.elapsed().as_micros() as u64,
                            });
                        }
                        ScriptAction::MarkUnhealthy(s) => watchdog.mark_unhealthy(*s),
                        ScriptAction::MarkHealthy(s) => watchdog.mark_healthy(*s),
                    }
                }
                if dispatch_err.is_some() {
                    // Actions before the failing one did apply (matching
                    // sequential `apply`, which emits each PlanUpdated
                    // before the next action can fail): flush their
                    // events and the installed matrix to the diagnosis
                    // stage instead of silently dropping them.
                    if !pre_events.is_empty() || new_matrix.is_some() {
                        let _ = meta_tx.send(WindowMeta {
                            window,
                            start_s,
                            end_s: start_s,
                            pre_events,
                            cycle: None,
                            new_matrix,
                            roster: Vec::new(),
                            watchdog: watchdog.clone(),
                            flush_only: true,
                        });
                    }
                    break;
                }

                // Cycle refresh: the same boundary condition as
                // sequential `step`.
                let mut cycle = None;
                if window > 0 && start_s.is_multiple_of(cfg.cycle_s) {
                    if let Ok(dep) = controller.build_deployment(watchdog.unhealthy_set()) {
                        let version = dep.version;
                        let (matrix, _) = install_dispatched(deployment, bound, dep, &[]);
                        new_matrix = Some(matrix);
                        cycle = Some((version, deployment.matrix.num_paths()));
                    }
                }

                dataplane.window_started(window, start_s);
                let window_seed: u64 = rng.gen();

                let mut roster = Vec::with_capacity(deployment.pinglists.len());
                let mut jobs = Vec::new();
                for list in &deployment.pinglists {
                    let healthy = watchdog.is_healthy(list.pinger);
                    roster.push((list.pinger, healthy));
                    if !healthy {
                        continue;
                    }
                    jobs.push(BatchJob {
                        window,
                        window_seed,
                        batch: bound_batch(bound, list, graph),
                    });
                }

                let meta = WindowMeta {
                    window,
                    start_s,
                    end_s: start_s + cfg.window_s,
                    pre_events,
                    cycle,
                    new_matrix,
                    roster,
                    watchdog: watchdog.clone(),
                    flush_only: false,
                };
                if meta_tx.send(meta).is_err() {
                    break; // Diagnosis stage is gone; surface its error below.
                }
                for job in jobs {
                    if job_tx.send(job).is_err() {
                        break;
                    }
                }
                clock.advance_s(cfg.window_s);
                *window_counter += 1;
            }

            // End of input: disconnect the stages and drain.
            drop(meta_tx);
            drop(job_tx);
            match collector.join() {
                Ok(r) => r,
                Err(_) => Err(PipelineError::Stage("diagnosis stage panicked")),
            }
        })
        .map_err(|_| PipelineError::Stage("probe worker panicked"))?;

        match dispatch_err {
            Some(e) => Err(PipelineError::Replan(e)),
            None => run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CollectingSink;
    use detector_simnet::{Fabric, LossDiscipline};
    use detector_topology::Fattree;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn detector(ft: &Arc<Fattree>, sink: Option<CollectingSink>) -> Detector {
        let mut b = Detector::builder(ft.clone());
        if let Some(s) = sink {
            b = b.sink(Box::new(s));
        }
        b.build().unwrap()
    }

    /// Normalizes a stream for cross-execution comparison.
    fn normalize(events: Vec<RuntimeEvent>) -> Vec<RuntimeEvent> {
        events.iter().map(RuntimeEvent::normalized).collect()
    }

    #[test]
    fn pipelined_matches_sequential_on_a_lossy_fabric() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut fabric = Fabric::new(ft.as_ref(), 11);
        fabric.set_discipline_both(
            ft.ac_link(1, 0, 0),
            LossDiscipline::RandomPartial { rate: 0.4 },
        );
        let script = Script::new()
            .topology(
                1,
                TopologyEvent::LinkDown {
                    link: ft.ea_link(0, 0, 0),
                },
            )
            .mark_unhealthy(2, ft.server(2, 0, 0))
            .topology(
                3,
                TopologyEvent::LinkUp {
                    link: ft.ea_link(0, 0, 0),
                },
            )
            .mark_healthy(4, ft.server(2, 0, 0));

        let seq_sink = CollectingSink::new();
        let mut seq = detector(&ft, Some(seq_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(99);
        let seq_results = seq.run_scripted(&fabric, 5, &script, &mut rng).unwrap();

        let pipe_sink = CollectingSink::new();
        let mut pipe = detector(&ft, Some(pipe_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(99);
        let pipe_results = pipe
            .run_pipelined(&fabric, 5, &script, &PipelineConfig::default(), &mut rng)
            .unwrap();

        assert_eq!(seq_results, pipe_results);
        assert_eq!(normalize(seq_sink.events()), normalize(pipe_sink.events()));
        // Both runs leave the detector in the same externally visible
        // state.
        assert_eq!(seq.now_s(), pipe.now_s());
        assert_eq!(seq.epoch(), pipe.epoch());
        assert_eq!(seq.matrix().paths, pipe.matrix().paths);
    }

    #[test]
    fn depth_one_pipeline_still_matches() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::new(ft.as_ref(), 3);
        let mut seq = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(5);
        let a = seq
            .run_scripted(&fabric, 3, &Script::new(), &mut rng)
            .unwrap();

        let mut pipe = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(5);
        let cfgp = PipelineConfig {
            probe_workers: 1,
            depth: 1,
        };
        let b = pipe
            .run_pipelined(&fabric, 3, &Script::new(), &cfgp, &mut rng)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_run_is_a_noop() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        let mut run = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = run
            .run_pipelined(
                &fabric,
                0,
                &Script::new(),
                &PipelineConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(run.now_s(), 0);
    }

    #[test]
    fn panicking_data_plane_errors_instead_of_hanging() {
        // A DataPlane::probe that blows up must surface as a
        // PipelineError::Stage; before the catch_unwind in the probe
        // worker this deadlocked the diagnosis stage (the surviving
        // workers kept the done channel connected while the panicked
        // batch's report never arrived).
        struct PanickingPlane;
        impl crate::DataPlane for PanickingPlane {
            fn probe(
                &self,
                _route: &detector_topology::Route,
                _flow: detector_simnet::FlowKey,
                _rng: &mut SmallRng,
            ) -> crate::ProbeOutcome {
                panic!("probe backend blew up");
            }
        }

        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut run = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(2);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // Silence expected worker panics.
        let res = run.run_pipelined(
            &PanickingPlane,
            3,
            &Script::new(),
            &PipelineConfig {
                probe_workers: 3,
                depth: 2,
            },
            &mut rng,
        );
        std::panic::set_hook(prev_hook);
        match res {
            Err(PipelineError::Stage(_)) => {}
            other => panic!("expected a stage error, got {other:?}"),
        }
    }

    #[test]
    fn script_orders_actions_within_a_window() {
        let link = detector_core::types::LinkId(4);
        let s = Script::new()
            .topology(2, TopologyEvent::LinkUp { link })
            .topology(0, TopologyEvent::LinkDown { link })
            .mark_unhealthy(2, NodeId(9));
        assert_eq!(s.len(), 3);
        let due: Vec<_> = s.due(2).collect();
        assert_eq!(
            due,
            vec![
                &ScriptAction::Topology(TopologyEvent::LinkUp { link }),
                &ScriptAction::MarkUnhealthy(NodeId(9)),
            ]
        );
        assert_eq!(s.due(1).count(), 0);
    }
}
