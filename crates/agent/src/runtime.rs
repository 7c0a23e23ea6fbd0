//! The controller tier: [`DistributedDetector`] drives probe windows
//! over a fleet of [`PingerAgent`](crate::PingerAgent)s and is proven
//! equivalent to the single-process sequential oracle.
//!
//! # Equivalence contract
//!
//! [`DistributedDetector::run_distributed`] emits the *identical* event
//! stream and [`WindowResult`]s as
//! [`Detector::run_scripted`](detector_system::Detector::run_scripted)
//! over [`DistScript::oracle`]'s expansion of the same script — up to
//! the wall-clock `replan_micros` field of `PlanUpdated`. The pillars:
//!
//! * **Same seeds.** Exactly one `u64` is drawn from the caller's RNG
//!   per window (the master seed); each batch derives its own stream via
//!   [`batch_seed`](detector_system::batch_seed), so probe outcomes are
//!   independent of where (or in what order) batches run.
//! * **Same dispatch procedure.** Deployments install through
//!   [`rebase_and_diff`] — the exact procedure the sequential and
//!   pipelined drivers share — and agents rebuild lists with
//!   [`apply_list_update`](detector_system::dispatch::apply_list_update),
//!   with the `ListSeal` stamp as an end-to-end checksum.
//! * **Same window protocol.** Events are emitted in `step()`'s order
//!   (`WindowStarted`, optional `CycleRefreshed`, per-pinglist
//!   `PingerUnhealthy`/`ReportIngested` in deployment order,
//!   `DiagnosisReady`), with reports collected from agents first and
//!   then ingested in pinglist order.
//!
//! # Failure semantics
//!
//! A dead agent (scripted [`DistAction::AgentDown`], a failed heartbeat,
//! or a transport that dies mid-window) degrades to per-rack
//! `PingerUnhealthy`: its whole host group is marked unhealthy, its
//! partial reports for the in-flight window are discarded, and the run
//! continues — a window is never stalled by a crashed agent. This is
//! exactly the oracle's `MarkUnhealthy` for every server of the group at
//! that window. One caveat, shared with the pipelined scheduler's
//! `ChurnFabric` precedent: a *mid-window* crash coinciding with a cycle
//! refresh or a scripted topology event in the same window re-plans with
//! pre-crash health in the distributed run but post-mark health in the
//! oracle; equivalence under unscripted crashes therefore holds for
//! windows without a coinciding re-plan (scripted `AgentDown` is always
//! exact, because its marks land before any dispatch).

use std::collections::HashMap;
use std::time::Instant;

use detector_core::pmc::PmcError;
use detector_core::types::{NodeId, PathIdRange};
use detector_simnet::{partition_hosts, HostGroups};
use detector_system::dispatch::{rebase_and_diff, rebase_pairs, DispatchStats, ListUpdate};
use detector_system::{
    BuildError, Controller, DataPlane, Deployment, Diagnoser, EventSink, RuntimeEvent, Script,
    SystemConfig, Watchdog, WindowResult,
};
use detector_system::{SimClock, TopologyEvent};
use detector_topology::SharedTopology;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::agent::PingerAgent;
use crate::frame::Frame;
use crate::transport::{flaky_loopback, loopback, ControlTransport};

/// One scripted action for a distributed run.
#[derive(Clone, Debug, PartialEq)]
pub enum DistAction {
    /// Apply a topology event through the incremental re-planner.
    Topology(TopologyEvent),
    /// Mark one server unhealthy (management-plane signal).
    MarkUnhealthy(NodeId),
    /// Clear one server's unhealthy mark.
    MarkHealthy(NodeId),
    /// Kill agent `g`: orderly shutdown of its process, whole host group
    /// marked unhealthy.
    AgentDown(usize),
    /// Restart agent `g`: fresh process, full resync of its owned lists,
    /// host group marked healthy again.
    AgentUp(usize),
}

/// A windowed script of churn, health marks and agent failures, applied
/// before each window's dispatch (push order within a window). Window
/// indices are relative to the start of the run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DistScript {
    actions: Vec<(u64, DistAction)>,
}

impl DistScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action firing before `window` (builder style; stable
    /// order within one window).
    pub fn at(mut self, window: u64, action: DistAction) -> Self {
        self.actions.push((window, action));
        self.actions.sort_by_key(|(w, _)| *w);
        self
    }

    /// Adds a topology event firing before `window`.
    pub fn topology(self, window: u64, event: TopologyEvent) -> Self {
        self.at(window, DistAction::Topology(event))
    }

    /// Marks `server` unhealthy before `window`.
    pub fn mark_unhealthy(self, window: u64, server: NodeId) -> Self {
        self.at(window, DistAction::MarkUnhealthy(server))
    }

    /// Clears `server`'s mark before `window`.
    pub fn mark_healthy(self, window: u64, server: NodeId) -> Self {
        self.at(window, DistAction::MarkHealthy(server))
    }

    /// Kills agent `g` before `window`.
    pub fn agent_down(self, window: u64, agent: usize) -> Self {
        self.at(window, DistAction::AgentDown(agent))
    }

    /// Restarts agent `g` before `window`.
    pub fn agent_up(self, window: u64, agent: usize) -> Self {
        self.at(window, DistAction::AgentUp(agent))
    }

    /// The actions due before the run's `window`-th window.
    pub fn due(&self, window: u64) -> impl Iterator<Item = &DistAction> {
        self.actions
            .iter()
            .filter(move |(w, _)| *w == window)
            .map(|(_, a)| a)
    }

    /// Total number of scripted actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Expands this script into the sequential oracle's [`Script`]:
    /// `AgentDown(g)` becomes `MarkUnhealthy` for every server of group
    /// `g` (ascending), `AgentUp(g)` the matching `MarkHealthy` fan-out,
    /// everything else passes through. Driving
    /// [`Detector::run_scripted`](detector_system::Detector::run_scripted)
    /// with the expansion reproduces the distributed run exactly.
    pub fn oracle(&self, groups: &HostGroups) -> Script {
        let mut script = Script::new();
        for (window, action) in &self.actions {
            match action {
                DistAction::Topology(ev) => script = script.topology(*window, *ev),
                DistAction::MarkUnhealthy(s) => script = script.mark_unhealthy(*window, *s),
                DistAction::MarkHealthy(s) => script = script.mark_healthy(*window, *s),
                DistAction::AgentDown(g) => {
                    for &s in groups.group(*g) {
                        script = script.mark_unhealthy(*window, s);
                    }
                }
                DistAction::AgentUp(g) => {
                    for &s in groups.group(*g) {
                        script = script.mark_healthy(*window, s);
                    }
                }
            }
        }
        script
    }
}

/// Why a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// A scripted topology event failed to re-plan.
    Replan(PmcError),
    /// An agent violated the wire protocol, or an agent thread panicked.
    Protocol(&'static str),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Replan(e) => write!(f, "scripted re-plan failed: {e}"),
            DistError::Protocol(s) => write!(f, "protocol failure: {s}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<PmcError> for DistError {
    fn from(e: PmcError) -> Self {
        DistError::Replan(e)
    }
}

/// What a distributed run produced, with wire accounting from the
/// loopback byte counters.
#[derive(Debug)]
pub struct DistOutcome {
    /// One result per completed window — identical to the oracle's.
    pub results: Vec<WindowResult>,
    /// Controller → agent bytes carrying pinglist material (initial
    /// sync, per-entry diffs, whole-list replacements, range re-bases,
    /// resyncs). This is the quantity the per-entry diff protocol
    /// minimizes: after the initial sync it grows with the *delta*, not
    /// the fleet.
    pub dispatch_bytes: u64,
    /// Total controller → agent bytes (dispatch + window orchestration +
    /// heartbeats + shutdowns).
    pub control_bytes: u64,
    /// Total agent → controller bytes (hellos, reports, acks).
    pub report_bytes: u64,
}

/// One controller-side agent slot: `None` transport = dead. Bytes moved
/// over transports of *previous* incarnations (killed or replaced) are
/// retired into the accumulators so a crash never loses accounting.
/// Generic over [`ControlTransport`]: loopback ends for the in-process
/// fleet, [`TcpTransport`](crate::TcpTransport) for real two-process
/// deployments.
struct AgentLink {
    transport: Option<Box<dyn ControlTransport>>,
    retired_control: u64,
    retired_report: u64,
}

impl AgentLink {
    /// Completes the connection handshake: the first agent-bound frame
    /// must be `Hello`, anything else (or a dead transport) makes a dead
    /// slot.
    fn handshake(transport: Option<Box<dyn ControlTransport>>) -> Self {
        let transport = transport.filter(|t| matches!(t.recv(), Ok(Frame::Hello { .. })));
        AgentLink {
            transport,
            retired_control: 0,
            retired_report: 0,
        }
    }

    fn is_live(&self) -> bool {
        self.transport.is_some()
    }

    /// Controller→agent bytes over every incarnation of this slot.
    fn control_bytes(&self) -> u64 {
        self.retired_control + self.transport.as_ref().map_or(0, |t| t.bytes_sent())
    }

    /// Agent→controller bytes over every incarnation of this slot.
    fn report_bytes(&self) -> u64 {
        self.retired_report + self.transport.as_ref().map_or(0, |t| t.peer_bytes_sent())
    }
}

/// The distributed deTector: the controller/diagnoser tier of a
/// two-tier deployment, driving one [`PingerAgent`](crate::PingerAgent)
/// per host group over the wire protocol.
///
/// Construction mirrors the single-process
/// [`Detector`](detector_system::Detector) exactly (same controller,
/// first deployment and diagnoser), which is what makes oracle
/// comparisons meaningful.
pub struct DistributedDetector {
    topo: SharedTopology,
    cfg: SystemConfig,
    controller: Controller,
    deployment: Deployment,
    diagnoser: Diagnoser,
    /// Server health; exposed for scenario scripting, like
    /// [`Detector::watchdog`](detector_system::Detector).
    pub watchdog: Watchdog,
    clock: SimClock,
    window: u64,
    sinks: Vec<Box<dyn EventSink>>,
    groups: HostGroups,
}

impl DistributedDetector {
    /// Builds the controller tier with `agents` host groups (ToR-
    /// contiguous, via [`partition_hosts`]).
    pub fn new(topo: SharedTopology, cfg: SystemConfig, agents: usize) -> Result<Self, BuildError> {
        cfg.validate()?;
        let mut controller = Controller::new(topo.clone(), cfg.clone());
        let watchdog = Watchdog::new();
        let deployment = controller.build_deployment(watchdog.unhealthy_set())?;
        let diagnoser = Diagnoser::new(deployment.matrix.clone(), cfg.pll);
        let groups = partition_hosts(topo.graph(), agents);
        Ok(Self {
            topo,
            cfg,
            controller,
            deployment,
            diagnoser,
            watchdog,
            clock: SimClock::new(),
            window: 0,
            sinks: Vec::new(),
            groups,
        })
    }

    /// Registers an event sink.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// The host-group partition (one group per agent).
    pub fn groups(&self) -> &HostGroups {
        &self.groups
    }

    /// The topology view's current epoch.
    pub fn epoch(&self) -> u64 {
        self.controller.epoch()
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> u64 {
        self.clock.now_s()
    }

    /// The probe matrix currently deployed.
    pub fn matrix(&self) -> &detector_core::pmc::ProbeMatrix {
        &self.deployment.matrix
    }

    /// The pinglists of the current deployment.
    pub fn pinglists(&self) -> &[detector_system::Pinglist] {
        &self.deployment.pinglists
    }

    /// Runs `windows` windows over a fleet of loopback agents spawned on
    /// scoped threads — shorthand for
    /// [`run_distributed_with_faults`](Self::run_distributed_with_faults)
    /// with reliable transports.
    pub fn run_distributed(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &DistScript,
        rng: &mut SmallRng,
    ) -> Result<DistOutcome, DistError> {
        self.run_distributed_with_faults(dataplane, windows, script, &[], rng)
    }

    /// Runs `windows` windows, injecting transport faults: each `(g, n)`
    /// in `faults` gives agent `g`'s transport a budget of `n` sends
    /// before it dies mid-stream (see
    /// [`flaky_loopback`](crate::flaky_loopback)) — the crash-mid-window
    /// scenario. Agents respawned by [`DistAction::AgentUp`] get
    /// reliable transports.
    pub fn run_distributed_with_faults(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &DistScript,
        faults: &[(usize, usize)],
        rng: &mut SmallRng,
    ) -> Result<DistOutcome, DistError> {
        let topo = self.topo.clone();
        let cfg = self.cfg.clone();

        crossbeam::thread::scope(|scope| -> Result<DistOutcome, DistError> {
            // --- Fleet bootstrap -------------------------------------
            let spawn_agent = |g: usize, budget: Option<usize>| -> AgentLink {
                let (ctrl_end, agent_end) = match budget {
                    Some(n) => flaky_loopback(n),
                    None => loopback(),
                };
                let t = topo.clone();
                let c = cfg.clone();
                scope.spawn(move |_| PingerAgent::new(g as u32, t, c).serve(&agent_end, dataplane));
                AgentLink::handshake(Some(Box::new(ctrl_end)))
            };

            let mut connect = |g: usize| {
                let budget = faults.iter().find(|(fg, _)| *fg == g).map(|(_, n)| *n);
                spawn_agent(g, budget)
            };
            let mut respawn = |g: usize| spawn_agent(g, None);
            self.drive_fleet(dataplane, windows, script, &mut connect, &mut respawn, rng)
        })
        .map_err(|_| DistError::Protocol("agent thread panicked"))?
    }

    /// Runs `windows` windows over a fleet reached through
    /// caller-provided transports — the entry point for real
    /// multi-process deployments, where each
    /// [`PingerAgent`](crate::PingerAgent) runs in its own process and
    /// the controller talks to it over a
    /// [`TcpTransport`](crate::TcpTransport).
    ///
    /// `connect` is called once per host group at bootstrap; returning
    /// `None` (or a transport whose handshake fails) starts the slot
    /// dead, degrading its group exactly like a crashed agent. `respawn`
    /// is called for scripted [`DistAction::AgentUp`] slots. The
    /// `dataplane` is only used for the controller-side window hooks —
    /// probes execute against whatever data plane the agent processes
    /// see, which the caller must configure identically for oracle
    /// comparisons.
    pub fn run_distributed_over(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &DistScript,
        rng: &mut SmallRng,
        connect: &mut dyn FnMut(usize) -> Option<Box<dyn ControlTransport>>,
        respawn: &mut dyn FnMut(usize) -> Option<Box<dyn ControlTransport>>,
    ) -> Result<DistOutcome, DistError> {
        self.drive_fleet(
            dataplane,
            windows,
            script,
            &mut |g| AgentLink::handshake(connect(g)),
            &mut |g| AgentLink::handshake(respawn(g)),
            rng,
        )
    }

    /// The transport-agnostic window loop shared by the loopback and
    /// multi-process drivers: bootstrap the slots via `connect`, sync the
    /// first deployment, run the windows (respawning [`DistAction::AgentUp`]
    /// slots via `respawn`), tear the fleet down, and account the wire.
    fn drive_fleet(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &DistScript,
        connect: &mut dyn FnMut(usize) -> AgentLink,
        respawn: &mut dyn FnMut(usize) -> AgentLink,
        rng: &mut SmallRng,
    ) -> Result<DistOutcome, DistError> {
        let n_agents = self.groups.len();
        let groups = self.groups.clone();
        {
            let mut links: Vec<AgentLink> = (0..n_agents).map(&mut *connect).collect();
            let mut dispatch_bytes = 0u64;
            for g in 0..n_agents {
                if !links[g].is_live() {
                    kill(&mut links, &groups, &mut self.watchdog, g);
                }
            }

            // Initial full sync: every list travels whole, to its owner.
            for list in &self.deployment.pinglists {
                let frame = Frame::ListReplace(list.clone());
                if let Some(g) = groups.owner_of(list.pinger) {
                    dispatch_bytes += ship(&mut links, &groups, &mut self.watchdog, g, &frame);
                }
            }

            // --- Window loop -----------------------------------------
            let mut results = Vec::with_capacity(windows as usize);
            for i in 0..windows {
                let window = self.window;
                let start_s = self.clock.now_s();

                // Scripted actions, in push order within the window.
                for action in script.due(i) {
                    match action {
                        DistAction::Topology(ev) => {
                            let stats_bytes = self.apply_topology(ev, &mut links, &groups)?;
                            dispatch_bytes += stats_bytes;
                        }
                        DistAction::MarkUnhealthy(s) => self.watchdog.mark_unhealthy(*s),
                        DistAction::MarkHealthy(s) => self.watchdog.mark_healthy(*s),
                        DistAction::AgentDown(g) => {
                            if let Some(t) = &links[*g].transport {
                                let _ = t.send(&Frame::Shutdown);
                            }
                            kill(&mut links, &groups, &mut self.watchdog, *g);
                        }
                        DistAction::AgentUp(g) => {
                            let mut fresh = respawn(*g);
                            fresh.retired_control = links[*g].control_bytes();
                            fresh.retired_report = links[*g].report_bytes();
                            links[*g] = fresh;
                            if links[*g].is_live() {
                                for &s in groups.group(*g) {
                                    self.watchdog.mark_healthy(s);
                                }
                                // Full resync of the group's lists.
                                dispatch_bytes += ship(
                                    &mut links,
                                    &groups,
                                    &mut self.watchdog,
                                    *g,
                                    &Frame::Reset,
                                );
                                for list in &self.deployment.pinglists {
                                    if groups.owner_of(list.pinger) == Some(*g) {
                                        let f = Frame::ListReplace(list.clone());
                                        dispatch_bytes +=
                                            ship(&mut links, &groups, &mut self.watchdog, *g, &f);
                                    }
                                }
                            } else {
                                kill(&mut links, &groups, &mut self.watchdog, *g);
                            }
                        }
                    }
                }

                // Heartbeat sweep: a dead agent degrades to unhealthy
                // racks *before* this window's dispatch, matching the
                // oracle's MarkUnhealthy placement.
                for g in 0..n_agents {
                    let Some(t) = &links[g].transport else {
                        continue;
                    };
                    let ok = t.send(&Frame::HeartbeatReq { nonce: window }).is_ok()
                        && matches!(t.recv(), Ok(Frame::HeartbeatAck { .. }));
                    if !ok {
                        kill(&mut links, &groups, &mut self.watchdog, g);
                    }
                }

                self.emit(RuntimeEvent::WindowStarted { window, start_s });
                dataplane.window_started(window, start_s);

                // Cycle refresh, on exactly step()'s boundary.
                if window > 0 && start_s.is_multiple_of(self.cfg.cycle_s) {
                    if let Ok(dep) = self
                        .controller
                        .build_deployment(self.watchdog.unhealthy_set())
                    {
                        let (version, num_paths) = (dep.version, dep.matrix.num_paths());
                        let (_, bytes) = self.install_and_ship(dep, &[], &mut links, &groups);
                        dispatch_bytes += bytes;
                        self.emit(RuntimeEvent::CycleRefreshed {
                            window,
                            version,
                            num_paths,
                        });
                    }
                }

                // The window's master seed: the run's only RNG draw.
                let window_seed: u64 = rng.gen();
                let mut skip: Vec<NodeId> = self
                    .deployment
                    .pinglists
                    .iter()
                    .map(|l| l.pinger)
                    .filter(|&p| !self.watchdog.is_healthy(p))
                    .collect();
                skip.sort_unstable();

                let start_frame = Frame::WindowStart {
                    window,
                    window_seed,
                    skip: skip.clone(),
                };
                let mut dispatched: Vec<usize> = Vec::new();
                for g in 0..n_agents {
                    if !links[g].is_live() {
                        continue;
                    }
                    if ship(&mut links, &groups, &mut self.watchdog, g, &start_frame) > 0 {
                        dispatched.push(g);
                    }
                }

                // Collect: drain each agent to its WindowDone; an agent
                // dying mid-window forfeits its reports (its racks go
                // unhealthy, so the ingest loop below skips them), it
                // never stalls the window.
                let mut got: HashMap<NodeId, detector_system::PingerReport> = HashMap::new();
                for g in dispatched {
                    let Some(t) = &links[g].transport else {
                        continue;
                    };
                    let died = loop {
                        match t.recv() {
                            Ok(Frame::Report(r)) => {
                                got.insert(r.pinger, r);
                            }
                            Ok(Frame::WindowDone { window: w, .. }) if w == window => break false,
                            Ok(_) => {
                                return Err(DistError::Protocol(
                                    "agent sent an unexpected frame mid-window",
                                ))
                            }
                            Err(_) => break true,
                        }
                    };
                    if died {
                        kill(&mut links, &groups, &mut self.watchdog, g);
                    }
                }

                // Ingest in pinglist order — the exact event order of
                // sequential step().
                let mut probes_sent = 0u64;
                let pingers: Vec<NodeId> =
                    self.deployment.pinglists.iter().map(|l| l.pinger).collect();
                for pinger in pingers {
                    if !self.watchdog.is_healthy(pinger) {
                        self.emit(RuntimeEvent::PingerUnhealthy { window, pinger });
                        continue;
                    }
                    let Some(report) = got.remove(&pinger) else {
                        return Err(DistError::Protocol("no report for a healthy pinger's list"));
                    };
                    let sent = report.total_sent();
                    probes_sent += sent;
                    self.emit(RuntimeEvent::ReportIngested {
                        window,
                        pinger,
                        probes_sent: sent,
                        num_paths: report.paths.len(),
                    });
                    self.diagnoser.ingest(report);
                }

                let event = self.diagnoser.diagnose(window, &self.watchdog);
                self.clock.advance_s(self.cfg.window_s);
                self.window += 1;
                self.diagnoser.prune_before(window.saturating_sub(20));
                for ev in event.stats_events() {
                    self.emit(ev);
                }
                let result = WindowResult {
                    window,
                    start_s,
                    probes_sent,
                    num_observations: event.num_observations,
                    diagnosis: event.diagnosis,
                };
                self.emit(RuntimeEvent::DiagnosisReady(result.clone()));
                dataplane.window_finished(window, self.clock.now_s());
                results.push(result);
            }

            // --- Orderly teardown ------------------------------------
            let mut control_bytes = 0u64;
            let mut report_bytes = 0u64;
            for link in &links {
                if let Some(t) = &link.transport {
                    let _ = t.send(&Frame::Shutdown);
                }
            }
            for link in &links {
                control_bytes += link.control_bytes();
                report_bytes += link.report_bytes();
            }
            Ok(DistOutcome {
                results,
                dispatch_bytes,
                control_bytes,
                report_bytes,
            })
        }
    }

    /// Mirrors `Detector::apply` with the install step replaced by the
    /// frame-shipping installer. Returns the dispatch bytes shipped.
    fn apply_topology(
        &mut self,
        event: &TopologyEvent,
        links: &mut [AgentLink],
        groups: &HostGroups,
    ) -> Result<u64, DistError> {
        // detlint::allow(determinism, reason = "replan_micros stopwatch; measurement only, never branches")
        let t0 = Instant::now();
        let ranges_before = self.controller.probe_plan().map(|p| p.cell_ranges());
        let update = self.controller.apply_event(event)?;
        let mut stats = DispatchStats::default();
        let mut bytes = 0u64;
        if update.links_changed > 0 {
            let dep = self
                .controller
                .build_deployment(self.watchdog.unhealthy_set())?;
            let ranges_after = self.controller.probe_plan().map(|p| p.cell_ranges());
            let rebases = rebase_pairs(ranges_before.as_deref(), ranges_after.as_deref());
            let (s, b) = self.install_and_ship(dep, &rebases, links, groups);
            stats = s;
            bytes = b;
        }
        self.emit(RuntimeEvent::PlanUpdated {
            epoch: update.epoch,
            links_changed: update.links_changed,
            probes_delta: update.probes_delta,
            lists_redispatched: stats.lists_redispatched,
            entries_diffed: stats.entries_diffed,
            bytes_dispatched: stats.bytes_dispatched,
            replan_micros: t0.elapsed().as_micros() as u64,
        });
        Ok(bytes)
    }

    /// The distributed half of the shared install protocol: rebase +
    /// diff exactly like the single-process drivers
    /// ([`rebase_and_diff`]), then ship the diff as frames — re-bases
    /// broadcast to every live agent, list updates routed to their
    /// owners — and point the diagnoser at the new matrix. Returns the
    /// model's [`DispatchStats`] (what `PlanUpdated` reports; re-bases
    /// counted once) and the wire bytes actually sent (re-bases counted
    /// per live agent).
    fn install_and_ship(
        &mut self,
        mut dep: Deployment,
        rebases: &[(PathIdRange, PathIdRange)],
        links: &mut [AgentLink],
        groups: &HostGroups,
    ) -> (DispatchStats, u64) {
        let (diff, stats) = rebase_and_diff(&self.deployment, &mut dep, rebases);
        let mut bytes = 0u64;
        for &(old, new) in &diff.rebases {
            let frame = Frame::RangeRebase { old, new };
            for g in 0..links.len() {
                if links[g].is_live() {
                    bytes += ship(links, groups, &mut self.watchdog, g, &frame);
                }
            }
        }
        for update in &diff.updates {
            let Some(g) = groups.owner_of(update.pinger()) else {
                continue;
            };
            match update {
                ListUpdate::Replace(list) => {
                    bytes += ship(
                        links,
                        groups,
                        &mut self.watchdog,
                        g,
                        &Frame::ListReplace(list.clone()),
                    );
                }
                ListUpdate::Remove(p) => {
                    bytes += ship(
                        links,
                        groups,
                        &mut self.watchdog,
                        g,
                        &Frame::ListRemove { pinger: *p },
                    );
                }
                ListUpdate::Diff {
                    pinger,
                    version,
                    stamp,
                    removed,
                    added,
                } => {
                    for &key in removed {
                        bytes += ship(
                            links,
                            groups,
                            &mut self.watchdog,
                            g,
                            &Frame::EntryRemove {
                                pinger: *pinger,
                                key,
                            },
                        );
                    }
                    for (index, entry) in added {
                        bytes += ship(
                            links,
                            groups,
                            &mut self.watchdog,
                            g,
                            &Frame::EntryAdd {
                                pinger: *pinger,
                                index: *index,
                                entry: entry.clone(),
                            },
                        );
                    }
                    bytes += ship(
                        links,
                        groups,
                        &mut self.watchdog,
                        g,
                        &Frame::ListSeal {
                            pinger: *pinger,
                            version: *version,
                            stamp: *stamp,
                        },
                    );
                }
            }
        }
        self.deployment = dep;
        self.diagnoser.set_matrix(self.deployment.matrix.clone());
        (stats, bytes)
    }

    fn emit(&mut self, ev: RuntimeEvent) {
        for s in self.sinks.iter_mut() {
            s.on_event(&ev);
        }
    }
}

/// Marks agent `g` dead and its whole host group unhealthy (ascending
/// server order — the blast radius of a rack-local agent daemon).
fn kill(links: &mut [AgentLink], groups: &HostGroups, watchdog: &mut Watchdog, g: usize) {
    if let Some(t) = links[g].transport.take() {
        links[g].retired_control += t.bytes_sent();
        links[g].retired_report += t.peer_bytes_sent();
    }
    for &s in groups.group(g) {
        watchdog.mark_unhealthy(s);
    }
}

/// Sends one frame to agent `g`, returning its wire size; a failed send
/// means the agent just died — it is killed (group marked unhealthy) and
/// 0 is returned.
fn ship(
    links: &mut [AgentLink],
    groups: &HostGroups,
    watchdog: &mut Watchdog,
    g: usize,
    frame: &Frame,
) -> u64 {
    let Some(t) = &links[g].transport else {
        return 0;
    };
    let before = t.bytes_sent();
    if t.send(frame).is_ok() {
        t.bytes_sent() - before
    } else {
        kill(links, groups, watchdog, g);
        0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use detector_simnet::{Fabric, LossDiscipline};
    use detector_system::dispatch::full_dispatch_bytes;
    use detector_system::{CollectingSink, Detector, ScriptAction};
    use detector_topology::{DcnTopology, Fattree};
    use rand::SeedableRng;

    use super::*;

    fn config() -> SystemConfig {
        SystemConfig {
            cycle_s: 60,
            ..SystemConfig::default()
        }
    }

    fn normalize(events: Vec<RuntimeEvent>) -> Vec<RuntimeEvent> {
        events.iter().map(RuntimeEvent::normalized).collect()
    }

    /// Runs the sequential oracle and the distributed fleet over the
    /// same scenario, asserting identical window results, (normalized)
    /// event streams and final state.
    fn check_equivalence(
        ft: &Arc<Fattree>,
        fabric: &Fabric<'_>,
        script: &DistScript,
        faults: &[(usize, usize)],
        agents: usize,
        windows: u64,
        seed: u64,
    ) -> DistOutcome {
        let dist_sink = CollectingSink::new();
        let mut dist =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), agents).expect("boot");
        dist.add_sink(Box::new(dist_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(seed);
        let outcome = dist
            .run_distributed_with_faults(fabric, windows, script, faults, &mut rng)
            .expect("distributed run");

        let seq_sink = CollectingSink::new();
        let mut seq = Detector::builder(ft.clone() as SharedTopology)
            .config(config())
            .sink(Box::new(seq_sink.clone()))
            .build()
            .expect("boot oracle");
        let mut rng = SmallRng::seed_from_u64(seed);
        let oracle = script.oracle(dist.groups());
        let seq_results = seq
            .run_scripted(fabric, windows, &oracle, &mut rng)
            .expect("sequential oracle");

        assert_eq!(seq_results, outcome.results, "window results diverge");
        assert_eq!(
            normalize(seq_sink.events()),
            normalize(dist_sink.events()),
            "event streams diverge"
        );
        assert_eq!(seq.now_s(), dist.now_s());
        assert_eq!(seq.epoch(), dist.epoch());
        assert_eq!(seq.matrix().paths, dist.matrix().paths);
        outcome
    }

    #[test]
    fn oracle_expands_agent_failures_to_group_marks() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let groups = partition_hosts(ft.graph(), 2);
        let script = DistScript::new().agent_down(1, 1).agent_up(3, 1);
        let oracle = script.oracle(&groups);
        let down: Vec<_> = oracle.due(1).collect();
        assert_eq!(down.len(), groups.group(1).len());
        for (action, &server) in down.iter().zip(groups.group(1)) {
            assert_eq!(**action, ScriptAction::MarkUnhealthy(server));
        }
        let up: Vec<_> = oracle.due(3).collect();
        assert_eq!(up.len(), groups.group(1).len());
        assert!(matches!(up[0], ScriptAction::MarkHealthy(_)));
    }

    #[test]
    fn distributed_equals_sequential_on_a_clean_fabric() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        check_equivalence(&ft, &fabric, &DistScript::new(), &[], 2, 3, 7);
    }

    #[test]
    fn distributed_equals_sequential_under_loss_churn_and_agent_failure() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut fabric = Fabric::new(ft.as_ref(), 0xFAB);
        fabric.set_discipline_both(ft.ea_link(0, 0, 0), LossDiscipline::Full);
        fabric.set_discipline_both(
            ft.ea_link(1, 0, 1),
            LossDiscipline::RandomPartial { rate: 0.4 },
        );
        // Window 1: a link dies (incremental re-plan + per-entry diffs).
        // Window 2: agent 1 crashes AND the 60 s cycle refresh fires
        //           with its racks unhealthy. Window 4: it comes back
        //           (resync) right on the next cycle boundary.
        let script = DistScript::new()
            .topology(
                1,
                TopologyEvent::LinkDown {
                    link: ft.ea_link(0, 0, 0),
                },
            )
            .agent_down(2, 1)
            .agent_up(4, 1)
            .mark_unhealthy(3, ft.server(2, 0, 0))
            .mark_healthy(5, ft.server(2, 0, 0));
        let outcome = check_equivalence(&ft, &fabric, &script, &[], 3, 6, 99);
        assert!(outcome.dispatch_bytes > 0);
        assert!(outcome.control_bytes > outcome.dispatch_bytes);
        assert!(outcome.report_bytes > 0);
    }

    #[test]
    fn a_mid_window_transport_crash_degrades_to_unhealthy_racks() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        let mut dist =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), 4).expect("boot");
        let victim = 3usize;
        let group: Vec<NodeId> = dist.groups().group(victim).to_vec();
        assert!(!group.is_empty());
        // Budget: Hello + window-0 heartbeat ack + one report, then the
        // transport dies mid-stream — after probing began, before the
        // window completed.
        let sink = CollectingSink::new();
        dist.add_sink(Box::new(sink.clone()));
        let mut rng = SmallRng::seed_from_u64(5);
        let outcome = dist
            .run_distributed_with_faults(&fabric, 2, &DistScript::new(), &[(victim, 3)], &mut rng)
            .expect("run survives the crash");
        assert_eq!(outcome.results.len(), 2);
        // The whole group degraded to unhealthy; its partial window-0
        // report was forfeited, not half-ingested.
        for &s in &group {
            assert!(!dist.watchdog.is_healthy(s));
        }
        let events = sink.events();
        let unhealthy: Vec<NodeId> = events
            .iter()
            .filter_map(|e| match e {
                RuntimeEvent::PingerUnhealthy { window: 0, pinger } => Some(*pinger),
                _ => None,
            })
            .collect();
        for p in &unhealthy {
            assert!(group.contains(p), "only the victim's racks degrade");
        }
        assert!(!unhealthy.is_empty());
        // And the degraded run is exactly the oracle that marked those
        // servers unhealthy before window 0.
        let oracle_script = group
            .iter()
            .fold(Script::new(), |s, &srv| s.mark_unhealthy(0, srv));
        let seq_sink = CollectingSink::new();
        let mut seq = Detector::builder(ft.clone() as SharedTopology)
            .config(config())
            .sink(Box::new(seq_sink.clone()))
            .build()
            .expect("boot oracle");
        let mut rng = SmallRng::seed_from_u64(5);
        let seq_results = seq
            .run_scripted(&fabric, 2, &oracle_script, &mut rng)
            .expect("oracle");
        assert_eq!(seq_results, outcome.results);
        assert_eq!(normalize(seq_sink.events()), normalize(sink.events()));
    }

    #[test]
    fn dispatch_bytes_scale_with_the_delta_not_the_fleet() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        // Baseline run: no churn. Its dispatch bytes are the initial
        // full sync alone.
        let mut base =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), 2).expect("boot");
        let mut rng = SmallRng::seed_from_u64(1);
        let baseline = base
            .run_distributed(&fabric, 1, &DistScript::new(), &mut rng)
            .expect("baseline");
        let full_sync = full_dispatch_bytes(&Deployment {
            matrix: base.matrix().clone(),
            pinglists: base.pinglists().to_vec(),
            version: 0,
        }) as u64;
        assert_eq!(baseline.dispatch_bytes, full_sync);

        // Churn run: one link down. The extra dispatch bytes are the
        // delta — far below shipping every list again.
        let mut churn =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), 2).expect("boot");
        let mut rng = SmallRng::seed_from_u64(1);
        let script = DistScript::new().topology(
            0,
            TopologyEvent::LinkDown {
                link: ft.ea_link(0, 0, 0),
            },
        );
        let churned = churn
            .run_distributed(&fabric, 1, &script, &mut rng)
            .expect("churn");
        let delta = churned.dispatch_bytes - baseline.dispatch_bytes;
        assert!(delta > 0, "a re-plan must ship something");
        // Fattree(4) is tiny — one link touches most lists — so only a
        // strict improvement is asserted here; the ≥10× separation is
        // asserted at Fattree(16) scale by the dispatch bench artifact.
        assert!(
            delta < full_sync,
            "per-entry diffs must beat re-shipping the fleet: delta {delta}, full {full_sync}"
        );
    }
}
