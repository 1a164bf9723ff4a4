//! Distributed PLOS — Algorithm 2, over the simulated device network.
//!
//! One server thread (the caller) and `T` device threads communicate only
//! through [`plos_net`] messages; raw samples never leave the device
//! closures. Per CCCP round the server drives the ADMM loop:
//!
//! * **scatter** `Broadcast { w0, u_t }` to every device,
//! * devices solve the local QP of Eq. (22) ([`LocalSolver`]) and **gather**
//!   back `ClientUpdate { w_t, v_t, ξ_t }`,
//! * the server applies the closed-form updates of Eq. (23) and stops the
//!   loop on the residual criterion of Eq. (24),
//! * when the objective `L` stops improving the server either advances CCCP
//!   (`CccpAdvance`, devices re-linearize around their own `w_t`) or sends
//!   `Shutdown`.
//!
//! # Fault tolerance
//!
//! Real fleets drop, delay, duplicate and corrupt frames, and phones vanish
//! mid-round. The server therefore never blocks on a single device:
//!
//! * every gather runs under a [`RetryPolicy`] — an initial window, bounded
//!   re-broadcasts with exponential backoff, and a hard round deadline;
//! * a round may close early once [`FaultTolerance::quorum_fraction`] of the
//!   live roster replied; stragglers keep their previous `(w_t, v_t, ξ_t)`
//!   (carry-forward) and rejoin next round;
//! * a device that misses [`FaultTolerance::evict_after`] consecutive rounds
//!   (or whose link reports `Disconnected`) is evicted; survivors are told
//!   the new cohort size via `RosterUpdate` so they rescale `κ = λ/T` — and
//!   with it the `Σ_k γ_kt ≤ T/2λ` dual cap — while the server shrinks every
//!   `T`-dependent denominator of Eq. (23)/(24);
//! * training then completes with [`DistributedReport::degraded`] set
//!   instead of hanging or panicking.
//!
//! Faults are injected deterministically through a [`FaultPlan`]
//! ([`DistributedPlos::fit_with_faults`]); the zero plan is a transparent
//! pass-through, so [`DistributedPlos::fit`] is bit-identical to the
//! fault-free synchronous protocol.

use crate::checkpoint::{self, CheckpointPolicy, CkptSession};
use crate::config::{FaultTolerance, PlosConfig, RetryPolicy};
use crate::consensus::{self, Aggregator, Cohort, Consensus, Exits, Gathered, Slots};
use crate::error::CoreError;
use crate::local::LocalSolver;
use crate::model::PersonalizedModel;
use crate::sharded::Topology;
use crate::wire_u32;
use plos_ckpt::{
    BroadcastRecord, DistributedPhase, DistributedState, ParticipationRecord, KIND_DISTRIBUTED,
};
use plos_linalg::{ExactSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{
    DeviceMachine, DeviceRuntime, DeviceStep, FaultPlan, FaultyEndpoint, Message, TrafficStats,
    TransportError,
};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use std::time::{Duration, Instant};

/// How long one poll of an outstanding link blocks during a gather sweep.
/// Small enough that retry/deadline checks stay responsive, large enough
/// that an idle sweep does not spin.
pub(crate) const POLL_SLICE: Duration = Duration::from_millis(2);

/// The distributed trainer.
#[derive(Debug, Clone)]
pub struct DistributedPlos {
    pub(crate) config: PlosConfig,
    pub(crate) fault_tolerance: FaultTolerance,
    pub(crate) ckpt: Option<CheckpointPolicy>,
    pub(crate) runtime: DeviceRuntime,
    pub(crate) topology: Topology,
}

/// One gather round's attendance, as seen by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundParticipation {
    /// Protocol round number (0 is the initialization round).
    pub round: u32,
    /// Devices whose update was accepted this round.
    pub replied: usize,
    /// Devices still on the roster when the round closed.
    pub alive: usize,
    /// Re-broadcasts the retry policy fired this round.
    pub retries: u32,
}

/// One ADMM round's Eq. (24) residual norms, as computed by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmmResiduals {
    /// Protocol round number (matches [`RoundParticipation::round`]).
    pub round: u32,
    /// Primal residual norm `√(Σ‖u⁺ − u‖²)` over the live cohort.
    pub primal: f64,
    /// Dual residual norm `ρ·√(2T)·‖w0⁺ − w0‖`.
    pub dual: f64,
}

/// Everything the paper's Sec. VI-E experiments measure about a distributed
/// run.
#[derive(Debug, Clone)]
pub struct DistributedReport {
    /// Per-user traffic (client-side view): what each phone sent/received.
    pub per_user_traffic: Vec<TrafficStats>,
    /// Total ADMM iterations across all CCCP rounds.
    pub admm_iterations: usize,
    /// CCCP rounds performed.
    pub cccp_rounds: usize,
    /// Objective `L` after each CCCP round (Eq. 23).
    pub history: History,
    /// Whether the CCCP objective converged before the round cap.
    pub converged: bool,
    /// Cumulative local-solve compute time per user, as measured on the
    /// simulation host (rescale with [`plos_net::DeviceProfile`] for
    /// device-equivalent time).
    pub per_user_compute: Vec<Duration>,
    /// Server-side compute time (aggregation only, excluding waiting).
    pub server_compute: Duration,
    /// End-to-end wall-clock time of the run.
    pub wall_clock: Duration,
    /// True when any round closed without the full live roster, or any
    /// device was evicted — i.e. the run needed the fault-tolerance
    /// machinery rather than the pure synchronous protocol.
    pub degraded: bool,
    /// Devices evicted from the roster (missed rounds or dead links),
    /// in eviction order.
    pub evicted: Vec<usize>,
    /// Per-round attendance, one entry per gather round.
    pub participation: Vec<RoundParticipation>,
    /// Frames that violated the protocol (misattributed updates, unexpected
    /// message kinds) and were discarded.
    pub protocol_errors: u64,
    /// Stale frames (late replies to closed rounds, duplicates) that were
    /// discarded by their `round` tag.
    pub late_discards: u64,
    /// Eq. (24) residual norms after every ADMM round, across all CCCP
    /// rounds, in protocol-round order. Mirrors the `admm_round` trace
    /// events exactly.
    pub residuals: Vec<AdmmResiduals>,
    /// Devices whose client-side handler panicked mid-run. Each one also
    /// counts as a protocol error and marks the run degraded; the server
    /// saw its link die and evicted it through the normal strike path.
    pub panicked: Vec<usize>,
}

impl DistributedReport {
    /// The slowest device's cumulative compute time — the quantity that
    /// bounds distributed running time, since devices compute in parallel
    /// (Sec. VI-E, "the total running time is determined by the smartphone
    /// that processes the most amount of data").
    pub fn max_client_compute(&self) -> Duration {
        self.per_user_compute.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Mean per-user traffic in kilobytes (Fig. 13's unit).
    pub fn mean_user_kb(&self) -> f64 {
        if self.per_user_traffic.is_empty() {
            return 0.0;
        }
        self.per_user_traffic.iter().map(TrafficStats::total_kb).sum::<f64>()
            / self.per_user_traffic.len() as f64
    }

    /// Mean fraction of the live roster that replied per round (1.0 for a
    /// fault-free run).
    pub fn participation_rate(&self) -> f64 {
        if self.participation.is_empty() {
            return 1.0;
        }
        self.participation
            .iter()
            .map(|p| if p.alive == 0 { 0.0 } else { p.replied as f64 / p.alive as f64 })
            .sum::<f64>()
            / self.participation.len() as f64
    }

    /// The server's half of a report, from the finished schedule and the
    /// roster's fault-tolerance counters; [`finish_report`] adds the
    /// devices' half.
    pub(crate) fn from_server(
        st: Consensus,
        server_compute: Duration,
        evicted: Vec<usize>,
        participation: Vec<RoundParticipation>,
        protocol_errors: u64,
        late_discards: u64,
    ) -> Self {
        let degraded = !evicted.is_empty() || participation.iter().any(|p| p.replied < p.alive);
        DistributedReport {
            per_user_traffic: Vec::new(),
            admm_iterations: st.admm_iterations,
            cccp_rounds: st.cccp_rounds,
            history: st.history,
            converged: st.converged,
            per_user_compute: Vec::new(),
            server_compute,
            wall_clock: Duration::ZERO,
            degraded,
            evicted,
            participation,
            protocol_errors,
            late_discards,
            residuals: st.residuals,
            panicked: Vec::new(),
        }
    }
}

/// Adds the devices' half of a report — traffic, compute, crashed devices —
/// and the run's wall clock, then emits the `traffic_summary` event. A
/// crashed device left no outcome: its entries stay at their defaults and
/// the crash is a counted protocol error, not a process abort.
pub(crate) fn finish_report(
    mut report: DistributedReport,
    exits: Exits<ClientOutcome>,
    started: Instant,
) -> DistributedReport {
    (report.per_user_traffic, report.per_user_compute) = exits
        .outputs
        .into_iter()
        .map(|out| out.map_or((TrafficStats::default(), Duration::ZERO), |o| (o.stats, o.compute)))
        .unzip();
    if !exits.panicked.is_empty() {
        report.protocol_errors = report.protocol_errors.saturating_add(exits.panicked.len() as u64);
        report.degraded = true;
    }
    report.panicked = exits.panicked;
    report.wall_clock = started.elapsed();
    if plos_obs::enabled() {
        // One summary event unifying the client-side traffic counters with
        // the fault-tolerance counters of this run.
        let total =
            report.per_user_traffic.iter().fold(TrafficStats::default(), |acc, s| acc.merged(s));
        plos_obs::emit(
            "traffic_summary",
            &[
                ("bytes_sent", total.bytes_sent.into()),
                ("bytes_received", total.bytes_received.into()),
                ("bytes_discarded", total.bytes_discarded.into()),
                ("messages_sent", total.messages_sent.into()),
                ("messages_received", total.messages_received.into()),
                ("decode_failures", total.decode_failures.into()),
                ("protocol_errors", report.protocol_errors.into()),
                ("late_discards", report.late_discards.into()),
                ("evicted", report.evicted.len().into()),
                ("participation_rate", report.participation_rate().into()),
            ],
        );
    }
    report
}

/// What each device hands back when it shuts down.
pub(crate) struct ClientOutcome {
    pub(crate) stats: TrafficStats,
    pub(crate) compute: Duration,
}

/// The device side of the synchronous protocol as a resumable state
/// machine: answer broadcasts with local solves until shutdown. Both
/// runners drive it — [`plos_net::drive_blocking`] on a dedicated thread,
/// or the [`plos_net::MuxNetwork`] sweep with K siblings per worker — so
/// the protocol logic cannot drift between runtimes. Timeouts and
/// corrupted frames never reach it; the server's retry layer re-broadcasts
/// anything that mattered.
pub(crate) struct SyncDeviceMachine {
    pub(crate) user: u32,
    pub(crate) solver: LocalSolver,
    pub(crate) compute: Duration,
    /// Chaos injection: panic on the first broadcast at or after this round
    /// ([`FaultPlan::panic_round`]), modelling an app crash mid-ADMM.
    pub(crate) panic_at: Option<u32>,
}

impl SyncDeviceMachine {
    /// The device machine for device `t` under `plan`.
    pub(crate) fn new(t: usize, solver: LocalSolver, plan: &FaultPlan) -> Self {
        SyncDeviceMachine {
            user: wire_u32(t),
            solver,
            compute: Duration::ZERO,
            panic_at: plan.panic_round(t),
        }
    }
}

impl DeviceMachine for SyncDeviceMachine {
    type Output = ClientOutcome;

    // The planned chaos crash must be a genuine panic: the whole point of
    // the regression is that the runtime contains it per-device.
    #[allow(clippy::panic)]
    fn on_message(&mut self, message: Message) -> DeviceStep {
        // plos-lint: allow(D2): per-device compute-time metering only
        let start = Instant::now();
        let (round, update) = match message {
            Message::Broadcast { round, w0, u_t } => {
                if self.panic_at.is_some_and(|at| round >= at) {
                    panic!("planned chaos: device {} crashed at round {round}", self.user);
                }
                if round == 0 {
                    // Init round: contribute a local hyperplane if this
                    // device has labels of both classes.
                    let w_init =
                        self.solver.initial_hyperplane().unwrap_or_else(|| Vector::zeros(w0.len()));
                    (round, (w_init, Vector::zeros(w0.len()), 0.0))
                } else {
                    let update = self.solver.solve_or_consensus(&w0, &u_t);
                    (round, (update.w_t, update.v_t, update.xi_t))
                }
            }
            Message::Refine { round, w0 } => {
                let update = self.solver.refine_or_consensus(&w0, round);
                (round, (update.w_t, update.v_t, update.xi_t))
            }
            Message::CccpAdvance { .. } => {
                self.solver.advance_cccp();
                return DeviceStep::NeedRecv;
            }
            // The cohort shrank: rescale every T-dependent quantity,
            // notably κ = λ/T in the local objective.
            Message::RosterUpdate { t_count } => {
                self.solver.set_cohort_size(t_count as usize);
                return DeviceStep::NeedRecv;
            }
            // Checkpoint resume: adopt the server's recorded CCCP anchor
            // and cohort size, then ack so the server knows this device is
            // repositioned before it replays the interrupted round. The ack
            // carries empty vectors — it is a liveness signal, not an
            // update.
            Message::Restore { round, t_count, w_t } => {
                self.solver.restore(w_t, t_count as usize);
                return DeviceStep::Send(Message::ClientUpdate {
                    round,
                    user: self.user,
                    w_t: Vector::zeros(0),
                    v_t: Vector::zeros(0),
                    xi_t: 0.0,
                });
            }
            // Devices never receive peer updates or async-protocol frames;
            // drop the stray frame rather than dying on a protocol hiccup.
            Message::ClientUpdate { .. }
            | Message::AsyncBroadcast { .. }
            | Message::AsyncUpdate { .. }
            | Message::ShardBroadcast { .. }
            | Message::PartialSum { .. }
            | Message::ShardCommit { .. }
            | Message::ShardResidual { .. } => return DeviceStep::NeedRecv,
            Message::Shutdown => return DeviceStep::Done,
        };
        self.compute += start.elapsed();
        let (w_t, v_t, xi_t) = update;
        DeviceStep::Send(Message::ClientUpdate { round, user: self.user, w_t, v_t, xi_t })
    }

    fn finish(self, stats: TrafficStats) -> ClientOutcome {
        ClientOutcome { stats, compute: self.compute }
    }
}

/// One accepted device reply: `(device, w_t, v_t, ξ_t)`.
pub(crate) type Reply = (usize, Vector, Vector, f64);

/// A gather's mode-specific policy for [`Fleet::poll`]: which devices are
/// awaited, which frames count, when to re-send and when the round closes.
/// The poll loop itself is mode-blind; the sync quorum gather and the async
/// bounded-staleness collection are two implementations.
pub(crate) trait Gather {
    /// Whether device `t` still owes this round a reply.
    fn awaiting(&self, t: usize) -> bool;
    /// Whether the round closes at `now`, with `waiting` live devices
    /// still awaited out of `alive`. An `Err` aborts the round.
    fn closes(&mut self, now: Instant, waiting: usize, alive: usize) -> Result<bool, CoreError>;
    /// The frame builder for a re-send to the awaited devices, when one is
    /// due at `now`.
    fn resend_due(&mut self, now: Instant) -> Option<&dyn Fn(usize) -> Message>;
    /// The re-sends went out; the last one left at `at`.
    fn resent(&mut self, at: Instant);
    /// Handles one frame received from device `t`.
    fn on_frame(&mut self, fleet: &mut Fleet<'_>, t: usize, frame: Message);
}

/// The sync quorum gather: collects `ClientUpdate`s for one round under
/// the retry policy (initial window, bounded re-broadcasts with
/// exponential backoff, hard round deadline).
struct QuorumGather<'g> {
    round: u32,
    ft: FaultTolerance,
    rebroadcast: &'g dyn Fn(usize) -> Message,
    accepted: Vec<Reply>,
    replied: Vec<bool>,
    retries: u32,
    first_window: Instant,
    deadline: Instant,
    window_ends: Instant,
    backoff: Duration,
}

impl Gather for QuorumGather<'_> {
    fn awaiting(&self, t: usize) -> bool {
        !self.replied.get(t).copied().unwrap_or(true)
    }

    fn closes(&mut self, now: Instant, waiting: usize, alive: usize) -> Result<bool, CoreError> {
        let required = self.ft.required_replies(alive);
        Ok(waiting == 0
            || now >= self.deadline
            || (self.accepted.len() >= required && now >= self.first_window))
    }

    fn resend_due(&mut self, now: Instant) -> Option<&dyn Fn(usize) -> Message> {
        if now < self.window_ends || self.retries >= self.ft.retry.max_retries {
            return None;
        }
        self.retries += 1;
        Some(self.rebroadcast)
    }

    fn resent(&mut self, at: Instant) {
        self.window_ends = at + self.backoff;
        // Geometric growth, clamped to the time left before the round
        // deadline: `Duration::mul_f64` panics on overflow for aggressive
        // factor/retry combinations, and a backoff longer than the
        // remaining deadline is indistinguishable from the deadline itself.
        let remaining = self.deadline.saturating_duration_since(at);
        self.backoff =
            Duration::try_from_secs_f64(self.backoff.as_secs_f64() * self.ft.retry.backoff_factor)
                .map_or(remaining, |grown| grown.min(remaining));
    }

    fn on_frame(&mut self, fleet: &mut Fleet<'_>, t: usize, frame: Message) {
        match frame {
            Message::ClientUpdate { round, user, w_t, v_t, xi_t } => {
                if round != self.round || !self.awaiting(t) {
                    // A late reply to a closed round, or a duplicate:
                    // discard by tag, never merge.
                    fleet.late_discards = fleet.late_discards.saturating_add(1);
                } else if user as usize != fleet.id(t) {
                    // An update attributed to the wrong device is a
                    // counted, recoverable protocol error.
                    fleet.protocol_errors = fleet.protocol_errors.saturating_add(1);
                } else {
                    if let Some(slot) = self.replied.get_mut(t) {
                        *slot = true;
                    }
                    self.accepted.push((t, w_t, v_t, xi_t));
                }
            }
            _ => fleet.protocol_errors = fleet.protocol_errors.saturating_add(1),
        }
    }
}

/// Server-side view of the device roster: the fault-wrapped links plus the
/// liveness bookkeeping that drives quorum gathers, retries and eviction.
/// Shared by all three servers: the flat star and each regional aggregator
/// gather through [`Fleet::gather`], the asynchronous server polls with its
/// own bounded-staleness [`Gather`] policy.
pub(crate) struct Fleet<'a> {
    pub(crate) links: Vec<FaultyEndpoint<'a>>,
    pub(crate) alive: Vec<bool>,
    /// Consecutive rounds each device has missed.
    missed: Vec<u32>,
    ft: FaultTolerance,
    pub(crate) evicted: Vec<usize>,
    pub(crate) participation: Vec<RoundParticipation>,
    pub(crate) protocol_errors: u64,
    pub(crate) late_discards: u64,
    /// Set when an eviction changed the cohort size and the survivors have
    /// not been told yet.
    roster_dirty: bool,
    /// Whether this fleet announces its own cohort size. A regional
    /// sub-fleet does not: its devices' `T` is the global cohort, which the
    /// root announces down the tree.
    announces: bool,
    /// Global device id carried on each link: identity for the flat star,
    /// the shard's global indices for a regional aggregator's sub-fleet
    /// (`crate::sharded`). Replies are attributed by this id, and eviction
    /// events/reports name it, so per-device behaviour is position-independent.
    ids: Vec<usize>,
}

impl<'a> Fleet<'a> {
    pub(crate) fn new(links: Vec<FaultyEndpoint<'a>>, ft: FaultTolerance) -> Self {
        let ids = (0..links.len()).collect();
        Fleet { announces: true, ..Self::with_ids(links, ft, ids) }
    }

    /// A sub-fleet whose link `i` talks to global device `ids[i]` — the
    /// regional aggregator's view of its shard.
    pub(crate) fn with_ids(
        links: Vec<FaultyEndpoint<'a>>,
        ft: FaultTolerance,
        ids: Vec<usize>,
    ) -> Self {
        let n = links.len();
        debug_assert_eq!(ids.len(), n);
        Fleet {
            links,
            alive: vec![true; n],
            missed: vec![0; n],
            ft,
            evicted: Vec::new(),
            participation: Vec::new(),
            protocol_errors: 0,
            late_discards: 0,
            roster_dirty: false,
            announces: false,
            ids,
        }
    }

    pub(crate) fn is_alive(&self, t: usize) -> bool {
        self.alive.get(t).copied().unwrap_or(false)
    }

    pub(crate) fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Global device id of link `t`.
    pub(crate) fn id(&self, t: usize) -> usize {
        self.ids.get(t).copied().unwrap_or(t)
    }

    /// Removes a device from the roster permanently.
    pub(crate) fn evict(&mut self, t: usize) {
        let newly_evicted = match self.alive.get_mut(t) {
            Some(alive) if *alive => {
                *alive = false;
                true
            }
            _ => false,
        };
        if newly_evicted {
            let global = self.id(t);
            self.evicted.push(global);
            self.roster_dirty = true;
            plos_obs::emit(
                "eviction",
                &[("device", global.into()), ("alive", self.alive_count().into())],
            );
            plos_obs::counter_add("distributed.evictions", 1);
        }
    }

    /// Sends to one live device; a dead link evicts it on the spot.
    pub(crate) fn send_to(&mut self, t: usize, message: &Message) {
        if !self.is_alive(t) {
            return;
        }
        let failed = match self.links.get_mut(t) {
            Some(link) => link.send(message).is_err(),
            None => false,
        };
        if failed {
            self.evict(t);
        }
    }

    /// Sends one message per live device.
    pub(crate) fn send_alive(&mut self, make: &dyn Fn(usize) -> Message) {
        for t in 0..self.links.len() {
            if self.is_alive(t) {
                let message = make(t);
                self.send_to(t, &message);
            }
        }
    }

    /// If evictions changed the cohort size, tells the survivors the new
    /// `T` so they rescale `κ = λ/T` (and the `Σ_k γ_kt ≤ T/2λ` dual cap).
    pub(crate) fn publish_roster(&mut self) {
        while self.announces && self.roster_dirty {
            self.roster_dirty = false;
            let t_count = wire_u32(self.alive_count());
            // Publishing can itself reveal dead links, re-dirtying the
            // roster; the loop converges because evictions are monotone.
            self.send_alive(&move |_t| Message::RosterUpdate { t_count });
        }
    }

    /// Best-effort shutdown broadcast; failures are irrelevant because the
    /// endpoints drop right after and disconnect every survivor.
    pub(crate) fn shutdown(&mut self) {
        for (link, &alive) in self.links.iter_mut().zip(&self.alive) {
            if alive {
                let _ = link.send(&Message::Shutdown);
            }
        }
    }

    /// Checkpoint resume handshake, first half: tells the fresh threads of
    /// devices the interrupted run already evicted to exit (or the join at
    /// the end of the run would hang on them), then sends every survivor
    /// its CCCP anchor and the checkpointed cohort size. Returns the
    /// `Restore` builder for the acknowledging gather's re-sends.
    pub(crate) fn send_restore(
        &mut self,
        round: u32,
        anchors: Vec<Vector>,
        dim: usize,
    ) -> impl Fn(usize) -> Message {
        for (link, &alive) in self.links.iter_mut().zip(&self.alive) {
            if !alive {
                let _ = link.send(&Message::Shutdown);
            }
        }
        let t_count = wire_u32(self.alive_count());
        let restore = move |t: usize| Message::Restore {
            round,
            t_count,
            w_t: anchors.get(t).cloned().unwrap_or_else(|| Vector::zeros(dim)),
        };
        self.send_alive(&restore);
        restore
    }

    /// Adopts the roster a checkpoint recorded: liveness flags, strike
    /// counts, eviction order and the fault-tolerance counters, so the
    /// resumed run's report continues the interrupted one's.
    fn restore_roster(&mut self, state: &DistributedState) {
        for (flag, &stored) in self.alive.iter_mut().zip(&state.alive) {
            *flag = stored;
        }
        for (strikes, &stored) in self.missed.iter_mut().zip(&state.missed) {
            *strikes = stored;
        }
        self.evicted = state.evicted.iter().map(|&t| t as usize).collect();
        self.participation = state
            .participation
            .iter()
            .map(|p| RoundParticipation {
                round: p.round,
                replied: p.replied as usize,
                alive: p.alive as usize,
                retries: wire_u32(p.retries),
            })
            .collect();
        self.protocol_errors = state.protocol_errors;
        self.late_discards = state.late_discards;
        self.roster_dirty = false;
    }

    /// Snapshot of the roster in checkpoint form.
    fn export_roster(&self) -> (Vec<bool>, Vec<u32>, Vec<u64>, Vec<ParticipationRecord>) {
        (
            self.alive.clone(),
            self.missed.clone(),
            self.evicted.iter().map(|&t| t as u64).collect(),
            self.participation
                .iter()
                .map(|p| ParticipationRecord {
                    round: p.round,
                    replied: p.replied as u64,
                    alive: p.alive as u64,
                    retries: u64::from(p.retries),
                })
                .collect(),
        )
    }

    /// The one device poll loop: sweeps the live devices `gather` still
    /// awaits, polling each link once per sweep, until `gather` closes the
    /// round. Re-sends go out when `gather` says they are due; a
    /// `Disconnected` link is evicted, timeouts and corrupted frames are
    /// ignored (the re-send or re-assignment path recovers them), and every
    /// received frame goes to `gather`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Transport`] when every device disconnected, or whatever
    /// `gather` returns from [`Gather::closes`].
    pub(crate) fn poll(&mut self, round: u32, gather: &mut dyn Gather) -> Result<(), CoreError> {
        loop {
            let alive = self.alive_count();
            if alive == 0 {
                return Err(CoreError::Transport {
                    detail: format!("every device disconnected before round {round} closed"),
                });
            }
            let waiting: Vec<usize> =
                (0..self.links.len()).filter(|&t| self.is_alive(t) && gather.awaiting(t)).collect();
            // D2 audit: these clocks gate only the retry/deadline/quiescence
            // machinery — replies are matched by their round or epoch tags,
            // so which instant a reply arrived at never reaches model
            // state. Asserted by tests/clock_independence.rs.
            // plos-lint: allow(D2): retry-window/deadline timeout plumbing only
            let now = Instant::now();
            if gather.closes(now, waiting.len(), alive)? {
                return Ok(());
            }
            if let Some(resend) = gather.resend_due(now) {
                for &t in &waiting {
                    self.send_to(t, &resend(t));
                }
                // plos-lint: allow(D2): re-send window plumbing only
                gather.resent(Instant::now());
            }
            for &t in &waiting {
                if !self.is_alive(t) {
                    continue;
                }
                let Some(link) = self.links.get_mut(t) else { continue };
                match link.recv_timeout(POLL_SLICE) {
                    Ok(frame) => gather.on_frame(self, t, frame),
                    Err(TransportError::Timeout | TransportError::Codec(_)) => {}
                    Err(TransportError::Disconnected) => self.evict(t),
                }
            }
        }
    }

    /// One quorum gather: collects the `ClientUpdate`s for `round` under
    /// the retry policy and returns the accepted ones. The round closes when the whole live roster
    /// replied, or the quorum is met after the initial window, or the round
    /// deadline expires. Devices that stay silent accumulate a strike and
    /// are evicted after `evict_after` consecutive misses.
    ///
    /// `record = false` marks a replay gather during checkpoint resume: it
    /// collects replies under the same retry machinery but leaves the
    /// participation log and strike counters untouched, because the
    /// uninterrupted run it reconstructs never had these extra rounds.
    ///
    /// # Errors
    ///
    /// [`CoreError::Transport`] when every device disconnected, and
    /// [`CoreError::QuorumLost`] when the round closed with zero usable
    /// replies — with no fresh state at all the ADMM iteration cannot
    /// advance, so retrying at the next round would only loop forever.
    pub(crate) fn gather(
        &mut self,
        round: u32,
        record: bool,
        rebroadcast: &dyn Fn(usize) -> Message,
    ) -> Result<Vec<Reply>, CoreError> {
        if self.links.is_empty() {
            // An empty shard has nothing to gather.
            return Ok(Vec::new());
        }
        let retry: &RetryPolicy = &self.ft.retry;
        // plos-lint: allow(D2): retry-window/deadline timeout plumbing only
        let started = Instant::now();
        let mut quorum = QuorumGather {
            round,
            ft: self.ft.clone(),
            rebroadcast,
            accepted: Vec::new(),
            replied: vec![false; self.links.len()],
            retries: 0,
            first_window: started + retry.recv_timeout,
            deadline: started + retry.round_deadline,
            window_ends: started + retry.recv_timeout,
            backoff: retry.backoff_base,
        };
        self.poll(round, &mut quorum)?;
        let QuorumGather { accepted, replied, retries, .. } = quorum;
        let replies = accepted.len();

        let alive = self.alive_count();
        if record {
            self.participation.push(RoundParticipation { round, replied: replies, alive, retries });
        }
        if replies == 0 {
            return Err(CoreError::QuorumLost {
                round,
                alive,
                required: self.ft.required_replies(alive),
            });
        }
        if !record {
            return Ok(accepted);
        }
        // Strike accounting: a reply clears the count, a miss adds one, and
        // `evict_after` consecutive misses remove the device for good.
        let mut to_evict = Vec::new();
        for (t, replied_t) in replied.iter().enumerate() {
            if !self.is_alive(t) {
                continue;
            }
            let Some(strikes) = self.missed.get_mut(t) else { continue };
            if *replied_t {
                *strikes = 0;
            } else {
                *strikes += 1;
                if *strikes >= self.ft.evict_after {
                    to_evict.push(t);
                }
            }
        }
        for t in to_evict {
            self.evict(t);
        }
        Ok(accepted)
    }
}

/// One logged ADMM broadcast, addressed to device `t`.
fn broadcast(rec: &BroadcastRecord, t: usize) -> Message {
    Message::Broadcast {
        round: rec.round,
        w0: rec.w0.clone(),
        u_t: rec.us.get(t).cloned().unwrap_or_else(|| Vector::zeros(rec.w0.len())),
    }
}

/// A star: a server that gathers its devices directly and holds their
/// consensus slots. The flat topology is one star over the whole fleet;
/// each regional aggregator of the tree is one over its shard. When a
/// checkpoint session is set it snapshots after every ADMM iteration and
/// refinement round, and resumes from a snapshot with bit-parity
/// (fault-free runs).
pub(crate) struct Star<'a> {
    pub(crate) fleet: Fleet<'a>,
    pub(crate) slots: Slots,
    session: Option<CkptSession>,
    fingerprint: u64,
    resume: Option<DistributedState>,
    /// Each device's CCCP anchor: its `w_t` at the start of the current
    /// CCCP round (what its linearization signs derive from).
    anchors: Vec<Vector>,
    /// The current CCCP round's broadcasts, for a resumed server to replay.
    log: Vec<BroadcastRecord>,
    /// Slot-fold time.
    pub(crate) compute: Duration,
}

impl<'a> Star<'a> {
    /// A star over `fleet` with no checkpoint session.
    pub(crate) fn new(fleet: Fleet<'a>, dim: usize) -> Self {
        let n = fleet.links.len();
        Star {
            fleet,
            slots: Slots::new(n, dim),
            session: None,
            fingerprint: 0,
            resume: None,
            // CCCP round 0 anchors: devices linearize off the incoming w0
            // while their own w_t is still zero, and `LocalSolver::restore`
            // with a zero anchor reproduces exactly that state.
            anchors: vec![Vector::zeros(dim); n],
            log: Vec::new(),
            compute: Duration::ZERO,
        }
    }
}

impl Aggregator for Star<'_> {
    fn resume(&mut self) -> Result<Option<Consensus>, CoreError> {
        let Some(st) = self.resume.take() else { return Ok(None) };
        let dim = self.slots.dim;
        self.fleet.restore_roster(&st);
        // Reposition the survivors: each adopts its CCCP anchor and the
        // checkpointed cohort size, then acks (unrecorded — the
        // uninterrupted run never had these rounds).
        let restore = self.fleet.send_restore(st.round, st.anchors.clone(), dim);
        self.fleet.gather(st.round, false, &restore)?;
        // Replay the interrupted CCCP round's broadcasts so each device
        // rebuilds its working set bit for bit. Replies are discarded: the
        // checkpointed server state is authoritative.
        for rec in &st.log {
            let scatter = |t: usize| broadcast(rec, t);
            self.fleet.send_alive(&scatter);
            self.fleet.gather(rec.round, false, &scatter)?;
        }
        self.slots = Slots { dim, w: st.w_ts, v: st.v_ts, xi: st.xi_ts, u: st.us };
        self.anchors = st.anchors;
        self.log = st.log;
        Ok(Some(Consensus {
            w0: st.w0,
            history: History::from_values(st.history),
            residuals: Consensus::residuals_from(&st.residuals),
            admm_iterations: st.admm_iterations as usize,
            cccp_rounds: st.cccp_rounds as usize,
            converged: st.converged,
            round: st.round,
            cccp_round: st.cccp_round,
            iters_done: st.iters_done,
            inner_done: st.inner_done,
            phase: st.phase,
            server_compute: Duration::ZERO,
        }))
    }

    fn gather(&mut self, st: &mut Consensus, phase: u8) -> Result<Gathered, CoreError> {
        let round = st.round;
        // Init and ADMM rounds scatter `(w0, u_t)` — both zero at init —
        // and the same closure serves the retry re-broadcasts. The replay
        // log records each ADMM broadcast so a resumed server can rebuild
        // device state.
        let us = if phase == PHASE_ADMM { self.slots.u.clone() } else { Vec::new() };
        let rec = BroadcastRecord { round, w0: st.w0.clone(), us };
        let request = |t: usize| match phase {
            PHASE_REFINE => Message::Refine { round, w0: rec.w0.clone() },
            _ => broadcast(&rec, t),
        };
        self.fleet.send_alive(&request);
        let replies = self.fleet.gather(round, true, &request)?;
        self.fleet.publish_roster();
        if phase == PHASE_ADMM && self.session.is_some() {
            self.log.push(rec);
        }
        // plos-lint: allow(D2): server compute-time metering only
        let t0 = Instant::now();
        let (sum, contributors) = if phase == PHASE_INIT {
            consensus::init_sum(replies.iter().map(|(_, w_t, ..)| w_t), self.slots.dim)
        } else {
            // A straggler's slot keeps its previous (w_t, v_t, ξ_t) — the
            // carry-forward state.
            for (t, w, v, xi) in replies {
                self.slots.store(t, w, v, xi);
            }
            let live = &self.fleet.alive;
            let sum = if phase == PHASE_ADMM {
                self.slots.admm_sum(live)
            } else {
                self.slots.refine_sum(live)
            };
            (sum, 0)
        };
        self.compute += t0.elapsed();
        Ok(Gathered { sum, contributors, cohort: self.fleet.alive_count() })
    }

    fn commit(&mut self, _round: u32, phase: u8, w0: &Vector) -> Result<[ExactSum; 2], CoreError> {
        // plos-lint: allow(D2): server compute-time metering only
        let t0 = Instant::now();
        let partials = if phase == PHASE_REFINE {
            let (dist, xi) = self.slots.refine_sums(w0, &self.fleet.alive);
            [dist, xi]
        } else {
            [self.slots.u_update(w0, &self.fleet.alive), ExactSum::new()]
        };
        self.compute += t0.elapsed();
        Ok(partials)
    }

    fn objective(&mut self) -> (ExactSum, ExactSum, usize) {
        let (v_sq, xi) = self.slots.objective_sums(&self.fleet.alive);
        (v_sq, xi, self.fleet.alive_count())
    }

    fn advance_cccp(&mut self, cccp_round: usize) -> Result<(), CoreError> {
        let cccp_round = wire_u32(cccp_round);
        self.fleet.send_alive(&|_t| Message::CccpAdvance { cccp_round });
        self.fleet.publish_roster();
        // New linearization: devices re-anchor at their own w_t. Record the
        // anchors and start a fresh replay log.
        self.anchors = self.slots.w.clone();
        self.log.clear();
        Ok(())
    }

    fn participation(&self) -> Option<RoundParticipation> {
        self.fleet.participation.last().copied()
    }

    fn checkpoint(&mut self, st: &Consensus) -> Result<(), CoreError> {
        let Some(sess) = self.session.as_mut() else { return Ok(()) };
        // Refinement anchors each device at its own last w_t, so that is
        // what a resumed server must hand back; it replays no broadcasts.
        let refining = matches!(st.phase, DistributedPhase::Refine { .. });
        let (alive, missed, evicted, participation) = self.fleet.export_roster();
        let snapshot = DistributedState {
            fingerprint: self.fingerprint,
            phase: st.phase,
            round: st.round,
            cccp_round: st.cccp_round,
            iters_done: if refining { 0 } else { st.iters_done },
            inner_done: st.inner_done,
            admm_iterations: st.admm_iterations as u64,
            cccp_rounds: wire_u32(st.cccp_rounds),
            converged: st.converged,
            w0: st.w0.clone(),
            us: self.slots.u.clone(),
            w_ts: self.slots.w.clone(),
            v_ts: self.slots.v.clone(),
            xi_ts: self.slots.xi.clone(),
            anchors: if refining { self.slots.w.clone() } else { self.anchors.clone() },
            log: if refining { Vec::new() } else { self.log.clone() },
            alive,
            missed,
            evicted,
            participation,
            protocol_errors: self.fleet.protocol_errors,
            late_discards: self.fleet.late_discards,
            history: st.history.values().to_vec(),
            residuals: st.residual_records(),
        };
        sess.save(&snapshot.encode())
    }
}

impl DistributedPlos {
    /// Creates a trainer with the default (fully synchronous, quorum `1.0`)
    /// fault tolerance, rejecting invalid configurations with a typed error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the configuration is invalid.
    pub fn try_new(config: PlosConfig) -> Result<Self, CoreError> {
        config.try_validate()?;
        Ok(DistributedPlos {
            config,
            fault_tolerance: FaultTolerance::default(),
            ckpt: None,
            runtime: DeviceRuntime::default(),
            topology: Topology::Flat,
        })
    }

    /// Enables server-side checkpointing under `policy`: the server snapshots
    /// its consensus state after every ADMM iteration and refinement round,
    /// and a later run with the same policy resumes from the snapshot with
    /// bit-parity (fault-free runs). Only server-held quantities are written —
    /// device-local training data never reaches the checkpoint.
    ///
    /// Without an explicit policy the `PLOS_CKPT_DIR` environment variable is
    /// consulted (see [`crate::checkpoint::CKPT_DIR_ENV`]). Checkpointing is
    /// a flat-star feature: fitting a [`Topology::Sharded`] trainer with an
    /// explicit policy fails with [`CoreError::InvalidConfig`] (the tree's
    /// root is protected by replica failover instead).
    #[must_use]
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some(policy);
        self
    }

    /// Selects the device runtime: one OS thread per device (the default,
    /// mirroring the paper's deployment) or K virtual devices multiplexed
    /// per worker ([`DeviceRuntime::Multiplexed`]), which decouples fleet
    /// size from the host's thread budget. Training output is bit-identical
    /// either way — the mux-parity gate proves it.
    #[must_use]
    pub fn with_runtime(mut self, runtime: DeviceRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Selects the aggregation topology: the flat star (default), or the
    /// two-level sharded tree with a replicated root
    /// ([`Topology::Sharded`], see [`crate::sharded`]). Fault-free training
    /// output is bit-identical at any shard count — the shard-parity gate
    /// proves it against the flat path. The tree takes no checkpoints: a
    /// sharded fit with an explicit [`DistributedPlos::with_checkpointing`]
    /// policy fails with [`CoreError::InvalidConfig`].
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Replaces the fault-tolerance policy (quorum fraction, retry schedule,
    /// eviction threshold), rejecting invalid policies with a typed error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the policy is invalid.
    pub fn try_with_fault_tolerance(
        mut self,
        fault_tolerance: FaultTolerance,
    ) -> Result<Self, CoreError> {
        fault_tolerance.try_validate()?;
        self.fault_tolerance = fault_tolerance;
        Ok(self)
    }

    /// Trains over the simulated device network and returns the model plus
    /// the measurement report. Equivalent to [`DistributedPlos::fit_with_faults`]
    /// with the zero [`FaultPlan`] — the fault layer is a transparent
    /// pass-through, so results are bit-identical to the plain synchronous
    /// protocol.
    ///
    /// # Errors
    ///
    /// See [`DistributedPlos::fit_with_faults`].
    pub fn fit(
        &self,
        dataset: &MultiUserDataset,
    ) -> Result<(PersonalizedModel, DistributedReport), CoreError> {
        self.fit_with_faults(dataset, &FaultPlan::none())
    }

    /// Trains under injected network faults: `plan` seeds per-link drop,
    /// delay, duplication, reordering, corruption and permanent-death
    /// processes, while the trainer's [`FaultTolerance`] policy keeps the
    /// protocol alive around them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyDataset`] when the dataset has no users,
    /// [`CoreError::Protocol`] for an invalid fault plan,
    /// [`CoreError::InvalidConfig`] for a checkpoint policy on the sharded
    /// tree, [`CoreError::Transport`] when the whole fleet disconnected, and
    /// [`CoreError::QuorumLost`] when a gather round ended with zero usable
    /// replies. Local solve failures on a device degrade that device to the
    /// consensus update instead of aborting the protocol.
    pub fn fit_with_faults(
        &self,
        dataset: &MultiUserDataset,
        plan: &FaultPlan,
    ) -> Result<(PersonalizedModel, DistributedReport), CoreError> {
        if let Topology::Sharded(spec) = &self.topology {
            if self.ckpt.is_some() {
                return Err(CoreError::InvalidConfig {
                    detail: "checkpointing is not supported on the sharded tree; \
                             its root is protected by replica failover"
                        .to_string(),
                });
            }
            return crate::sharded::fit_sharded(self, dataset, plan, spec);
        }
        let _span = plos_obs::Span::enter("distributed_fit");
        // plos-lint: allow(D2): wall_clock field of the report only
        let started = Instant::now();
        let cohort = Cohort::prepare(dataset, plan, &self.config)?;
        let (t_count, dim) = (cohort.t_count, cohort.dim);
        // The snapshot is server-side state only; a structural fingerprint
        // ties it to this cohort shape and configuration.
        let fingerprint = checkpoint::run_fingerprint(KIND_DISTRIBUTED, t_count, dim, &self.config);
        let (session, resume) =
            consensus::open_checkpoint(self.ckpt.as_ref(), "distributed", |file| {
                let state = DistributedState::decode(file).map_err(CoreError::Ckpt)?;
                checkpoint::check_fingerprint(state.fingerprint, fingerprint)?;
                let slots = [&state.us, &state.w_ts, &state.v_ts, &state.anchors];
                let logged = state.log.iter().flat_map(|r| std::iter::once(&r.w0).chain(&r.us));
                let vectors = slots.into_iter().flatten().chain(logged);
                let vectors = std::iter::once(&state.w0).chain(vectors);
                consensus::check_shape(state.us.len() == t_count, vectors, t_count, dim)?;
                plos_obs::emit(
                    "checkpoint_resume",
                    &[
                        ("trainer", "distributed".to_string().into()),
                        ("round", state.round.into()),
                        ("cccp_round", state.cccp_round.into()),
                        ("admm_iterations", state.admm_iterations.into()),
                    ],
                );
                Ok(state)
            })?;

        let (server_out, exits) = cohort.run(
            &self.config,
            self.runtime,
            |ends| {
                let fleet = Fleet::new(plan.wrap_links(ends), self.fault_tolerance.clone());
                let mut star = Star { session, fingerprint, resume, ..Star::new(fleet, dim) };
                let st = consensus::run_schedule(&self.config, &mut star, dim)?;
                star.fleet.shutdown();
                // The run completed: drop the snapshot so the next run starts
                // fresh instead of resuming a finished trajectory.
                if let Some(sess) = &star.session {
                    sess.clear()?;
                }
                let fleet = star.fleet;
                let model = consensus::assemble_model(
                    st.w0.clone(),
                    &star.slots.w,
                    &fleet.alive,
                    self.config.bias,
                );
                let server_compute = st.server_compute + star.compute;
                let report = DistributedReport::from_server(
                    st,
                    server_compute,
                    fleet.evicted,
                    fleet.participation,
                    fleet.protocol_errors,
                    fleet.late_discards,
                );
                Ok::<_, CoreError>((model, report))
            },
            |t, solver| SyncDeviceMachine::new(t, solver, plan),
        )?;
        let (model, report) = server_out?;
        Ok((model, finish_report(report, exits, started)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    fn dataset(users: usize, providers: usize) -> MultiUserDataset {
        let spec = SyntheticSpec {
            num_users: users,
            points_per_class: 25,
            max_rotation: std::f64::consts::FRAC_PI_4,
            flip_prob: 0.05,
        };
        generate_synthetic(&spec, 13).mask_labels(&LabelMask::providers(providers, 0.2), 4)
    }

    fn accuracy(model: &PersonalizedModel, dataset: &MultiUserDataset) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (t, u) in dataset.users().iter().enumerate() {
            for (x, &y) in u.features.iter().zip(&u.truth) {
                if model.predict(t, x) == y {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn distributed_training_learns() {
        let data = dataset(4, 2);
        let (model, report) =
            DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        let acc = accuracy(&model, &data);
        assert!(acc > 0.8, "accuracy {acc}");
        assert!(report.admm_iterations > 0);
        assert_eq!(report.per_user_traffic.len(), 4);
        assert_eq!(report.per_user_compute.len(), 4);
    }

    #[test]
    fn fault_free_run_is_not_degraded() {
        let data = dataset(3, 2);
        let (_, report) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert!(!report.degraded);
        assert!(report.evicted.is_empty());
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.late_discards, 0);
        assert!(!report.participation.is_empty());
        assert!(report.participation.iter().all(|p| p.replied == 3 && p.alive == 3));
        assert!(report.participation.iter().all(|p| p.retries == 0));
        assert_eq!(report.participation_rate(), 1.0);
    }

    #[test]
    fn traffic_is_model_parameters_only() {
        let data = dataset(3, 2);
        let (_, report) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        // Upper bound: every client message carries at most 2 vectors + a
        // few scalars per round, so bytes/user stays far below the raw data
        // size (25*2 samples × 2 dims × 8 bytes would already be 800 B per
        // single exchange if data were shipped; instead the total per round
        // pair is ~2×(2×(4+2·8)+...)).
        for stats in &report.per_user_traffic {
            let rounds = report.admm_iterations as u64 + 2; // + init + cccp msgs
            let per_round = stats.total_bytes() / rounds.max(1);
            // One broadcast + one update, each ≈ 2 vectors of dim 3 (+bias).
            assert!(per_round < 300, "per-round bytes {per_round}");
            assert!(stats.messages_sent > 0 && stats.messages_received > 0);
        }
    }

    #[test]
    fn matches_centralized_accuracy_closely() {
        // The paper's Fig. 11: |acc(dist) − acc(cent)| ≈ 0.
        let data = dataset(5, 3);
        let config = PlosConfig::fast();
        let central = crate::CentralizedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        let (dist, _) = DistributedPlos::try_new(config).unwrap().fit(&data).unwrap();
        let gap = (accuracy(&central, &data) - accuracy(&dist, &data)).abs();
        assert!(gap < 0.08, "accuracy gap {gap}");
    }

    #[test]
    fn consensus_is_reached() {
        let data = dataset(4, 2);
        let (model, report) =
            DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert!(report.cccp_rounds >= 1);
        // w_t = w0 + v_t by construction; personalization stays bounded.
        for t in 0..4 {
            assert!(model.personalized_hyperplane(t).is_finite());
        }
    }

    #[test]
    fn works_with_zero_providers() {
        let spec =
            SyntheticSpec { num_users: 3, points_per_class: 20, max_rotation: 0.1, flip_prob: 0.0 };
        let data = generate_synthetic(&spec, 5);
        let (model, _) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        let acc = accuracy(&model, &data);
        // Clustering orientation is arbitrary without labels.
        let acc = acc.max(1.0 - acc);
        assert!(acc > 0.75, "clustering accuracy {acc}");
    }

    #[test]
    fn single_user_works() {
        let data = dataset(1, 1);
        let (model, report) =
            DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert_eq!(model.num_users(), 1);
        assert_eq!(report.per_user_traffic.len(), 1);
        assert!(accuracy(&model, &data) > 0.8);
    }

    #[test]
    fn report_helpers() {
        let data = dataset(3, 2);
        let (_, report) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert!(report.max_client_compute() >= Duration::ZERO);
        assert!(report.mean_user_kb() > 0.0);
        assert!(report.wall_clock > Duration::ZERO);
    }

    #[test]
    fn invalid_fault_plan_is_rejected_gracefully() {
        let data = dataset(2, 1);
        let plan = FaultPlan::none().with_drop(1.5);
        let err = DistributedPlos::try_new(PlosConfig::fast())
            .unwrap()
            .fit_with_faults(&data, &plan)
            .unwrap_err();
        assert!(matches!(err, CoreError::Protocol { .. }), "got {err:?}");
    }

    fn model_bits(model: &PersonalizedModel) -> Vec<u64> {
        let mut bits: Vec<u64> = model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
        for v in model.personal_biases() {
            bits.extend(v.iter().map(|c| c.to_bits()));
        }
        bits
    }

    #[test]
    fn killed_and_resumed_distributed_run_matches_uninterrupted_bit_for_bit() {
        use crate::checkpoint::CheckpointPolicy;
        let data = dataset(3, 2);
        let config = PlosConfig::fast();
        let (reference, ref_report) =
            DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();

        let dir =
            std::env::temp_dir().join(format!("plos-distributed-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Three seams: mid-ADMM, right at the inner-loop/objective boundary,
        // and after the final refinement snapshot (everything done but the
        // model assembly). Checkpoints are one per ADMM iteration plus one
        // per refinement round.
        let admm = ref_report.admm_iterations as u32;
        for kill_after in [2, admm, admm + 1] {
            let killed = DistributedPlos::try_new(config.clone())
                .unwrap()
                .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(kill_after))
                .fit(&data);
            assert!(
                matches!(killed, Err(CoreError::Interrupted { .. })),
                "kill switch must fire at {kill_after}, got {killed:?}"
            );
            let (resumed, report) = DistributedPlos::try_new(config.clone())
                .unwrap()
                .with_checkpointing(CheckpointPolicy::new(&dir))
                .fit(&data)
                .unwrap();
            assert_eq!(
                model_bits(&resumed),
                model_bits(&reference),
                "resume after {kill_after} checkpoint(s) diverged"
            );
            assert_eq!(report.history.values(), ref_report.history.values());
            assert_eq!(report.admm_iterations, ref_report.admm_iterations);
            assert_eq!(report.cccp_rounds, ref_report.cccp_rounds);
            assert_eq!(report.converged, ref_report.converged);
            assert_eq!(report.residuals, ref_report.residuals);
            assert_eq!(report.participation, ref_report.participation);
            assert!(!report.degraded);
            // Successful completion clears the snapshot for the next seam.
            assert!(!dir.join("distributed.ckpt").exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_distributed_checkpoint_is_rejected_not_ignored() {
        use crate::checkpoint::CheckpointPolicy;
        let data = dataset(3, 2);
        let dir =
            std::env::temp_dir().join(format!("plos-distributed-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PlosConfig::fast();
        let killed = DistributedPlos::try_new(config.clone())
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
            .fit(&data);
        assert!(matches!(killed, Err(CoreError::Interrupted { .. })));

        // A different rho changes the ADMM trajectory: the stale snapshot
        // must be refused with a typed error, not silently resumed.
        let other = PlosConfig { rho: config.rho * 2.0, ..config };
        let resumed = DistributedPlos::try_new(other)
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir))
            .fit(&data);
        assert!(
            matches!(resumed, Err(CoreError::Ckpt(_))),
            "expected a checkpoint context error, got {resumed:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_device_degrades_but_completes() {
        let data = dataset(4, 3);
        let plan = FaultPlan::seeded(11).with_dead_link(3, 0);
        let trainer = DistributedPlos::try_new(PlosConfig::fast())
            .unwrap()
            .try_with_fault_tolerance(FaultTolerance::fast().with_quorum(0.7))
            .unwrap();
        let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
        assert!(report.degraded);
        assert_eq!(report.evicted, vec![3]);
        assert_eq!(model.num_users(), 4, "evicted devices still get a model");
        assert!(model.personalized_hyperplane(3).is_finite());
    }

    #[test]
    fn panicking_device_is_evicted_training_completes() {
        // The regression this pins: a client-side panic used to be
        // re-raised on the main thread by `run_clients`, aborting the whole
        // run. Now the runtime contains it per-device and the server treats
        // the dead link like any other silent device.
        let data = dataset(4, 3);
        let plan = FaultPlan::seeded(11).with_device_panic(3, 2);
        for runtime in
            [DeviceRuntime::Threaded, DeviceRuntime::Multiplexed { devices_per_worker: 2 }]
        {
            let trainer = DistributedPlos::try_new(PlosConfig::fast())
                .unwrap()
                .try_with_fault_tolerance(FaultTolerance::fast().with_quorum(0.7))
                .unwrap()
                .with_runtime(runtime);
            let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
            assert!(report.degraded, "{runtime:?}: a crashed device must degrade the run");
            assert_eq!(report.panicked, vec![3], "{runtime:?}");
            assert!(report.evicted.contains(&3), "{runtime:?}: evicted {:?}", report.evicted);
            assert!(report.protocol_errors >= 1, "{runtime:?}");
            assert_eq!(model.num_users(), 4, "{runtime:?}: crashed devices still get a model");
            assert!(model.personalized_hyperplane(3).is_finite());
        }
    }

    #[test]
    fn sharded_tree_rejects_checkpoint_policies() {
        use crate::checkpoint::CheckpointPolicy;
        use crate::sharded::ShardSpec;
        let data = dataset(4, 2);
        let dir = std::env::temp_dir().join(format!("plos-sharded-ckpt-{}", std::process::id()));
        let result = DistributedPlos::try_new(PlosConfig::fast())
            .unwrap()
            .with_topology(Topology::Sharded(ShardSpec::new(2)))
            .with_checkpointing(CheckpointPolicy::new(&dir))
            .fit(&data);
        assert!(
            matches!(&result, Err(CoreError::InvalidConfig { detail }) if detail.contains("sharded")),
            "a checkpoint policy on the tree must be refused, got {result:?}"
        );
        assert!(!dir.join("distributed.ckpt").exists());
    }

    #[test]
    fn mux_runtime_matches_threaded_bit_for_bit() {
        let data = dataset(4, 2);
        let config = PlosConfig::fast();
        let bits = |model: &PersonalizedModel| -> Vec<u64> {
            let mut bits: Vec<u64> =
                model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
            for v in model.personal_biases() {
                bits.extend(v.iter().map(|c| c.to_bits()));
            }
            bits
        };
        let (reference, ref_report) =
            DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        for k in [1usize, 3, 16] {
            let (model, report) = DistributedPlos::try_new(config.clone())
                .unwrap()
                .with_runtime(DeviceRuntime::Multiplexed { devices_per_worker: k })
                .fit(&data)
                .unwrap();
            assert_eq!(bits(&model), bits(&reference), "K={k} diverged");
            assert_eq!(report.history.values(), ref_report.history.values(), "K={k}");
            assert_eq!(report.admm_iterations, ref_report.admm_iterations, "K={k}");
        }
    }
}
