//! Asynchronous distributed PLOS — an event-driven, bounded-staleness
//! consensus-ADMM server for the paper's Sec. VII future work.
//!
//! "The current distributed algorithm is mainly designed for the
//! synchronous distributed system. For the asynchronous scenario, for
//! instance, some users may delay their responses for arbitrarily long, we
//! will leave it as our future work."
//!
//! Where [`crate::DistributedPlos`] barriers every ADMM round (one
//! straggler stalls the whole fleet), this server folds device updates into
//! the Eq. (23) consensus state *as they arrive*. The protocol (DESIGN.md
//! §13) is Jacobi-style asynchronous ADMM under a **staleness bound** `S`:
//!
//! * every server pass opens a consensus **epoch**; devices with no
//!   assignment in flight receive `AsyncBroadcast { epoch, S, w0, u_t }`;
//! * a device replies `AsyncUpdate { epoch, basis, … }` where `basis` is
//!   the epoch whose `(w0, u_t)` its solution was actually computed
//!   against — busy devices resend their cached solution with its old
//!   basis instead of recomputing;
//! * the server accepts a reply when `epoch − basis ≤ S` and folds it into
//!   the per-device slots; over-stale updates are **discarded and
//!   counted** (`stale_discard` events), and the device is re-assigned
//!   once its outstanding epoch falls more than `S` behind;
//! * a pass closes when every live device is accounted for, or — with
//!   `S > 0` — after a quiescence window with no arrivals, in which case
//!   the Eq. (23) update runs over whatever subset arrived (an empty pass
//!   applies nothing and is not counted as an ADMM iteration).
//!
//! **S = 0 degenerates to the synchronous path bit-for-bit**: the bound
//! forces every reply fresh (`basis == epoch`), the pass becomes a
//! barrier whose refresh set is the live roster, and the fold, residual
//! and objective arithmetic is the synchronous servers' own
//! (`crate::consensus`) — enforced by the `async_parity` ci gate and
//! `tests/fault_tolerance.rs`.
//!
//! Checkpointing snapshots the consensus state at CCCP and refinement
//! boundaries ([`plos_ckpt::AsyncState`]); at a boundary the server-held
//! `w_t` slots equal each device's own anchor, so a `Restore` handshake
//! re-seats a resumed fleet and the run continues with bit-parity
//! (fault-free runs).

use crate::checkpoint::{self, CheckpointPolicy, CkptSession};
use crate::config::{FaultTolerance, PlosConfig};
use crate::consensus::{self, splitmix64, Cohort, Slots};
use crate::distributed::{Fleet, Gather, Reply};
use crate::error::CoreError;
use crate::local::{LocalSolver, LocalUpdate};
use crate::model::PersonalizedModel;
use crate::wire_u32;
use plos_ckpt::{AsyncState, DistributedPhase, KIND_ASYNC};
use plos_linalg::Vector;
use plos_net::{
    DeviceMachine, DeviceRuntime, DeviceStep, Endpoint, FaultPlan, Message, TrafficStats,
};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use std::time::{Duration, Instant};

/// Hard per-pass cap on how long the server waits for the fleet. Generous:
/// hitting it in barrier mode means the transport is actually broken, not
/// merely slow.
const SERVER_WAIT: Duration = Duration::from_secs(60);

/// In barrier collections (init, refinement, `S = 0` passes, restore
/// handshakes) the assignment is re-sent to silent devices at this cadence
/// so a dropped frame cannot stall the barrier. Clients answer re-sent
/// assignments idempotently from their reply cache.
const RESEND_AFTER: Duration = Duration::from_millis(250);

/// Bound on server passes per CCCP round, as a multiple of
/// `max_admm_iters`: empty passes (nothing arrived in the window) do not
/// count as iterations, so a cap on total passes guarantees termination
/// even if the fleet goes silent.
const PASS_CAP_FACTOR: usize = 8;

/// Straggler model and staleness policy for the asynchronous runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncSpec {
    /// Probability that a device is free to recompute when an assignment
    /// arrives (`1.0` = every reply fresh).
    pub availability: f64,
    /// Staleness bound `S`: a reply whose basis epoch is more than `S`
    /// epochs behind the current one is discarded, and a device whose
    /// outstanding assignment falls more than `S` epochs behind is
    /// re-assigned. `S = 0` degenerates to the synchronous barrier
    /// protocol bit-for-bit.
    pub staleness_bound: u32,
    /// Quiescence window of an `S > 0` server pass: the pass closes once
    /// no reply has arrived for this long (or the whole live roster is
    /// accounted for, whichever comes first).
    pub poll_window: Duration,
    /// Seed of the per-device straggler processes.
    pub seed: u64,
}

impl Default for AsyncSpec {
    fn default() -> Self {
        AsyncSpec {
            availability: 0.7,
            staleness_bound: 2,
            poll_window: Duration::from_millis(40),
            seed: 0,
        }
    }
}

/// Measurements of an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncReport {
    /// Per-user traffic (client side).
    pub per_user_traffic: Vec<TrafficStats>,
    /// Applied ADMM epochs (passes that folded at least one update) across
    /// all CCCP rounds.
    pub admm_iterations: usize,
    /// CCCP rounds performed.
    pub cccp_rounds: usize,
    /// Objective after each CCCP round.
    pub history: History,
    /// Whether the CCCP objective converged before the round cap.
    pub converged: bool,
    /// Stale replies per user (assignment arrived while "busy" and was
    /// answered from the cache).
    pub stale_replies: Vec<usize>,
    /// Fresh local solves per user.
    pub fresh_replies: Vec<usize>,
    /// Server-side discards: matched replies whose basis epoch exceeded
    /// the staleness bound.
    pub stale_discards: u64,
    /// Server-side discards: duplicates and replies to superseded epochs.
    pub late_discards: u64,
    /// Assignments re-issued after their awaited reply went over-stale.
    pub reassignments: u64,
    /// Frames that violated the protocol (misattributed updates,
    /// unexpected message kinds) and were discarded.
    pub protocol_errors: u64,
    /// Devices evicted from the roster (dead links), in eviction order.
    pub evicted: Vec<usize>,
    /// Devices whose client-side handler panicked. Each is contained by the
    /// runtime, counted as a protocol error, and surfaces as a dead link on
    /// the server side (strike-evicted like any other silent device).
    pub panicked: Vec<usize>,
    /// End-to-end wall-clock time of the run.
    pub wall_clock: Duration,
}

impl AsyncReport {
    /// Overall fraction of replies that were stale (client-side view).
    pub fn staleness(&self) -> f64 {
        let stale: usize = self.stale_replies.iter().sum();
        let fresh: usize = self.fresh_replies.iter().sum();
        let total = stale + fresh;
        if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        }
    }
}

/// The asynchronous trainer.
#[derive(Debug, Clone)]
pub struct AsyncDistributedPlos {
    config: PlosConfig,
    spec: AsyncSpec,
    ckpt: Option<CheckpointPolicy>,
    runtime: DeviceRuntime,
}

struct ClientOutcome {
    stats: TrafficStats,
    stale: usize,
    fresh: usize,
}

/// The device side of the bounded-staleness protocol as a resumable state
/// machine: answer epoch-tagged assignments until shutdown. Busy devices
/// (per the stateless straggler hash) resend their cached solution with its
/// original basis epoch; an `S = 0` assignment forces a fresh solve, which
/// is what makes the bound degenerate to the synchronous protocol. Replies
/// are cached per assignment epoch so duplicated or re-sent assignments are
/// answered idempotently. Both runners drive it —
/// [`plos_net::drive_blocking`] on a dedicated thread, or the
/// [`plos_net::MuxNetwork`] sweep with K siblings per worker.
struct AsyncDeviceMachine {
    user: u32,
    t: usize,
    solver: LocalSolver,
    spec: AsyncSpec,
    /// Latest locally computed solution, tagged with the epoch whose
    /// (w0, u_t) it was computed against.
    last: Option<(u32, LocalUpdate)>,
    /// Last reply sent, keyed by assignment epoch.
    sent: Option<(u32, Message)>,
    stale: usize,
    fresh: usize,
    /// Chaos injection: panic on the first assignment at or after this
    /// epoch ([`FaultPlan::panic_round`]), modelling an app crash mid-ADMM.
    panic_at: Option<u32>,
}

impl AsyncDeviceMachine {
    /// Caches and sends `update` as the reply to assignment `epoch`,
    /// computed against `basis`.
    fn reply(&mut self, epoch: u32, basis: u32, update: LocalUpdate) -> DeviceStep {
        let reply = Message::AsyncUpdate {
            epoch,
            basis,
            user: self.user,
            w_t: update.w_t,
            v_t: update.v_t,
            xi_t: update.xi_t,
        };
        self.sent = Some((epoch, reply.clone()));
        DeviceStep::Send(reply)
    }

    /// The cached reply to a re-sent or duplicated assignment `epoch`.
    fn cached(&self, epoch: u32) -> Option<DeviceStep> {
        match &self.sent {
            Some((e, reply)) if *e == epoch => Some(DeviceStep::Send(reply.clone())),
            _ => None,
        }
    }
}

impl DeviceMachine for AsyncDeviceMachine {
    type Output = ClientOutcome;

    // The planned chaos crash must be a genuine panic: the whole point of
    // the regression is that the runtime contains it per-device.
    #[allow(clippy::panic)]
    fn on_message(&mut self, message: Message) -> DeviceStep {
        match message {
            Message::AsyncBroadcast { epoch, staleness_bound, w0, u_t } => {
                if self.panic_at.is_some_and(|at| epoch >= at) {
                    panic!("planned chaos: device {} crashed at epoch {epoch}", self.user);
                }
                if let Some(step) = self.cached(epoch) {
                    return step;
                }
                if epoch == 0 {
                    // Init epoch: contribute a local hyperplane if this
                    // device has labels of both classes.
                    let w_t =
                        self.solver.initial_hyperplane().unwrap_or_else(|| Vector::zeros(w0.len()));
                    let v_t = Vector::zeros(w0.len());
                    return self.reply(epoch, epoch, LocalUpdate { w_t, v_t, xi_t: 0.0 });
                }
                let busy = staleness_bound > 0
                    && self.last.is_some()
                    && is_busy(self.spec.seed, self.t, epoch, self.spec.availability);
                match (&self.last, busy) {
                    (Some((basis, update)), true) => {
                        self.stale += 1;
                        let (basis, update) = (*basis, update.clone());
                        self.reply(epoch, basis, update)
                    }
                    _ => {
                        self.fresh += 1;
                        let update = self.solver.solve_or_consensus(&w0, &u_t);
                        self.last = Some((epoch, update.clone()));
                        self.reply(epoch, epoch, update)
                    }
                }
            }
            Message::CccpAdvance { .. } => {
                self.solver.advance_cccp();
                // The linearization changed; cached solutions and replies
                // are void.
                self.last = None;
                self.sent = None;
                DeviceStep::NeedRecv
            }
            Message::Refine { round, w0 } => {
                if let Some(step) = self.cached(round) {
                    return step;
                }
                // Refinement is always fresh — it anchors the final model.
                let update = self.solver.refine_or_consensus(&w0, round);
                self.fresh += 1;
                self.last = Some((round, update.clone()));
                self.reply(round, round, update)
            }
            // The cohort shrank: rescale every T-dependent quantity,
            // notably κ = λ/T in the local objective.
            Message::RosterUpdate { t_count } => {
                self.solver.set_cohort_size(t_count as usize);
                DeviceStep::NeedRecv
            }
            // Checkpoint resume: adopt the server's recorded anchor and
            // cohort size, then ack. The ack carries empty vectors — it is
            // a liveness signal, not an update, and the server's restore
            // collection discards its payload.
            Message::Restore { round, t_count, w_t } => {
                self.solver.restore(w_t, t_count as usize);
                self.last = None;
                let empty = Vector::zeros(0);
                self.reply(round, round, LocalUpdate { w_t: empty.clone(), v_t: empty, xi_t: 0.0 })
            }
            // Stray frames (sync-protocol broadcasts, peer updates): drop
            // rather than dying on a protocol hiccup.
            Message::Broadcast { .. }
            | Message::ClientUpdate { .. }
            | Message::AsyncUpdate { .. }
            | Message::ShardBroadcast { .. }
            | Message::PartialSum { .. }
            | Message::ShardCommit { .. }
            | Message::ShardResidual { .. } => DeviceStep::NeedRecv,
            Message::Shutdown => DeviceStep::Done,
        }
    }

    fn finish(self, stats: TrafficStats) -> ClientOutcome {
        ClientOutcome { stats, stale: self.stale, fresh: self.fresh }
    }
}

/// Stateless per-(device, epoch) busy decision — a splitmix64 hash mapped
/// to `[0, 1)`. Deterministic in the spec seed alone, so the straggler
/// process is independent of message timing and arrival order.
fn is_busy(seed: u64, t: usize, epoch: u32, availability: f64) -> bool {
    if availability >= 1.0 {
        return false;
    }
    let z = splitmix64(
        seed ^ (t as u64).wrapping_mul(0xd129_0d3a_37cf_1e2b)
            ^ u64::from(epoch).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    unit >= availability
}

/// Mixes the async spec into the structural run fingerprint: resuming with
/// a different straggler process or staleness bound would follow a
/// different trajectory, so such snapshots must be refused like a config
/// mismatch. `poll_window` is excluded — it shapes wall-clock behaviour
/// only, never the fault-free trajectory.
fn async_fingerprint(config: &PlosConfig, spec: &AsyncSpec, t_count: usize, dim: usize) -> u64 {
    let base = checkpoint::run_fingerprint(KIND_ASYNC, t_count, dim, config);
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
    mix(mix(mix(base, spec.availability.to_bits()), spec.seed), u64::from(spec.staleness_bound))
}

/// The bounded-staleness collection policy for [`Fleet::poll`]: matches
/// arriving `AsyncUpdate`s against `outstanding` by epoch tag, folds the
/// ones within the staleness bound, and counts the rest
/// (late/stale/protocol discards). A `barrier` collection lasts until the
/// whole live roster is accounted for — re-sending the assignment to
/// silent devices so dropped frames cannot stall it — and a
/// [`SERVER_WAIT`] expiry is a transport error; otherwise it closes once
/// no reply has arrived for `quiet_window`.
struct Collect<'c> {
    outstanding: &'c mut [Option<u32>],
    epoch: u32,
    staleness_bound: u32,
    barrier: bool,
    quiet_window: Duration,
    hard_deadline: Instant,
    quiet_deadline: Instant,
    resend_at: Instant,
    resend: &'c dyn Fn(usize) -> Message,
    stale_discards: &'c mut u64,
    accepted: Vec<Reply>,
}

impl Gather for Collect<'_> {
    fn awaiting(&self, t: usize) -> bool {
        matches!(self.outstanding.get(t), Some(Some(_)))
    }

    fn closes(&mut self, now: Instant, waiting: usize, _alive: usize) -> Result<bool, CoreError> {
        if waiting == 0 {
            return Ok(true);
        }
        if now >= self.hard_deadline {
            if self.barrier {
                return Err(CoreError::Transport {
                    detail: format!(
                        "{waiting} device(s) silent for {SERVER_WAIT:?} in epoch {}",
                        self.epoch
                    ),
                });
            }
            return Ok(true);
        }
        Ok(!self.barrier && now >= self.quiet_deadline)
    }

    fn resend_due(&mut self, now: Instant) -> Option<&dyn Fn(usize) -> Message> {
        (self.barrier && now >= self.resend_at).then_some(self.resend)
    }

    fn resent(&mut self, at: Instant) {
        self.resend_at = at + RESEND_AFTER;
    }

    fn on_frame(&mut self, fleet: &mut Fleet<'_>, t: usize, frame: Message) {
        let Message::AsyncUpdate { epoch, basis, user, w_t, v_t, xi_t } = frame else {
            fleet.protocol_errors = fleet.protocol_errors.saturating_add(1);
            return;
        };
        // Any arrival re-arms the quiescence window.
        // plos-lint: allow(D2): quiescence-window bookkeeping only
        self.quiet_deadline = Instant::now() + self.quiet_window;
        let matched = matches!(self.outstanding.get(t), Some(Some(assigned)) if *assigned == epoch);
        if user as usize != fleet.id(t) {
            fleet.protocol_errors = fleet.protocol_errors.saturating_add(1);
        } else if !matched {
            // A duplicate, or an answer to a superseded assignment:
            // discard by tag, never merge.
            fleet.late_discards = fleet.late_discards.saturating_add(1);
        } else {
            if let Some(slot) = self.outstanding.get_mut(t) {
                *slot = None;
            }
            let staleness = self.epoch.saturating_sub(basis);
            if staleness <= self.staleness_bound {
                self.accepted.push((t, w_t, v_t, xi_t));
            } else {
                *self.stale_discards = self.stale_discards.saturating_add(1);
                if plos_obs::enabled() {
                    plos_obs::emit(
                        "stale_discard",
                        &[
                            ("device", t.into()),
                            ("epoch", self.epoch.into()),
                            ("basis", basis.into()),
                            ("staleness", staleness.into()),
                        ],
                    );
                    plos_obs::counter_add("async.stale_discards", 1);
                }
            }
        }
    }
}

/// The assignment ledger: which epoch each device owes a reply to, the
/// current epoch, and the server-side discard/reassignment counters.
struct Ledger {
    outstanding: Vec<Option<u32>>,
    epoch: u32,
    stale_discards: u64,
    reassignments: u64,
}

impl Ledger {
    /// One collection over the outstanding assignments of the current
    /// epoch (see [`Collect`]). Returns the updates to fold.
    fn collect(
        &mut self,
        fleet: &mut Fleet<'_>,
        staleness_bound: u32,
        (quiet_window, barrier): (Duration, bool),
        resend: &dyn Fn(usize) -> Message,
    ) -> Result<Vec<Reply>, CoreError> {
        // D2 audit: whether a reply folds is decided purely by its
        // epoch/basis tags, never by the wall-clock instant it arrived at.
        // plos-lint: allow(D2): pass-window/deadline timeout plumbing only
        let started = Instant::now();
        let mut collect = Collect {
            outstanding: &mut self.outstanding,
            epoch: self.epoch,
            staleness_bound,
            barrier,
            quiet_window,
            hard_deadline: started + SERVER_WAIT,
            quiet_deadline: started + quiet_window,
            resend_at: started + RESEND_AFTER,
            resend,
            stale_discards: &mut self.stale_discards,
            accepted: Vec::new(),
        };
        fleet.poll(self.epoch, &mut collect)?;
        Ok(collect.accepted)
    }

    /// Marks every live device as owing a reply to the current epoch.
    fn await_all(&mut self, fleet: &Fleet<'_>) {
        for (t, slot) in self.outstanding.iter_mut().enumerate() {
            if fleet.is_alive(t) {
                *slot = Some(self.epoch);
            }
        }
    }
}

/// The async server's consensus state: with the ledger and the roster,
/// exactly what an [`AsyncState`] snapshot records.
struct AsyncRun {
    slots: Slots,
    w0: Vector,
    history: History,
    admm_iterations: usize,
    converged: bool,
    cccp_rounds: usize,
    ledger: Ledger,
}

impl AsyncRun {
    /// The boundary snapshot a resumed run restarts from.
    fn snapshot(
        &self,
        fingerprint: u64,
        phase: DistributedPhase,
        cccp_round: u32,
        fleet: &Fleet<'_>,
    ) -> AsyncState {
        AsyncState {
            fingerprint,
            phase,
            epoch: self.ledger.epoch,
            cccp_round,
            admm_epochs: self.admm_iterations as u64,
            cccp_rounds: wire_u32(self.cccp_rounds),
            converged: self.converged,
            stale_discards: self.ledger.stale_discards,
            late_discards: fleet.late_discards,
            reassignments: self.ledger.reassignments,
            protocol_errors: fleet.protocol_errors,
            w0: self.w0.clone(),
            us: self.slots.u.clone(),
            // At a CCCP boundary (fault-free) and after refinement each
            // device's anchor is its own last w_t, so these slots are what
            // a resumed server hands back.
            w_ts: self.slots.w.clone(),
            v_ts: self.slots.v.clone(),
            xi_ts: self.slots.xi.clone(),
            alive: fleet.alive.clone(),
            evicted: fleet.evicted.iter().map(|&t| t as u64).collect(),
            history: self.history.values().to_vec(),
        }
    }
}

impl AsyncDistributedPlos {
    /// Creates a trainer, rejecting invalid configurations and specs with a
    /// typed error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the configuration is invalid, when
    /// `availability` is outside `(0, 1]` (devices that never compute can't
    /// train), or when `poll_window` is zero.
    pub fn try_new(config: PlosConfig, spec: AsyncSpec) -> Result<Self, CoreError> {
        config.try_validate()?;
        if !(spec.availability > 0.0 && spec.availability <= 1.0) {
            return Err(CoreError::InvalidConfig {
                detail: format!("availability must be in (0,1], got {}", spec.availability),
            });
        }
        if spec.poll_window.is_zero() {
            return Err(CoreError::InvalidConfig {
                detail: "poll_window must be positive".to_string(),
            });
        }
        Ok(AsyncDistributedPlos { config, spec, ckpt: None, runtime: DeviceRuntime::default() })
    }

    /// Enables server-side checkpointing under `policy`: the consensus
    /// state is snapshotted at every CCCP and refinement boundary, and a
    /// later run with the same policy resumes from the snapshot with
    /// bit-parity (fault-free runs). Without an explicit policy the
    /// `PLOS_CKPT_DIR` environment variable is consulted.
    #[must_use]
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some(policy);
        self
    }

    /// Selects the device runtime: one OS thread per device (the default),
    /// or [`DeviceRuntime::Multiplexed`] to drive K virtual devices per
    /// pool worker. Both runtimes produce bit-identical models.
    #[must_use]
    pub fn with_runtime(mut self, runtime: DeviceRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Trains over the simulated network with stragglers, fault-free.
    /// Equivalent to [`AsyncDistributedPlos::fit_with_faults`] with the
    /// zero [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// See [`AsyncDistributedPlos::fit_with_faults`].
    pub fn fit(
        &self,
        dataset: &MultiUserDataset,
    ) -> Result<(PersonalizedModel, AsyncReport), CoreError> {
        self.fit_with_faults(dataset, &FaultPlan::none())
    }

    /// Trains under injected network faults: delayed replies fold in later
    /// epochs (until over-stale), dropped frames are recovered by barrier
    /// re-sends or `S`-bounded re-assignment, and dead links evict the
    /// device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyDataset`] when the dataset has no users,
    /// [`CoreError::Protocol`] for an invalid fault plan, and
    /// [`CoreError::Transport`] when the whole fleet disconnected or a
    /// barrier collection starved. Local solve failures on a device degrade
    /// that device to the consensus update instead of aborting the
    /// protocol.
    pub fn fit_with_faults(
        &self,
        dataset: &MultiUserDataset,
        plan: &FaultPlan,
    ) -> Result<(PersonalizedModel, AsyncReport), CoreError> {
        let _span = plos_obs::Span::enter("async_fit");
        // plos-lint: allow(D2): wall_clock field of the report only
        let started = Instant::now();
        let cohort = Cohort::prepare(dataset, plan, &self.config)?;
        let (t_count, dim) = (cohort.t_count, cohort.dim);
        let fingerprint = async_fingerprint(&self.config, &self.spec, t_count, dim);
        let (session, resume) = consensus::open_checkpoint(self.ckpt.as_ref(), "async", |file| {
            let state = AsyncState::decode(file).map_err(CoreError::Ckpt)?;
            checkpoint::check_fingerprint(state.fingerprint, fingerprint)?;
            let slots = [&state.us, &state.w_ts, &state.v_ts];
            let mut lens =
                slots.map(Vec::len).into_iter().chain([state.xi_ts.len(), state.alive.len()]);
            let counts_ok = lens.all(|n| n == t_count);
            let vectors = std::iter::once(&state.w0).chain(slots.into_iter().flatten());
            consensus::check_shape(counts_ok, vectors, t_count, dim)?;
            plos_obs::emit(
                "checkpoint_resume",
                &[
                    ("trainer", "async".to_string().into()),
                    ("epoch", state.epoch.into()),
                    ("cccp_round", state.cccp_round.into()),
                ],
            );
            Ok(state)
        })?;

        let spec = self.spec;
        let (server_out, exits) = cohort.run(
            &self.config,
            self.runtime,
            |ends| self.serve(ends, t_count, dim, plan, fingerprint, resume, session),
            |t, solver| AsyncDeviceMachine {
                user: wire_u32(t),
                t,
                solver,
                spec,
                last: None,
                sent: None,
                stale: 0,
                fresh: 0,
                panic_at: plan.panic_round(t),
            },
        )?;

        let (model, mut report) = server_out?;
        for out in exits.outputs {
            let out =
                out.unwrap_or(ClientOutcome { stats: TrafficStats::default(), stale: 0, fresh: 0 });
            report.per_user_traffic.push(out.stats);
            report.stale_replies.push(out.stale);
            report.fresh_replies.push(out.fresh);
        }
        report.protocol_errors = report.protocol_errors.saturating_add(exits.panicked.len() as u64);
        report.panicked = exits.panicked;
        report.wall_clock = started.elapsed();
        if plos_obs::enabled() {
            plos_obs::emit(
                "async_summary",
                &[
                    ("admm_rounds", report.admm_iterations.into()),
                    ("cccp_rounds", report.cccp_rounds.into()),
                    ("staleness", report.staleness().into()),
                    ("stale_discards", report.stale_discards.into()),
                    ("late_discards", report.late_discards.into()),
                    ("reassignments", report.reassignments.into()),
                    ("evicted", report.evicted.len().into()),
                ],
            );
        }
        Ok((model, report))
    }

    /// The server thread: initialization (or checkpoint resume), CCCP ×
    /// bounded-staleness ADMM passes, refinement, shutdown. The Eq. (23)
    /// fold, Eq. (24) residuals and the objective are the shared consensus
    /// core's — only the collection discipline and the refresh set differ.
    // Allowed: the resume/checkpoint plumbing genuinely needs the run
    // coordinates threaded through, and splitting the protocol driver would
    // scatter the epoch/phase invariants across functions.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn serve(
        &self,
        ends: &[Endpoint],
        t_count: usize,
        dim: usize,
        plan: &FaultPlan,
        fingerprint: u64,
        resume: Option<AsyncState>,
        mut session: Option<CkptSession>,
    ) -> Result<(PersonalizedModel, AsyncReport), CoreError> {
        let mut fleet = Fleet::new(plan.wrap_links(ends), FaultTolerance::default());
        let (rho, lambda) = (self.config.rho, self.config.lambda);
        let bound = self.spec.staleness_bound;
        // S = 0 is a barrier pass; S > 0 closes on quiescence.
        let barrier = (SERVER_WAIT, true);
        let pass = if bound == 0 { barrier } else { (self.spec.poll_window, false) };
        let pass_cap = self.config.max_admm_iters.saturating_mul(PASS_CAP_FACTOR);

        let mut run = AsyncRun {
            slots: Slots::new(t_count, dim),
            w0: Vector::zeros(dim),
            history: History::new(),
            admm_iterations: 0,
            converged: false,
            cccp_rounds: 0,
            ledger: Ledger {
                outstanding: vec![None; t_count],
                epoch: 0,
                stale_discards: 0,
                reassignments: 0,
            },
        };
        let (mut start_cccp, mut refine_start, mut skip_advance) = (0, 0, false);
        if let Some(st) = resume {
            // Adopt the checkpointed roster, then reposition the survivors:
            // at a CCCP/refinement boundary every device's own anchor
            // equals the server-held w_t slot, so the Restore handshake
            // re-seats the fleet exactly.
            for (flag, &stored) in fleet.alive.iter_mut().zip(&st.alive) {
                *flag = stored;
            }
            fleet.evicted =
                st.evicted.iter().map(|&t| usize::try_from(t).unwrap_or(usize::MAX)).collect();
            fleet.protocol_errors = st.protocol_errors;
            fleet.late_discards = st.late_discards;
            let restore = fleet.send_restore(st.epoch, st.w_ts.clone(), dim);
            run.ledger.epoch = st.epoch;
            run.ledger.await_all(&fleet);
            run.ledger.collect(&mut fleet, bound, barrier, &restore)?;
            run.ledger.stale_discards = st.stale_discards;
            run.ledger.reassignments = st.reassignments;
            run.slots = Slots { dim, w: st.w_ts, v: st.v_ts, xi: st.xi_ts, u: st.us };
            run.w0 = st.w0;
            run.history = History::from_values(st.history);
            run.admm_iterations = st.admm_epochs as usize;
            run.converged = st.converged;
            run.cccp_rounds = st.cccp_rounds as usize;
            (start_cccp, refine_start, skip_advance) = match st.phase {
                // The handshake already repositioned every device at its
                // boundary anchor; sending CccpAdvance again would
                // double-linearize.
                DistributedPhase::Admm => (st.cccp_round as usize, 0, true),
                DistributedPhase::Refine { rounds_done } => {
                    (self.config.max_cccp_rounds, rounds_done, false)
                }
            };
        } else {
            // ---- Init epoch 0: average provider hyperplanes (identical to
            // Algorithm 2). ----
            let zero = Vector::zeros(dim);
            let init = |_t: usize| Message::AsyncBroadcast {
                epoch: 0,
                staleness_bound: bound,
                w0: zero.clone(),
                u_t: zero.clone(),
            };
            fleet.send_alive(&init);
            run.ledger.await_all(&fleet);
            let replies = run.ledger.collect(&mut fleet, bound, barrier, &init)?;
            fleet.publish_roster();
            let (sum, contributors) = consensus::init_sum(replies.iter().map(|r| &r.1), dim);
            run.w0 = consensus::init_w0(&sum, contributors, self.config.seed);
        }

        // ---- CCCP × bounded-staleness ADMM passes ----
        for cccp_round in start_cccp..self.config.max_cccp_rounds {
            if run.converged {
                break;
            }
            run.cccp_rounds += 1;
            if cccp_round > 0 && !skip_advance {
                fleet.send_alive(&|_t| Message::CccpAdvance { cccp_round: wire_u32(cccp_round) });
                fleet.publish_roster();
            }
            skip_advance = false;
            // The linearization changed: every in-flight assignment is
            // void, and its eventual reply a late discard.
            run.ledger.outstanding.fill(None);

            let mut applied = 0usize;
            let mut passes = 0usize;
            while applied < self.config.max_admm_iters && passes < pass_cap {
                passes += 1;
                let ledger = &mut run.ledger;
                ledger.epoch = ledger.epoch.saturating_add(1);
                let epoch = ledger.epoch;
                // The same assignment serves the barrier re-sends.
                let assignment = |t: usize| Message::AsyncBroadcast {
                    epoch,
                    staleness_bound: bound,
                    w0: run.w0.clone(),
                    u_t: run.slots.u.get(t).cloned().unwrap_or_else(|| Vector::zeros(dim)),
                };
                // Assign: devices with nothing in flight get this epoch's
                // (w0, u_t); devices whose outstanding assignment fell more
                // than S epochs behind are re-assigned.
                for t in 0..t_count {
                    if !fleet.is_alive(t) {
                        continue;
                    }
                    let assign = match ledger.outstanding.get(t) {
                        Some(None) => true,
                        Some(Some(at)) if epoch.saturating_sub(*at) > bound => {
                            ledger.reassignments = ledger.reassignments.saturating_add(1);
                            true
                        }
                        _ => false,
                    };
                    if assign {
                        fleet.send_to(t, &assignment(t));
                        if let Some(slot) = ledger.outstanding.get_mut(t) {
                            *slot = Some(epoch);
                        }
                    }
                }
                fleet.publish_roster();

                let arrived = ledger.collect(&mut fleet, bound, pass, &assignment)?;
                let folded = arrived.len();
                fleet.publish_roster();
                if folded == 0 {
                    // Nothing arrived in the window: the consensus state is
                    // unchanged, so applying Eq. (23) would only replay the
                    // previous iterate. Wait for the fleet instead.
                    continue;
                }
                // Dual updates and the primal residual range over the
                // devices whose blocks were refreshed *this pass*: a frozen
                // straggler slot must not accumulate dual drift or put a
                // floor under the residual. Under S = 0 the barrier makes
                // the refreshed set exactly the live roster, which is the
                // synchronous iteration verbatim.
                let mut refresh = vec![false; t_count];
                for (t, w, v, xi) in arrived {
                    run.slots.store(t, w, v, xi);
                    if let Some(flag) = refresh.get_mut(t) {
                        *flag = fleet.is_alive(t);
                    }
                }
                applied += 1;
                run.admm_iterations += 1;

                // Eq. (23)/(24) over the live cohort; every T-dependent
                // scalar uses the shrunk size.
                let cohort = fleet.alive_count();
                let w0_new = consensus::admm_w0(&run.slots.admm_sum(&fleet.alive), cohort, rho);
                let dual = consensus::dual_residual(&w0_new, &run.w0, cohort, rho);
                let primal = run.slots.u_update(&w0_new, &refresh).value().sqrt();
                run.w0 = w0_new;
                if plos_obs::enabled() {
                    plos_obs::emit(
                        "async_round",
                        &[
                            ("epoch", epoch.into()),
                            ("primal_residual", primal.into()),
                            ("dual_residual", dual.into()),
                            ("folded", folded.into()),
                            ("alive", cohort.into()),
                        ],
                    );
                    plos_obs::counter_add("async.admm_rounds", 1);
                }
                if consensus::residuals_met(primal, dual, cohort, self.config.eps_abs) {
                    break;
                }
            }

            let (v_sq, xi) = run.slots.objective_sums(&fleet.alive);
            let objective = consensus::objective(&run.w0, fleet.alive_count(), lambda, &v_sq, &xi);
            run.history.push(objective);
            plos_obs::emit(
                "cccp_round",
                &[("round", run.cccp_rounds.into()), ("objective", objective.into())],
            );
            if run.history.converged(self.config.cccp_tol) {
                run.converged = true;
            }
            // CCCP boundary snapshot: at this point the server-held w_t
            // slots equal each live device's own anchor (fault-free), which
            // is what makes the Restore handshake above exact.
            if let Some(sess) = session.as_mut() {
                let phase = DistributedPhase::Admm;
                let state = run.snapshot(fingerprint, phase, wire_u32(cccp_round + 1), &fleet);
                sess.save(&state.encode())?;
            }
            if run.converged {
                break;
            }
        }

        // ---- Refinement: always a barrier, always fresh — it anchors the
        // final model, and keeping it synchronous is what pins the S > 0
        // accuracy band to the synchronous protocol's. ----
        for refine_round in refine_start as usize..self.config.refine_rounds {
            let ledger = &mut run.ledger;
            ledger.epoch = ledger.epoch.saturating_add(1);
            ledger.outstanding.fill(None);
            let round = ledger.epoch;
            let refine = |_t: usize| Message::Refine { round, w0: run.w0.clone() };
            fleet.send_alive(&refine);
            ledger.await_all(&fleet);
            for (t, w, v, xi) in ledger.collect(&mut fleet, bound, barrier, &refine)? {
                run.slots.store(t, w, v, xi);
            }
            fleet.publish_roster();

            let cohort = fleet.alive_count();
            run.w0 = consensus::refine_w0(&run.slots.refine_sum(&fleet.alive), cohort, lambda);
            // xi_ts now carry true local losses, so this is the true
            // objective in the problem-(3) scale.
            let (dist, xi) = run.slots.refine_sums(&run.w0, &fleet.alive);
            let objective = consensus::objective(&run.w0, cohort, lambda, &dist, &xi);
            run.history.push(objective);
            plos_obs::emit(
                "refine_round",
                &[("round", (refine_round + 1).into()), ("objective", objective.into())],
            );
            if let Some(sess) = session.as_mut() {
                let phase = DistributedPhase::Refine { rounds_done: wire_u32(refine_round + 1) };
                let cccp_round = wire_u32(self.config.max_cccp_rounds);
                sess.save(&run.snapshot(fingerprint, phase, cccp_round, &fleet).encode())?;
            }
        }

        fleet.shutdown();
        if let Some(sess) = &session {
            sess.clear()?;
        }

        let model = consensus::assemble_model(run.w0, &run.slots.w, &fleet.alive, self.config.bias);
        let report = AsyncReport {
            per_user_traffic: Vec::new(), // filled by fit()
            admm_iterations: run.admm_iterations,
            cccp_rounds: run.cccp_rounds,
            history: run.history,
            converged: run.converged,
            stale_replies: Vec::new(), // filled by fit()
            fresh_replies: Vec::new(), // filled by fit()
            stale_discards: run.ledger.stale_discards,
            late_discards: fleet.late_discards,
            reassignments: run.ledger.reassignments,
            protocol_errors: fleet.protocol_errors,
            evicted: fleet.evicted,
            panicked: Vec::new(),       // filled by fit()
            wall_clock: Duration::ZERO, // filled by fit()
        };
        Ok((model, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{plos_predictions, score_predictions};
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    fn cohort() -> MultiUserDataset {
        let spec = SyntheticSpec {
            num_users: 5,
            points_per_class: 25,
            max_rotation: std::f64::consts::FRAC_PI_4,
            flip_prob: 0.05,
        };
        generate_synthetic(&spec, 13).mask_labels(&LabelMask::providers(3, 0.2), 4)
    }

    fn overall(model: &PersonalizedModel, data: &MultiUserDataset) -> f64 {
        let acc = score_predictions(data, &plos_predictions(model, data));
        acc.overall(data.providers().len(), data.num_users() - data.providers().len())
    }

    fn model_bits(model: &PersonalizedModel) -> Vec<u64> {
        let mut bits: Vec<u64> = model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
        for v in model.personal_biases() {
            bits.extend(v.iter().map(|c| c.to_bits()));
        }
        bits
    }

    #[test]
    fn stragglers_still_learn() {
        let data = cohort();
        let trainer = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.5, seed: 3, ..AsyncSpec::default() },
        )
        .unwrap();
        let (model, report) = trainer.fit(&data).unwrap();
        assert!(overall(&model, &data) > 0.75, "accuracy {}", overall(&model, &data));
        assert!(report.staleness() > 0.2, "staleness {}", report.staleness());
        assert_eq!(report.per_user_traffic.len(), 5);
    }

    #[test]
    fn full_availability_has_no_stale_replies() {
        let data = cohort();
        let trainer = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 1.0, seed: 0, ..AsyncSpec::default() },
        )
        .unwrap();
        let (_, report) = trainer.fit(&data).unwrap();
        assert_eq!(report.staleness(), 0.0);
        assert!(report.stale_replies.iter().all(|&s| s == 0));
        assert_eq!(report.stale_discards, 0);
    }

    #[test]
    fn staleness_tracks_availability() {
        let data = cohort();
        let run = |availability: f64| {
            let trainer = AsyncDistributedPlos::try_new(
                PlosConfig::fast(),
                AsyncSpec { availability, seed: 9, ..AsyncSpec::default() },
            )
            .unwrap();
            trainer.fit(&data).unwrap().1.staleness()
        };
        assert!(run(0.3) > run(0.9), "lower availability must raise staleness");
    }

    #[test]
    fn async_accuracy_close_to_synchronous() {
        let data = cohort();
        let config = PlosConfig::fast();
        let (sync_model, _) =
            crate::DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        let trainer = AsyncDistributedPlos::try_new(
            config,
            AsyncSpec { availability: 0.6, seed: 1, ..AsyncSpec::default() },
        )
        .unwrap();
        let (async_model, _) = trainer.fit(&data).unwrap();
        let gap = (overall(&sync_model, &data) - overall(&async_model, &data)).abs();
        assert!(gap < 0.12, "async parity gap {gap}");
    }

    #[test]
    fn s0_matches_synchronous_bit_for_bit() {
        let data = cohort();
        let config = PlosConfig::fast();
        let (sync_model, sync_report) =
            crate::DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        let trainer = AsyncDistributedPlos::try_new(
            config,
            AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() },
        )
        .unwrap();
        let (async_model, report) = trainer.fit(&data).unwrap();
        assert_eq!(model_bits(&async_model), model_bits(&sync_model));
        assert_eq!(report.history.values(), sync_report.history.values());
        assert_eq!(report.admm_iterations, sync_report.admm_iterations);
        assert_eq!(report.cccp_rounds, sync_report.cccp_rounds);
        assert_eq!(report.converged, sync_report.converged);
        assert_eq!(report.staleness(), 0.0, "S=0 forces every reply fresh");
        assert_eq!(report.stale_discards, 0);
        assert_eq!(report.reassignments, 0);
    }

    #[test]
    fn tight_bound_discards_over_stale_updates() {
        let data = cohort();
        let trainer = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.25, staleness_bound: 1, seed: 7, ..AsyncSpec::default() },
        )
        .unwrap();
        let (model, report) = trainer.fit(&data).unwrap();
        assert!(report.stale_discards > 0, "low availability under S=1 must discard");
        assert!(model.global_hyperplane().iter().all(|c| c.is_finite()));
    }

    #[test]
    fn killed_and_resumed_async_run_matches_uninterrupted_bit_for_bit() {
        let data = cohort();
        let config = PlosConfig::fast();
        // A generous quiescence window so pass membership is decided by
        // the seeded staleness process alone: with the default 40 ms
        // window, a local solve delayed past it by suite-level CPU
        // contention shifts a reply into the next pass and the two runs
        // being compared follow different (individually valid)
        // trajectories.
        let spec = AsyncSpec {
            availability: 0.6,
            seed: 5,
            poll_window: Duration::from_secs(2),
            ..AsyncSpec::default()
        };
        let (reference, ref_report) =
            AsyncDistributedPlos::try_new(config.clone(), spec).unwrap().fit(&data).unwrap();

        let dir = std::env::temp_dir().join(format!("plos-async-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two seams: the first CCCP boundary and the first refinement
        // boundary (one snapshot per boundary).
        for kill_after in [1u32, ref_report.cccp_rounds as u32 + 1] {
            let killed = AsyncDistributedPlos::try_new(config.clone(), spec)
                .unwrap()
                .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(kill_after))
                .fit(&data);
            assert!(
                matches!(killed, Err(CoreError::Interrupted { .. })),
                "kill switch must fire at {kill_after}, got {killed:?}"
            );
            let (resumed, report) = AsyncDistributedPlos::try_new(config.clone(), spec)
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
            assert_eq!(report.cccp_rounds, ref_report.cccp_rounds);
            assert_eq!(report.converged, ref_report.converged);
            assert!(!dir.join("async.ckpt").exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_spec_checkpoint_is_rejected() {
        let data = cohort();
        let config = PlosConfig::fast();
        let spec = AsyncSpec { availability: 0.6, seed: 5, ..AsyncSpec::default() };
        let dir = std::env::temp_dir().join(format!("plos-async-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let killed = AsyncDistributedPlos::try_new(config.clone(), spec)
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
            .fit(&data);
        assert!(matches!(killed, Err(CoreError::Interrupted { .. })));
        // A different staleness bound changes the trajectory: the stale
        // snapshot must be refused with a typed error, not silently
        // resumed.
        let other = AsyncSpec { staleness_bound: spec.staleness_bound + 1, ..spec };
        let resumed = AsyncDistributedPlos::try_new(config, other)
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
    fn try_new_rejects_bad_specs_with_typed_errors() {
        let bad_avail = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.0, ..AsyncSpec::default() },
        );
        assert!(
            matches!(&bad_avail, Err(CoreError::InvalidConfig { detail }) if detail.contains("availability must be in")),
            "got {bad_avail:?}"
        );
        let bad_window = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { poll_window: Duration::ZERO, ..AsyncSpec::default() },
        );
        assert!(
            matches!(&bad_window, Err(CoreError::InvalidConfig { detail }) if detail.contains("poll_window")),
            "got {bad_window:?}"
        );
    }

    #[test]
    fn mux_runtime_matches_threaded_bit_for_bit() {
        let data = cohort();
        let config = PlosConfig::fast();
        // Both protocol regimes: the S=0 barrier and a bounded-staleness
        // spec with stragglers in play. The S > 0 case follows the
        // clock_independence.rs recipe — a quiescence window generous
        // enough that every pass closes by full roster accounting, which is
        // what makes the S > 0 trajectory timing-independent and therefore
        // comparable across runners at all.
        for spec in [
            AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() },
            AsyncSpec {
                availability: 0.6,
                seed: 5,
                poll_window: Duration::from_millis(300),
                ..AsyncSpec::default()
            },
        ] {
            let (reference, ref_report) =
                AsyncDistributedPlos::try_new(config.clone(), spec).unwrap().fit(&data).unwrap();
            for k in [2usize, 16] {
                let (model, report) = AsyncDistributedPlos::try_new(config.clone(), spec)
                    .unwrap()
                    .with_runtime(DeviceRuntime::Multiplexed { devices_per_worker: k })
                    .fit(&data)
                    .unwrap();
                assert_eq!(
                    model_bits(&model),
                    model_bits(&reference),
                    "S={} K={k}",
                    spec.staleness_bound
                );
                assert_eq!(report.history.values(), ref_report.history.values());
                assert_eq!(report.stale_replies, ref_report.stale_replies);
                assert_eq!(report.fresh_replies, ref_report.fresh_replies);
            }
        }
    }

    #[test]
    fn panicking_device_is_contained_and_evicted() {
        let data = cohort();
        let plan = FaultPlan::seeded(11).with_device_panic(4, 2);
        for runtime in
            [DeviceRuntime::Threaded, DeviceRuntime::Multiplexed { devices_per_worker: 2 }]
        {
            let trainer = AsyncDistributedPlos::try_new(PlosConfig::fast(), AsyncSpec::default())
                .unwrap()
                .with_runtime(runtime);
            let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
            assert_eq!(report.panicked, vec![4], "{runtime:?}");
            assert!(report.evicted.contains(&4), "{runtime:?}: evicted {:?}", report.evicted);
            assert!(report.protocol_errors >= 1, "{runtime:?}");
            assert!(model.global_hyperplane().iter().all(|c| c.is_finite()));
        }
    }

    #[test]
    fn zero_availability_rejected() {
        let err = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.0, ..AsyncSpec::default() },
        )
        .unwrap_err();
        match err {
            CoreError::InvalidConfig { detail } => {
                assert!(detail.contains("availability must be in"), "{detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
