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
//! the Eq. (23) consensus state *as they arrive*. It runs the synchronous
//! servers' own schedule (`crate::consensus::run_schedule`: init → CCCP ×
//! ADMM → refinement) as a flat star whose ADMM rounds, under a
//! **staleness bound** `S > 0`, are Jacobi-style asynchronous passes
//! (DESIGN.md §13):
//!
//! * every server pass opens a consensus **epoch**; devices with no
//!   assignment in flight receive `Assign { round: epoch, w0, u_t, … }`;
//! * a device replies `Update { round: epoch, basis, … }` where `basis` is
//!   the epoch whose `(w0, u_t)` its solution was actually computed
//!   against — busy devices (per the [`AsyncSpec`] straggler process they
//!   were built with) resend their cached solution with its old basis
//!   instead of recomputing;
//! * the server accepts a reply when `epoch − basis ≤ S` and folds it into
//!   the per-device slots; over-stale updates are **discarded and
//!   counted** (`stale_discard` events), and the device is re-assigned
//!   once its outstanding epoch falls more than `S` behind;
//! * a pass closes when every live device is accounted for, or after a
//!   quiescence window with no arrivals; the Eq. (23) update then runs over
//!   whatever subset arrived. An empty pass applies nothing: the next pass
//!   opens the next epoch within the same ADMM iteration.
//!
//! Init, refinement and the checkpoint-restore handshake are the star's
//! own gathers, and **S = 0 is the synchronous star**: every ADMM round is
//! a star round too (the device ([`crate::local::Device`]) is never busy
//! under `S = 0`), so the fit is the flat star's by construction. The
//! `async_parity` ci gate and `tests/fault_tolerance.rs` hold it to that.
//!
//! Checkpointing writes the flat star's [`plos_ckpt::ConsensusState`]
//! record once a CCCP round's ADMM loop is done and after every refinement
//! round. At those seams the server-held `w_t` slots equal each device's
//! own anchor, so the record keeps no anchors and no log, and the star's
//! `Restore` handshake re-seats a resumed fleet with bit-parity (fault-free
//! runs).

use crate::checkpoint::{self, CheckpointPolicy, CkptSession};
use crate::config::{FaultTolerance, PlosConfig, RetryPolicy, MAX_WAIT};
use crate::consensus::{self, Aggregator, Cohort, Consensus, Gathered};
use crate::distributed::{Fleet, Gather, Reply, RoundParticipation, Star};
use crate::error::CoreError;
use crate::local::DeviceOutcome;
use crate::model::PersonalizedModel;
use crate::wire_u32;
use plos_ckpt::KIND_ASYNC;
use plos_linalg::{ExactSum, Vector};
use plos_net::shard::PHASE_ADMM;
use plos_net::{DeviceRuntime, FaultPlan, Message, TrafficStats};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use std::time::{Duration, Instant};

/// The async fleet's gather timing: the whole live roster, with the
/// assignment re-sent to silent devices every 250 ms and no retry cap (a
/// dropped frame cannot stall a barrier; devices answer re-sends from their
/// reply cache), under a 60 s round deadline. The deadline also caps one
/// `S > 0` pass and a run of empty passes.
const BARRIER: FaultTolerance = FaultTolerance {
    quorum_fraction: 1.0,
    retry: RetryPolicy {
        recv_timeout: Duration::from_millis(250),
        max_retries: u32::MAX,
        backoff_base: Duration::from_millis(250),
        backoff_factor: 1.0,
        round_deadline: Duration::from_secs(60),
    },
    evict_after: 2,
};

/// The snapshot seam, mixed into the fingerprint: the schedule snapshots a
/// CCCP boundary before the round's objective push, so a record taken at
/// an older seam would resume one CCCP round off and must be refused.
const SEAM: u64 = 2;

/// Straggler model and staleness policy for the asynchronous runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncSpec {
    /// Probability that a device is free to recompute when an assignment
    /// arrives (`1.0` = every reply fresh).
    pub availability: f64,
    /// Staleness bound `S`: a reply whose basis epoch is more than `S`
    /// epochs behind the current one is discarded, and a device whose
    /// outstanding assignment falls more than `S` epochs behind is
    /// re-assigned. `S = 0` is the synchronous star protocol.
    pub staleness_bound: u32,
    /// Quiescence window of an `S > 0` server pass (positive, at most one
    /// day): the pass closes once no reply has arrived for this long (or
    /// the whole live roster is accounted for, whichever comes first).
    pub poll_window: Duration,
    /// Seed of the per-device straggler processes.
    pub seed: u64,
}

impl AsyncSpec {
    /// The synchronous protocol's straggler process: every device always
    /// free, `S = 0`.
    pub(crate) const SYNCHRONOUS: AsyncSpec = AsyncSpec {
        availability: 1.0,
        staleness_bound: 0,
        poll_window: Duration::from_millis(40),
        seed: 0,
    };
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

/// Mixes the async spec and the [`SEAM`] tag into the structural run
/// fingerprint: resuming with a different straggler process or staleness
/// bound would follow a different trajectory, so such snapshots must be
/// refused like a config mismatch. `poll_window` is excluded — it shapes
/// wall-clock behaviour only, never the fault-free trajectory.
fn async_fingerprint(config: &PlosConfig, spec: &AsyncSpec, t_count: usize, dim: usize) -> u64 {
    let base = checkpoint::run_fingerprint(KIND_ASYNC, t_count, dim, config);
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
    let specced = mix(mix(base, spec.availability.to_bits()), spec.seed);
    mix(mix(specced, u64::from(spec.staleness_bound)), SEAM)
}

/// The collection policy of one `S > 0` pass for [`Fleet::poll`]: matches
/// arriving `Update`s against `outstanding` by epoch tag, folds the ones
/// within the staleness bound, and counts the rest (late/stale/protocol
/// discards). The pass closes once the live roster is accounted for, once
/// no reply has arrived for `quiet_window`, or at `hard_deadline`.
struct Collect<'c> {
    outstanding: &'c mut [Option<u32>],
    epoch: u32,
    staleness_bound: u32,
    quiet_window: Duration,
    hard_deadline: Instant,
    quiet_deadline: Instant,
    accepted: Vec<Reply>,
}

impl Gather for Collect<'_> {
    fn awaiting(&self, t: usize) -> bool {
        matches!(self.outstanding.get(t), Some(Some(_)))
    }

    fn closes(&mut self, now: Instant, waiting: usize, _alive: usize) -> bool {
        waiting == 0 || now >= self.hard_deadline || now >= self.quiet_deadline
    }

    fn on_frame(&mut self, fleet: &mut Fleet<'_>, t: usize, frame: Message) {
        let Message::Update { round: epoch, basis, user, w_t, v_t, xi_t } = frame else {
            fleet.protocol_errors = fleet.protocol_errors.saturating_add(1);
            return;
        };
        // Any arrival re-arms the quiescence window.
        // plos-lint: allow(D2): quiescence-window bookkeeping only
        self.quiet_deadline = Instant::now() + self.quiet_window;
        let matched = matches!(self.outstanding.get(t), Some(Some(assigned)) if *assigned == epoch);
        if !fleet.admits(t, user, false, &w_t, &v_t) {
            return;
        }
        if !matched {
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
                fleet.stale_discards = fleet.stale_discards.saturating_add(1);
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

/// The async server as the consensus schedule's third [`Aggregator`]: a
/// [`Star`] — its fleet, slots and resume handshake — whose ADMM rounds
/// under `S > 0` are bounded-staleness passes. Every other round is the
/// star's own.
struct AsyncServer<'a> {
    star: Star<'a>,
    spec: AsyncSpec,
    rho: f64,
    session: Option<CkptSession>,
    fingerprint: u64,
    /// The epoch each device owes a reply to.
    outstanding: Vec<Option<u32>>,
    /// The CCCP round the outstanding assignments belong to.
    cccp_round: Option<u32>,
    /// Devices refreshed by the last pass: the mask of its dual step.
    refresh: Vec<bool>,
    /// The `w0` the last pass was assigned, for its dual residual.
    w0: Vector,
}

impl AsyncServer<'_> {
    /// Whether `phase` runs as bounded-staleness passes.
    fn passes(&self, phase: u8) -> bool {
        phase == PHASE_ADMM && self.spec.staleness_bound > 0
    }

    /// One `S > 0` ADMM iteration: passes from epoch `st.round` on until
    /// one folds an update. An empty pass leaves the consensus state as it
    /// was, so the next pass opens the next epoch; empty passes for the
    /// whole round deadline are a transport failure.
    fn pass(&mut self, st: &mut Consensus) -> Result<Gathered, CoreError> {
        let Star { fleet, slots, .. } = &mut self.star;
        let bound = self.spec.staleness_bound;
        if self.cccp_round != Some(st.cccp_round) {
            // The linearization changes with this round's assignments:
            // every in-flight assignment is void, and its eventual reply a
            // late discard.
            self.outstanding.fill(None);
            self.cccp_round = Some(st.cccp_round);
        }
        let deadline = BARRIER.retry.round_deadline;
        // D2 audit: whether a reply folds is decided purely by its
        // epoch/basis tags, never by the wall-clock instant it arrived at.
        // plos-lint: allow(D2): pass-window/deadline timeout plumbing only
        let started = Instant::now();
        let arrived = loop {
            let (epoch, alive) = (st.round, wire_u32(fleet.alive_count()));
            // Devices with nothing in flight get this epoch's (w0, u_t);
            // devices whose outstanding assignment fell more than S epochs
            // behind are re-assigned.
            for (t, slot) in self.outstanding.iter_mut().enumerate() {
                match *slot {
                    _ if !fleet.is_alive(t) => continue,
                    Some(at) if epoch.saturating_sub(at) <= bound => continue,
                    Some(_) => fleet.reassignments = fleet.reassignments.saturating_add(1),
                    None => {}
                }
                let u_t = slots.u.get(t).cloned().unwrap_or_else(|| Vector::zeros(slots.dim));
                let (cccp_round, w0) = (st.cccp_round, st.w0.clone());
                let assign = Message::Assign {
                    round: epoch,
                    phase: PHASE_ADMM,
                    cccp_round,
                    t_count: alive,
                    w0,
                    u_t,
                };
                fleet.send_to(t, &assign);
                *slot = Some(epoch);
            }
            // plos-lint: allow(D2): pass-window/deadline timeout plumbing only
            let opened = Instant::now();
            let mut collect = Collect {
                outstanding: &mut self.outstanding,
                epoch,
                staleness_bound: bound,
                quiet_window: self.spec.poll_window,
                hard_deadline: opened + deadline,
                quiet_deadline: opened + self.spec.poll_window,
                accepted: Vec::new(),
            };
            fleet.poll(epoch, &mut collect)?;
            if !collect.accepted.is_empty() {
                break collect.accepted;
            }
            if started.elapsed() >= deadline {
                return Err(CoreError::Transport {
                    detail: format!("no update folded for {deadline:?} up to epoch {epoch}"),
                });
            }
            st.round = st.round.saturating_add(1);
        };
        // The dual step and the primal residual range over the devices
        // refreshed *this pass*: a frozen straggler slot must not
        // accumulate dual drift or put a floor under the residual.
        self.refresh.fill(false);
        let replied = arrived.len();
        for (t, w, v, xi) in arrived {
            slots.store(t, w, v, xi);
            if let Some(flag) = self.refresh.get_mut(t) {
                *flag = fleet.is_alive(t);
            }
        }
        self.w0 = st.w0.clone();
        let alive = fleet.alive_count();
        let part = RoundParticipation { round: st.round, replied, alive, retries: 0 };
        fleet.participation.push(part);
        Ok(Gathered { sum: slots.admm_sum(&fleet.alive), contributors: 0, cohort: alive })
    }
}

impl Aggregator for AsyncServer<'_> {
    fn resume(&mut self) -> Result<Option<Consensus>, CoreError> {
        self.star.resume()
    }

    fn gather(&mut self, st: &mut Consensus, phase: u8) -> Result<Gathered, CoreError> {
        if self.passes(phase) {
            self.pass(st)
        } else {
            self.star.gather(st, phase)
        }
    }

    fn commit(&mut self, round: u32, phase: u8, w0: &Vector) -> Result<[ExactSum; 2], CoreError> {
        if !self.passes(phase) {
            return self.star.commit(round, phase, w0);
        }
        let primal = self.star.slots.u_update(w0, &self.refresh);
        if let (true, Some(pass)) = (plos_obs::enabled(), self.star.participation()) {
            let dual = consensus::dual_residual(w0, &self.w0, pass.alive, self.rho);
            plos_obs::emit(
                "async_round",
                &[
                    ("epoch", round.into()),
                    ("primal_residual", primal.value().sqrt().into()),
                    ("dual_residual", dual.into()),
                    ("folded", pass.replied.into()),
                    ("alive", pass.alive.into()),
                ],
            );
            plos_obs::counter_add("async.admm_rounds", 1);
        }
        Ok([primal, ExactSum::new()])
    }

    fn objective(&mut self) -> (ExactSum, ExactSum, usize) {
        self.star.objective()
    }

    fn participation(&self) -> Option<RoundParticipation> {
        self.star.participation()
    }

    /// Snapshots once a CCCP round's ADMM loop is done and after every
    /// refinement round (`inner_done` marks both), where the slots equal
    /// the devices' own anchors: no anchors, no log.
    fn checkpoint(&mut self, st: &Consensus) -> Result<(), CoreError> {
        match self.session.as_mut() {
            Some(sess) if st.inner_done => {
                let star = Some((&self.star.slots, &self.star.fleet));
                sess.save(&st.record(KIND_ASYNC, self.fingerprint, star).encode())
            }
            _ => Ok(()),
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
    /// train), or when `poll_window` is zero or longer than a day.
    pub fn try_new(config: PlosConfig, spec: AsyncSpec) -> Result<Self, CoreError> {
        config.try_validate()?;
        if !(spec.availability > 0.0 && spec.availability <= 1.0) {
            return Err(CoreError::InvalidConfig {
                detail: format!("availability must be in (0,1], got {}", spec.availability),
            });
        }
        if spec.poll_window.is_zero() || spec.poll_window > MAX_WAIT {
            return Err(CoreError::InvalidConfig {
                detail: "poll_window must be positive and at most one day".to_string(),
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
    /// [`CoreError::Protocol`] for an invalid fault plan,
    /// [`CoreError::Transport`] when the whole fleet disconnected or no
    /// update folded for the 60 s round deadline, and
    /// [`CoreError::QuorumLost`] when a barrier round ended with no reply.
    /// Local solve failures on a device degrade that device to the
    /// consensus update instead of aborting the protocol.
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
        let (session, resume) = consensus::open_consensus(
            self.ckpt.as_ref(),
            "async",
            KIND_ASYNC,
            fingerprint,
            t_count,
            dim,
        )?;

        let (server_out, exits) =
            cohort.run(&self.config, self.runtime, self.spec, plan, |ends| {
                let mut star = Star::new(Fleet::new(plan.wrap_links(ends), BARRIER, dim));
                star.resume = resume;
                let mut server = AsyncServer {
                    star,
                    spec: self.spec,
                    rho: self.config.rho,
                    session,
                    fingerprint,
                    outstanding: vec![None; t_count],
                    cccp_round: None,
                    refresh: vec![false; t_count],
                    w0: Vector::zeros(dim),
                };
                let st = consensus::run_schedule(&self.config, &mut server, dim)?;
                server.star.fleet.shutdown();
                if let Some(sess) = &server.session {
                    sess.clear()?;
                }
                let Star { fleet, slots, .. } = server.star;
                let model =
                    consensus::assemble_model(st.w0, &slots.w, &fleet.alive, self.config.bias);
                let report = AsyncReport {
                    per_user_traffic: Vec::new(),
                    admm_iterations: st.admm_iterations,
                    cccp_rounds: st.cccp_rounds,
                    history: st.history,
                    converged: st.converged,
                    stale_replies: Vec::new(),
                    fresh_replies: Vec::new(),
                    stale_discards: fleet.stale_discards,
                    late_discards: fleet.late_discards,
                    reassignments: fleet.reassignments,
                    protocol_errors: fleet.protocol_errors,
                    evicted: fleet.evicted,
                    panicked: Vec::new(),
                    wall_clock: Duration::ZERO,
                };
                Ok::<_, CoreError>((model, report))
            })?;

        // The devices' half of the report.
        let (model, mut report) = server_out?;
        for out in exits.outputs {
            let DeviceOutcome { stats, stale, fresh, .. } = out.unwrap_or_default();
            report.per_user_traffic.push(stats);
            report.stale_replies.push(stale);
            report.fresh_replies.push(fresh);
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
    fn unbounded_poll_window_is_refused() {
        let spec = AsyncSpec { poll_window: Duration::MAX, ..AsyncSpec::default() };
        let result = AsyncDistributedPlos::try_new(PlosConfig::fast(), spec);
        assert!(
            matches!(&result, Err(CoreError::InvalidConfig { detail }) if detail.contains("poll_window")),
            "got {result:?}"
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
