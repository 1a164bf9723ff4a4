//! Sharded aggregation tree with a replicated root — the hierarchical
//! deployment of the distributed trainer (DESIGN.md §15).
//!
//! The flat star of [`crate::distributed`] gathers every device at one
//! server. This module partitions the fleet into shards via a
//! [`ShardMap`]; each shard is owned by a **regional aggregator** that
//! runs the same gather/retry/quorum machinery ([`Fleet`]) over its
//! devices and pushes one `PartialSum` frame per round up to the root.
//! The root's request is the devices' own `Assign` frame without a dual;
//! the regional stamps each device's `u_t` and sends it on.
//! The root folds the partials **in fixed shard order** and commits the
//! consensus update back down the tree. The root is the tree's
//! [`Aggregator`]: the same schedule (`crate::consensus::run_schedule`)
//! drives it and the flat star, and each regional aggregator holds its
//! shard's consensus [`Slots`].
//!
//! # Bit-parity with the flat path
//!
//! Every server-side reduction in the flat path is an exact
//! superaccumulator fold ([`ExactVecSum`] / [`ExactSum`]), which is
//! associative over any grouping of its addends. A regional partial sum
//! followed by a root-side merge is therefore *the same bits* as the flat
//! loop, at any shard count — including empty and singleton shards. The
//! `shard_parity` test battery and the `shard_parity` CI gate enforce
//! this with model-digest equality.
//!
//! # Replicated root
//!
//! The root runs `R` replicas (deterministic state slots). A seeded
//! election picks the leader; after every aggregation round the leader
//! anti-entropy-syncs its encoded [`ConsensusState`] record to the other
//! replicas by digest comparison. A [`FaultPlan::with_root_kill`] kills
//! the leader at the mid-round seam — partials gathered, fold not yet
//! committed. The next elected replica adopts the synced checkpoint,
//! re-issues the round, and the regionals replay their cached partials
//! (idempotent re-reply), so the failed-over run commits bit-identical
//! state. When every replica is dead the run fails with the typed
//! [`CoreError::RootQuorumLost`].
//!
//! The tree takes no checkpoints: its root is protected by replica
//! failover, and a sharded fit with an explicit checkpoint policy fails
//! with [`CoreError::InvalidConfig`].

use crate::asynchronous::AsyncSpec;
use crate::checkpoint;
use crate::config::FaultTolerance;
use crate::consensus::{self, splitmix64, Aggregator, Cohort, Consensus, Gathered};
use crate::distributed::{
    finish_report, DistributedPlos, DistributedReport, Fleet, RoundParticipation, Star, POLL_SLICE,
};
use crate::error::CoreError;
use crate::model::PersonalizedModel;
use crate::wire_u32;
use plos_ckpt::{fnv1a, CheckpointFile, CkptError, ConsensusState, ShardState, KIND_SHARDED};
use plos_linalg::{ExactSum, ExactVecSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{
    run_tree, ClientExit, Endpoint, FaultPlan, FaultyEndpoint, Message, ShardMap, TransportError,
};
use plos_sensing::dataset::MultiUserDataset;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Most root replicas a spec may ask for — beyond a handful the extra
/// copies only slow anti-entropy without adding failover coverage.
pub const MAX_ROOT_REPLICAS: usize = 8;

/// How long a tree node waits for its peer before declaring the link dead.
/// Generous: it only bounds genuine silence, never the happy path.
const TREE_DEADLINE: Duration = Duration::from_secs(120);

/// How often the root re-sends an unanswered request frame. Re-sends are
/// idempotent — regionals replay their cached reply for a repeated round.
const TREE_RESEND: Duration = Duration::from_millis(500);

/// Aggregation topology for [`DistributedPlos`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Topology {
    /// Single-level star: the server gathers every device directly.
    #[default]
    Flat,
    /// Two-level tree: regional aggregators own device shards and a
    /// replicated root folds their partial sums.
    Sharded(ShardSpec),
}

/// Shape of the sharded aggregation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards (regional aggregators).
    pub shards: usize,
    /// Root replicas (1..=[`MAX_ROOT_REPLICAS`]); 3 by default.
    pub replicas: usize,
    /// Explicit device→shard assignment; contiguous blocks when `None`.
    pub assignment: Option<Vec<usize>>,
}

impl ShardSpec {
    /// A contiguous-block spec with `shards` shards and 3 root replicas.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        ShardSpec { shards, replicas: 3, assignment: None }
    }

    /// Overrides the root replica count.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Pins an explicit device→shard assignment (`assignment[t]` is the
    /// shard of device `t`); empty and singleton shards are legal.
    #[must_use]
    pub fn with_assignment(mut self, assignment: Vec<usize>) -> Self {
        self.assignment = Some(assignment);
        self
    }
}

/// A regional aggregator body, boxed for [`plos_net::run_tree`]: consumes
/// its root-side uplink and returns the shard's final state.
type RegionThunk<'env> = Box<dyn FnOnce(Endpoint) -> Result<RegionFinal, CoreError> + Send + 'env>;

/// What a regional aggregator hands back through the tree scaffold when
/// the run shuts down.
struct RegionFinal {
    /// Global device ids of this shard, in local slot order.
    devices: Vec<usize>,
    /// Final per-device hyperplanes, in local slot order.
    w_ts: Vec<Vector>,
    /// Liveness at shutdown, in local slot order.
    alive: Vec<bool>,
    /// Evicted devices (global ids), in eviction order.
    evicted: Vec<usize>,
    protocol_errors: u64,
    late_discards: u64,
    /// Regional fold time (part of the run's server-side compute).
    compute: Duration,
}

/// One root replica: a deterministic state slot holding the last
/// anti-entropy-synced checkpoint encoding.
struct Replica {
    alive: bool,
    state: Option<Vec<u8>>,
    digest: u64,
}

/// The root of the tree as the schedule's [`Aggregator`]: leader/replica
/// bookkeeping plus the fault-wrapped links down to the regional
/// aggregators. Every gather starts with anti-entropy and ends at the
/// failover seam.
struct RootDriver<'a> {
    links: Vec<FaultyEndpoint<'a>>,
    plan: &'a FaultPlan,
    seed: u64,
    fingerprint: u64,
    shard_fingerprint: u64,
    replicas: Vec<Replica>,
    leader: usize,
    term: u32,
    kills_used: BTreeMap<u32, usize>,
    /// Per-shard progress, mirrored into every replica snapshot.
    shards: Vec<ShardState>,
    /// Live cohort of the last gathered round: the `T` the next round's
    /// assignments announce.
    cohort: usize,
    /// CCCP objective partials of the last ADMM commit.
    objective: (ExactSum, ExactSum),
    /// Per-round attendance, summed over the shards' partials.
    participation: Vec<RoundParticipation>,
    protocol_errors: u64,
    late_discards: u64,
}

impl<'a> RootDriver<'a> {
    fn new(
        uplinks: &'a [Endpoint],
        plan: &'a FaultPlan,
        seed: u64,
        t_count: usize,
        replicas: usize,
        fingerprint: u64,
        map: &ShardMap,
    ) -> Self {
        // Tree links get their own fault streams, keyed past the device
        // index space so device and tree faults never alias.
        let links = uplinks
            .iter()
            .enumerate()
            .map(|(s, end)| FaultyEndpoint::new(end, plan.link_faults(t_count + s)))
            .collect();
        let shards = (0..map.num_shards())
            .map(|s| ShardState {
                shard: wire_u32(s),
                n: 0,
                last_round: 0,
                partial_digest: 0,
                participation: 0,
            })
            .collect();
        let mut driver = RootDriver {
            links,
            plan,
            seed,
            fingerprint,
            shard_fingerprint: map.fingerprint(),
            replicas: (0..replicas)
                .map(|_| Replica { alive: true, state: None, digest: 0 })
                .collect(),
            leader: 0,
            term: 0,
            kills_used: BTreeMap::new(),
            shards,
            cohort: t_count,
            objective: (ExactSum::new(), ExactSum::new()),
            participation: Vec::new(),
            protocol_errors: 0,
            late_discards: 0,
        };
        driver.leader = driver.elect().unwrap_or(0);
        driver
    }

    /// Seeded deterministic election: the live replica with the highest
    /// splitmix64 rank for this term wins (index breaks exact ties).
    fn elect(&self) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .max_by_key(|&(i, _)| {
                (
                    splitmix64(
                        self.seed
                            ^ u64::from(self.term).wrapping_mul(0xd6e8_feb8_6659_fd93)
                            ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                    ),
                    i,
                )
            })
            .map(|(i, _)| i)
    }

    /// Sends one frame per regional link; a dead tree link is fatal.
    fn send_all(&mut self, make: &dyn Fn(usize) -> Message) -> Result<(), CoreError> {
        for (s, link) in self.links.iter_mut().enumerate() {
            if link.send(&make(s)).is_err() {
                return Err(CoreError::Transport {
                    detail: format!("regional aggregator {s} disconnected"),
                });
            }
        }
        Ok(())
    }

    /// Receives one in-round reply from shard `s` — the `PartialSum` an
    /// `Assign` asks for, or the `ShardResidual` a `ShardCommit` asks for —
    /// re-sending `request` on prolonged silence; stale-round frames are
    /// discarded by tag.
    fn collect_one(
        &mut self,
        s: usize,
        round: u32,
        request: &Message,
    ) -> Result<Message, CoreError> {
        let want_residual = matches!(request, Message::ShardCommit { .. });
        // plos-lint: allow(D2): tree retry-window/deadline plumbing only
        let started = Instant::now();
        let deadline = started + TREE_DEADLINE;
        let mut resend_at = started + TREE_RESEND;
        loop {
            let Some(link) = self.links.get_mut(s) else {
                return Err(CoreError::Protocol { detail: format!("no tree link for shard {s}") });
            };
            match link.recv_timeout(POLL_SLICE * 25) {
                Ok(msg) => {
                    let (residual, shard, r) = match &msg {
                        Message::PartialSum { shard, round, .. } => (false, *shard, *round),
                        Message::ShardResidual { shard, round, .. } => (true, *shard, *round),
                        _ => {
                            self.protocol_errors = self.protocol_errors.saturating_add(1);
                            continue;
                        }
                    };
                    if r != round {
                        self.late_discards = self.late_discards.saturating_add(1);
                    } else if residual == want_residual && shard as usize == s {
                        return Ok(msg);
                    } else {
                        self.protocol_errors = self.protocol_errors.saturating_add(1);
                    }
                }
                Err(TransportError::Timeout | TransportError::Codec(_)) => {
                    // plos-lint: allow(D2): tree retry-window/deadline plumbing only
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(CoreError::Transport {
                            detail: format!("shard {s} went silent in round {round}"),
                        });
                    }
                    if now >= resend_at {
                        resend_at = now + TREE_RESEND;
                        if let Some(link) = self.links.get_mut(s) {
                            let _ = link.send(request);
                        }
                    }
                }
                Err(TransportError::Disconnected) => {
                    return Err(CoreError::Transport {
                        detail: format!("regional aggregator {s} disconnected in round {round}"),
                    });
                }
            }
        }
    }

    /// Collects one in-round reply per shard, in fixed shard order.
    fn collect(&mut self, round: u32, request: &Message) -> Result<Vec<Message>, CoreError> {
        (0..self.links.len()).map(|s| self.collect_one(s, round, request)).collect()
    }

    /// Start-of-round state snapshot: both the anti-entropy payload and
    /// the checkpoint a failed-over leader resumes from.
    fn snapshot(&self, st: &Consensus) -> ConsensusState {
        ConsensusState {
            shard_fingerprint: self.shard_fingerprint,
            term: self.term,
            shards: self.shards.clone(),
            ..st.record(KIND_SHARDED, self.fingerprint, None)
        }
    }

    /// Anti-entropy: ships the leader's start-of-round checkpoint to every
    /// live replica whose digest disagrees.
    fn sync_replicas(&mut self, st: &Consensus) {
        let bytes = self.snapshot(st).encode().encode();
        let digest = fnv1a(&bytes);
        let mut synced = 0usize;
        let mut live = 0usize;
        for replica in self.replicas.iter_mut().filter(|r| r.alive) {
            live += 1;
            if replica.digest != digest {
                replica.state = Some(bytes.clone());
                replica.digest = digest;
                synced += 1;
            }
        }
        if synced > 0 {
            plos_obs::emit(
                "anti_entropy",
                &[("round", st.round.into()), ("synced", synced.into()), ("replicas", live.into())],
            );
        }
    }

    /// Adopts a replica's synced checkpoint after failover. It was synced
    /// at the start of the very round being replayed, so its coordinates
    /// must match the in-flight round exactly.
    fn adopt(&mut self, st: &mut Consensus, bytes: &[u8]) -> Result<(), CoreError> {
        let file = CheckpointFile::decode(bytes).map_err(CoreError::Ckpt)?;
        let mut rec = ConsensusState::decode(&file, KIND_SHARDED).map_err(CoreError::Ckpt)?;
        checkpoint::check_fingerprint(rec.fingerprint, self.fingerprint)?;
        if rec.shard_fingerprint != self.shard_fingerprint {
            return Err(CoreError::Ckpt(CkptError::Malformed {
                detail: "replica checkpoint binds a different shard map".to_string(),
            }));
        }
        if rec.round != st.round {
            return Err(CoreError::Ckpt(CkptError::Malformed {
                detail: format!(
                    "replica checkpoint is for round {} but round {} is in flight",
                    rec.round, st.round
                ),
            }));
        }
        let (adopted, _) = Consensus::from_record(&mut rec);
        *st = Consensus { server_compute: st.server_compute, ..adopted };
        self.shards = rec.shards;
        Ok(())
    }

    /// The mid-round seam: executes every leader kill the plan scheduled
    /// for `round`, failing over (and adopting the synced checkpoint) per
    /// kill, then re-issues the round's `request` so the regionals replay
    /// their cached partials. Returns the final partial set to fold.
    fn seam(
        &mut self,
        st: &mut Consensus,
        request: &Message,
        mut partials: Vec<Message>,
    ) -> Result<Vec<Message>, CoreError> {
        let round = st.round;
        let planned = self.plan.root_kills_at(round);
        while self.kills_used.get(&round).copied().unwrap_or(0) < planned {
            *self.kills_used.entry(round).or_insert(0) += 1;
            let dead = self.leader;
            if let Some(slot) = self.replicas.get_mut(dead) {
                slot.alive = false;
            }
            self.term += 1;
            let Some(next) = self.elect() else {
                return Err(CoreError::RootQuorumLost { round, replicas: self.replicas.len() });
            };
            self.leader = next;
            plos_obs::emit(
                "failover",
                &[
                    ("round", round.into()),
                    ("term", self.term.into()),
                    ("from", dead.into()),
                    ("to", next.into()),
                ],
            );
            plos_obs::counter_add("sharded.failovers", 1);
            if let Some(bytes) = self.replicas.get(next).and_then(|r| r.state.clone()) {
                self.adopt(st, &bytes)?;
            }
            // The new leader resumes the in-flight round from the adopted
            // checkpoint, synced at the start of this very round: re-issue
            // the request and re-collect (idempotent replay).
            self.send_all(&|_s| request.clone())?;
            partials = self.collect(round, request)?;
        }
        Ok(partials)
    }
}

impl Aggregator for RootDriver<'_> {
    fn resume(&mut self) -> Result<Option<Consensus>, CoreError> {
        Ok(None)
    }

    /// One full gather: start-of-round anti-entropy, request, collect, the
    /// kill seam, then the shard-ordered merge of the partials — the exact
    /// accumulator makes the grouping irrelevant.
    fn gather(&mut self, st: &mut Consensus, phase: u8) -> Result<Gathered, CoreError> {
        let round = st.round;
        self.sync_replicas(st);
        // The devices' own assignment, without a dual: each regional stamps
        // its devices' `u_t`.
        let request = Message::Assign {
            round,
            phase,
            cccp_round: st.cccp_round,
            t_count: wire_u32(self.cohort),
            w0: st.w0.clone(),
            u_t: Vector::zeros(0),
        };
        self.send_all(&|_s| request.clone())?;
        let partials = self.collect(round, &request)?;
        let partials = self.seam(st, &request, partials)?;
        // plos-lint: allow(D2): server compute-time metering only
        let t0 = Instant::now();
        let mut sum = ExactVecSum::zeros(st.w0.len());
        let mut contributors = 0;
        let mut part = RoundParticipation { round, replied: 0, alive: 0, retries: 0 };
        for (msg, stat) in partials.iter().zip(self.shards.iter_mut()) {
            let Message::PartialSum { n, m, participation, sum_w, retries, .. } = msg else {
                continue;
            };
            sum.merge(sum_w).map_err(|e| CoreError::Protocol {
                detail: format!("shard partial has wrong shape: {e}"),
            })?;
            contributors += *m as usize;
            part.replied += *participation as usize;
            part.alive += *n as usize;
            part.retries = part.retries.saturating_add(*retries);
            stat.n = u64::from(*n);
            stat.last_round = round;
            stat.partial_digest = fnv1a(&msg.encode());
            stat.participation = stat.participation.saturating_add(u64::from(*participation));
        }
        st.server_compute += t0.elapsed();
        plos_obs::emit(
            "shard_round",
            &[
                ("round", round.into()),
                ("phase", u64::from(phase).into()),
                ("shards", partials.len().into()),
                ("cohort", part.alive.into()),
                ("leader", self.leader.into()),
                ("term", self.term.into()),
            ],
        );
        self.cohort = part.alive;
        self.participation.push(part);
        Ok(Gathered { sum, contributors, cohort: self.cohort })
    }

    /// Commits down the tree; the regionals run the u-update (or the
    /// refinement partials) and answer with exact residual partials.
    fn commit(&mut self, round: u32, phase: u8, w0: &Vector) -> Result<[ExactSum; 2], CoreError> {
        let request = Message::ShardCommit { round, phase, w0: w0.clone() };
        self.send_all(&|_s| request.clone())?;
        let mut merged = [ExactSum::new(), ExactSum::new(), ExactSum::new()];
        for msg in self.collect(round, &request)? {
            if let Message::ShardResidual { a, b, c, .. } = msg {
                for (acc, part) in merged.iter_mut().zip([a, b, c]) {
                    acc.merge(&part);
                }
            }
        }
        let [a, b, c] = merged;
        if phase == PHASE_ADMM {
            self.objective = (b, c);
            return Ok([a, ExactSum::new()]);
        }
        Ok([a, b])
    }

    fn objective(&mut self) -> (ExactSum, ExactSum, usize) {
        (self.objective.0.clone(), self.objective.1.clone(), self.cohort)
    }

    fn participation(&self) -> Option<RoundParticipation> {
        self.participation.last().copied()
    }

    fn checkpoint(&mut self, _st: &Consensus) -> Result<(), CoreError> {
        Ok(())
    }
}

/// The regional aggregator: a [`Star`] over one shard's devices that
/// answers the root's request frames with exact partial sums, and replays
/// its cached reply when a failed-over leader re-issues a round.
fn region_loop(
    uplink: &Endpoint,
    shard: usize,
    devices: Vec<usize>,
    ends: Vec<Endpoint>,
    plan: &FaultPlan,
    ft: FaultTolerance,
    dim: usize,
) -> Result<RegionFinal, CoreError> {
    let shard_id = wire_u32(shard);
    // Device faults stay keyed by *global* device index, so a device's
    // fault stream is identical whichever shard (or the flat star) owns it.
    let links: Vec<FaultyEndpoint<'_>> = devices
        .iter()
        .zip(ends.iter())
        .map(|(&t, end)| FaultyEndpoint::new(end, plan.link_faults(t)))
        .collect();
    let mut star = Star::new(Fleet::with_ids(links, ft, devices.clone(), dim));
    let mut st = Consensus::new(dim);
    // Idempotent replay caches: a failed-over leader re-issues the round
    // it was killed in, and the cached reply must be byte-identical.
    let mut last_partial: Option<(u32, Message)> = None;
    let mut last_residual: Option<(u32, Message)> = None;
    // plos-lint: allow(D2): root-silence deadline plumbing only
    let mut heard = Instant::now();

    loop {
        let msg = match uplink.recv_timeout(POLL_SLICE * 25) {
            Ok(msg) => {
                // plos-lint: allow(D2): root-silence deadline plumbing only
                heard = Instant::now();
                msg
            }
            Err(TransportError::Timeout | TransportError::Codec(_)) => {
                if heard.elapsed() > TREE_DEADLINE {
                    star.fleet.shutdown();
                    return Err(CoreError::Transport {
                        detail: format!("root went silent on shard {shard}"),
                    });
                }
                continue;
            }
            // Root exited (error path elsewhere): release the devices and
            // report what this shard has — the root's error is authoritative.
            Err(TransportError::Disconnected) => break,
        };
        let (round, cache) = match &msg {
            Message::Assign { round, .. } => (*round, &mut last_partial),
            Message::ShardCommit { round, .. } => (*round, &mut last_residual),
            Message::Shutdown => break,
            _ => {
                star.fleet.protocol_errors = star.fleet.protocol_errors.saturating_add(1);
                continue;
            }
        };
        if let Some((_, reply)) = cache.as_ref().filter(|(r, _)| *r == round) {
            // Failover replay: re-reply without touching devices.
            let _ = uplink.send(reply);
            continue;
        }
        let reply = match msg {
            Message::Assign { phase, cccp_round, t_count, w0, .. } => {
                if !matches!(phase, PHASE_INIT | PHASE_ADMM | PHASE_REFINE) {
                    return Err(CoreError::Protocol {
                        detail: format!("unknown shard phase {phase} in round {round}"),
                    });
                }
                (st.round, st.cccp_round, st.w0) = (round, cccp_round, w0);
                let g = star.run_round(&st, phase, t_count)?;
                // An empty shard gathers nothing and contributes the exact
                // zero partial.
                let part = star.participation().filter(|p| p.round == round);
                Message::PartialSum {
                    shard: shard_id,
                    round,
                    n: wire_u32(g.cohort),
                    m: wire_u32(g.contributors),
                    participation: part.map_or(0, |p| wire_u32(p.replied)),
                    sum_w: g.sum,
                    retries: part.map_or(0, |p| p.retries),
                }
            }
            Message::ShardCommit { phase, w0, .. } => {
                // ADMM: the u-update's primal partial, then the objective's
                // v/ξ terms; refinement: distance-to-consensus and loss.
                let [a, b] = star.commit(round, phase, &w0)?;
                let [b, c] = if phase == PHASE_ADMM {
                    let (v_sq, xi, _) = star.objective();
                    [v_sq, xi]
                } else {
                    [b, ExactSum::new()]
                };
                Message::ShardResidual {
                    shard: shard_id,
                    round,
                    a: Box::new(a),
                    b: Box::new(b),
                    c: Box::new(c),
                }
            }
            // Every other frame was handled above.
            _ => continue,
        };
        *cache = Some((round, reply.clone()));
        if uplink.send(&reply).is_err() {
            break;
        }
    }

    star.fleet.shutdown();
    Ok(RegionFinal {
        devices,
        w_ts: star.slots.w,
        alive: star.fleet.alive,
        evicted: star.fleet.evicted,
        protocol_errors: star.fleet.protocol_errors,
        late_discards: star.fleet.late_discards,
        compute: star.compute,
    })
}

/// Trains over the two-level sharded tree. Entry point used by
/// [`DistributedPlos::fit_with_faults`] when [`Topology::Sharded`] is set.
pub(crate) fn fit_sharded(
    trainer: &DistributedPlos,
    dataset: &MultiUserDataset,
    plan: &FaultPlan,
    spec: &ShardSpec,
) -> Result<(PersonalizedModel, DistributedReport), CoreError> {
    let _span = plos_obs::Span::enter("sharded_fit");
    // plos-lint: allow(D2): wall_clock field of the report only
    let started = Instant::now();
    let cohort = Cohort::prepare(dataset, plan, &trainer.config)?;
    if spec.replicas == 0 || spec.replicas > MAX_ROOT_REPLICAS {
        return Err(CoreError::InvalidConfig {
            detail: format!("root replicas must be 1..={MAX_ROOT_REPLICAS}, got {}", spec.replicas),
        });
    }
    let (t_count, dim) = (cohort.t_count, cohort.dim);
    let map = match &spec.assignment {
        Some(assignment) => ShardMap::from_assignment(assignment.clone(), spec.shards),
        None => ShardMap::contiguous(t_count, spec.shards),
    }
    .map_err(|e| CoreError::InvalidConfig { detail: format!("invalid shard map: {e}") })?;
    if map.len() != t_count {
        return Err(CoreError::InvalidConfig {
            detail: format!("shard map covers {} devices but the dataset has {t_count}", map.len()),
        });
    }
    let fingerprint = checkpoint::run_fingerprint(KIND_SHARDED, t_count, dim, &trainer.config);
    let num_shards = map.num_shards();
    let map_ref = &map;
    let (server_out, exits) = cohort.run(
        &trainer.config,
        trainer.runtime,
        AsyncSpec::SYNCHRONOUS,
        plan,
        |server_ends| {
            // Move each shard's device endpoints out of the star and into
            // its regional aggregator thread.
            let mut owned: Vec<Option<Endpoint>> = server_ends.drain(..).map(Some).collect();
            let regions: Vec<RegionThunk<'_>> = (0..num_shards)
                .map(|s| {
                    let devices = map_ref.devices_of(s);
                    let ends: Vec<Endpoint> = devices
                        .iter()
                        .filter_map(|&t| owned.get_mut(t).and_then(Option::take))
                        .collect();
                    let ft = trainer.fault_tolerance.clone();
                    Box::new(move |uplink: Endpoint| {
                        region_loop(&uplink, s, devices, ends, plan, ft, dim)
                    }) as RegionThunk<'_>
                })
                .collect();
            run_tree(regions, |uplinks| {
                let seed = trainer.config.seed;
                let replicas = spec.replicas;
                let mut root =
                    RootDriver::new(uplinks, plan, seed, t_count, replicas, fingerprint, map_ref);
                let st = consensus::run_schedule(&trainer.config, &mut root, dim)?;
                root.send_all(&|_s| Message::Shutdown)?;
                Ok::<_, CoreError>((
                    st,
                    root.participation,
                    root.protocol_errors,
                    root.late_discards,
                ))
            })
        },
    )?;

    let (root_out, region_exits) = server_out;
    // A typed regional failure (quorum lost in a shard, device transport
    // collapse) explains the run better than the root's secondary
    // disconnect error, so surface it first.
    let mut regions: Vec<RegionFinal> = Vec::with_capacity(num_shards);
    let mut region_error: Option<CoreError> = None;
    for (s, exit) in region_exits.into_iter().enumerate() {
        let err = match exit {
            ClientExit::Finished(Ok(fin)) => {
                regions.push(fin);
                continue;
            }
            ClientExit::Finished(Err(err)) => err,
            ClientExit::Panicked(msg) => {
                CoreError::Protocol { detail: format!("regional aggregator {s} panicked: {msg}") }
            }
        };
        region_error.get_or_insert(err);
    }
    let (st, participation, mut protocol_errors, mut late_discards) = match (root_out, region_error)
    {
        (Ok(root), None) => root,
        // The root's own replica exhaustion is the primary fault.
        (Err(err @ CoreError::RootQuorumLost { .. }), _) | (_, Some(err)) | (Err(err), None) => {
            return Err(err)
        }
    };

    // Reassemble the global per-device view from the per-shard finals.
    let mut w_ts = vec![Vector::zeros(dim); t_count];
    let mut alive = vec![false; t_count];
    let mut evicted = Vec::new();
    let mut server_compute = st.server_compute;
    for fin in regions {
        for (local, &t) in fin.devices.iter().enumerate() {
            if let (Some(w_slot), Some(a_slot)) = (w_ts.get_mut(t), alive.get_mut(t)) {
                *w_slot = fin.w_ts.get(local).cloned().unwrap_or_else(|| Vector::zeros(dim));
                *a_slot = fin.alive.get(local).copied().unwrap_or(false);
            }
        }
        evicted.extend(fin.evicted);
        protocol_errors = protocol_errors.saturating_add(fin.protocol_errors);
        late_discards = late_discards.saturating_add(fin.late_discards);
        server_compute += fin.compute;
    }
    let model = consensus::assemble_model(st.w0.clone(), &w_ts, &alive, trainer.config.bias);
    let report = DistributedReport::from_server(
        st,
        server_compute,
        evicted,
        participation,
        protocol_errors,
        late_discards,
    );
    Ok((model, finish_report(report, exits, started)))
}
