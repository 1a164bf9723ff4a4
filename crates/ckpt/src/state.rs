//! Checkpointable state mirrors and their section-level codecs.
//!
//! The solver crates convert their private working state into these plain
//! data structs; this module owns the byte layout. Each state kind encodes
//! into a [`CheckpointFile`] with a fixed set of tagged sections:
//!
//! | tag | section  | contents                                          |
//! |-----|----------|---------------------------------------------------|
//! | 1   | CONTEXT  | kind byte + run fingerprint                       |
//! | 2   | META     | phase, counters, flags, scalars                   |
//! | 3   | MODEL    | w0 and per-user vector blocks                     |
//! | 4   | HISTORY  | objective history (+ residuals, consensus)        |
//! | 5   | ROSTER   | liveness, strikes, evictions, counters, shards    |
//! | 6   | LOG      | current-round broadcast replay log                |
//! | 7   | DUAL     | cutting-plane working set + warm start            |
//!
//! The three ADMM servers — the flat star, the bounded-staleness async
//! server and the sharded tree's root — share one record,
//! [`ConsensusState`]; its kind byte says which server wrote it.
//!
//! Privacy note: none of these sections ever carry device-local training
//! data. The consensus record holds only quantities the server already
//! received over the wire (consensus iterates, duals, slacks, anchors).

use crate::error::CkptError;
use crate::frame::CheckpointFile;
use crate::wire::{Reader, Writer};
use plos_linalg::Vector;

/// Section tag: kind byte + fingerprint.
pub const SEC_CONTEXT: u16 = 1;
/// Section tag: phase, counters, scalars.
pub const SEC_META: u16 = 2;
/// Section tag: model vectors.
pub const SEC_MODEL: u16 = 3;
/// Section tag: objective history and residuals.
pub const SEC_HISTORY: u16 = 4;
/// Section tag: fleet roster and shard table (consensus only).
pub const SEC_ROSTER: u16 = 5;
/// Section tag: broadcast replay log (consensus only).
pub const SEC_LOG: u16 = 6;
/// Section tag: dual-solver working set.
pub const SEC_DUAL: u16 = 7;

/// Kind byte: a [`DualState`].
pub const KIND_DUAL: u8 = 2;
/// Kind byte: a [`CentralizedState`].
pub const KIND_CENTRALIZED: u8 = 3;
/// Kind byte: a [`ConsensusState`] written by the flat star.
pub const KIND_DISTRIBUTED: u8 = 4;
/// Kind byte: a [`ConsensusState`] written by the async server.
pub const KIND_ASYNC: u8 = 5;
/// Kind byte: a [`ConsensusState`] written by the sharded tree's root.
pub const KIND_SHARDED: u8 = 6;

fn context_section(kind: u8, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(kind);
    w.put_u64(fingerprint);
    w.into_bytes()
}

fn read_context(file: &CheckpointFile, expected: u8) -> Result<u64, CkptError> {
    let mut r = Reader::new(file.section(SEC_CONTEXT)?);
    let kind = r.get_u8("context kind")?;
    if kind != expected {
        return Err(CkptError::WrongKind { found: kind, expected });
    }
    let fingerprint = r.get_u64("context fingerprint")?;
    r.finish("context section")?;
    Ok(fingerprint)
}

fn malformed(detail: String) -> CkptError {
    CkptError::Malformed { detail }
}

/// Writes a length-prefixed list, one `put` per item.
fn put_list<T>(w: &mut Writer, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
    w.put_usize(items.len());
    for item in items {
        put(w, item);
    }
}

/// Reads a length-prefixed list whose items each take at least `min_size`
/// bytes (checked before allocating).
fn get_list<'a, T>(
    r: &mut Reader<'a>,
    min_size: usize,
    what: &'static str,
    mut get: impl FnMut(&mut Reader<'a>) -> Result<T, CkptError>,
) -> Result<Vec<T>, CkptError> {
    let len = r.get_len(min_size, what)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get(r)?);
    }
    Ok(out)
}

fn put_vectors(w: &mut Writer, vs: &[Vector]) {
    put_list(w, vs, Writer::put_vector);
}

fn get_vectors(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<Vector>, CkptError> {
    // Each vector costs at least its 8-byte length prefix.
    get_list(r, 8, what, |r| r.get_vector(what))
}

/// Which outer phase a run was in when checkpointed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Phase {
    /// Inside the CCCP outer loop — for the ADMM servers, inside the
    /// consensus loop of some CCCP round.
    #[default]
    Cccp,
    /// Inside post-CCCP refinement.
    Refine {
        /// Refinement rounds already completed.
        rounds_done: u32,
    },
}

/// The one phase codec: a phase byte plus the refinement round count.
fn put_phase(w: &mut Writer, phase: Phase) {
    let (byte, rounds_done) = match phase {
        Phase::Cccp => (0, 0),
        Phase::Refine { rounds_done } => (1, rounds_done),
    };
    w.put_u8(byte);
    w.put_u32(rounds_done);
}

fn get_phase(r: &mut Reader<'_>) -> Result<Phase, CkptError> {
    let byte = r.get_u8("phase")?;
    let rounds_done = r.get_u32("refine rounds done")?;
    match byte {
        0 => Ok(Phase::Cccp),
        1 => Ok(Phase::Refine { rounds_done }),
        other => Err(malformed(format!("unknown phase byte {other}"))),
    }
}

/// One cutting-plane constraint owned by a user: aggregated direction `s`
/// and offset `c` (Eq. 13–14), plus whether it is a hard balance row.
#[derive(Debug, Clone, PartialEq)]
pub struct DualEntry {
    /// Index of the user that owns the constraint.
    pub owner: usize,
    /// Aggregated constraint direction.
    pub s: Vector,
    /// Constraint offset.
    pub c: f64,
    /// True for hard (balance) constraints exempt from the box cap.
    pub hard: bool,
}

/// The structured dual solver's resumable state: working set and warm
/// start. The Gram matrix is *not* stored — it is recomputed entry by
/// entry on restore, which is deterministic and keeps files small.
#[derive(Debug, Clone, PartialEq)]
pub struct DualState {
    /// Structural fingerprint of the owning run.
    pub fingerprint: u64,
    /// Regularization trade-off λ.
    pub lambda: f64,
    /// Number of users in the cohort.
    pub t_count: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Working-set constraints in insertion order.
    pub entries: Vec<DualEntry>,
    /// Warm-start multipliers, one per entry.
    pub warm: Vec<f64>,
}

impl DualState {
    /// Serializes into a framed checkpoint.
    #[must_use]
    pub fn encode(&self) -> CheckpointFile {
        let mut file = CheckpointFile::new();
        file.push_section(SEC_CONTEXT, context_section(KIND_DUAL, self.fingerprint));
        let mut meta = Writer::new();
        meta.put_f64(self.lambda);
        meta.put_usize(self.t_count);
        meta.put_usize(self.dim);
        file.push_section(SEC_META, meta.into_bytes());
        let mut dual = Writer::new();
        dual.put_usize(self.entries.len());
        for entry in &self.entries {
            dual.put_usize(entry.owner);
            dual.put_vector(&entry.s);
            dual.put_f64(entry.c);
            dual.put_bool(entry.hard);
        }
        dual.put_f64s(&self.warm);
        file.push_section(SEC_DUAL, dual.into_bytes());
        file
    }

    /// Reconstructs from a verified checkpoint file.
    pub fn decode(file: &CheckpointFile) -> Result<Self, CkptError> {
        let fingerprint = read_context(file, KIND_DUAL)?;
        let mut meta = Reader::new(file.section(SEC_META)?);
        let lambda = meta.get_f64("lambda")?;
        let t_count = meta.get_usize("t_count")?;
        let dim = meta.get_usize("dim")?;
        meta.finish("meta section")?;
        let mut dual = Reader::new(file.section(SEC_DUAL)?);
        // Each entry costs at least owner + vector-len + c + hard bytes.
        let n = dual.get_len(8 + 8 + 8 + 1, "dual entries")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let owner = dual.get_usize("entry owner")?;
            let s = dual.get_vector("entry direction")?;
            let c = dual.get_f64("entry offset")?;
            let hard = dual.get_bool("entry hard flag")?;
            entries.push(DualEntry { owner, s, c, hard });
        }
        let warm = dual.get_f64s("warm start")?;
        dual.finish("dual section")?;
        if warm.len() != entries.len() {
            return Err(CkptError::Malformed {
                detail: format!(
                    "warm start has {} multipliers for {} entries",
                    warm.len(),
                    entries.len()
                ),
            });
        }
        Ok(DualState { fingerprint, lambda, t_count, dim, entries, warm })
    }
}

/// Mid-run state of the centralized CCCP solver, written after each outer
/// round.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralizedState {
    /// Structural fingerprint of the run (dataset shape + config).
    pub fingerprint: u64,
    /// Outer phase and phase-local progress. In [`Phase::Cccp`] `vectors`
    /// holds per-user biases `v_t`; in [`Phase::Refine`] it holds per-user
    /// hyperplanes `w_t`.
    pub phase: Phase,
    /// Current global hyperplane `w0`.
    pub w0: Vector,
    /// Phase-dependent per-user vectors (see [`CentralizedState::phase`]).
    pub vectors: Vec<Vector>,
    /// Objective value after every completed outer round.
    pub history: Vec<f64>,
    /// CCCP rounds completed.
    pub cccp_rounds: u32,
    /// Whether the CCCP loop reached its convergence tolerance.
    pub cccp_converged: bool,
    /// Cutting-plane inner rounds completed so far (reporting only).
    pub cutting_rounds: u64,
    /// Constraints added so far (reporting only).
    pub constraints_added: u64,
}

impl CentralizedState {
    /// Serializes into a framed checkpoint.
    #[must_use]
    pub fn encode(&self) -> CheckpointFile {
        let mut file = CheckpointFile::new();
        file.push_section(SEC_CONTEXT, context_section(KIND_CENTRALIZED, self.fingerprint));
        let mut meta = Writer::new();
        put_phase(&mut meta, self.phase);
        meta.put_u32(self.cccp_rounds);
        meta.put_bool(self.cccp_converged);
        meta.put_u64(self.cutting_rounds);
        meta.put_u64(self.constraints_added);
        file.push_section(SEC_META, meta.into_bytes());
        let mut model = Writer::new();
        model.put_vector(&self.w0);
        put_vectors(&mut model, &self.vectors);
        file.push_section(SEC_MODEL, model.into_bytes());
        let mut hist = Writer::new();
        hist.put_f64s(&self.history);
        file.push_section(SEC_HISTORY, hist.into_bytes());
        file
    }

    /// Reconstructs from a verified checkpoint file.
    pub fn decode(file: &CheckpointFile) -> Result<Self, CkptError> {
        let fingerprint = read_context(file, KIND_CENTRALIZED)?;
        let mut meta = Reader::new(file.section(SEC_META)?);
        let phase = get_phase(&mut meta)?;
        let cccp_rounds = meta.get_u32("cccp_rounds")?;
        let cccp_converged = meta.get_bool("cccp_converged")?;
        let cutting_rounds = meta.get_u64("cutting_rounds")?;
        let constraints_added = meta.get_u64("constraints_added")?;
        meta.finish("meta section")?;
        let mut model = Reader::new(file.section(SEC_MODEL)?);
        let w0 = model.get_vector("w0")?;
        let vectors = get_vectors(&mut model, "per-user vectors")?;
        model.finish("model section")?;
        let mut hist = Reader::new(file.section(SEC_HISTORY)?);
        let history = hist.get_f64s("objective history")?;
        hist.finish("history section")?;
        Ok(CentralizedState {
            fingerprint,
            phase,
            w0,
            vectors,
            history,
            cccp_rounds,
            cccp_converged,
            cutting_rounds,
            constraints_added,
        })
    }
}

/// One recorded participation round, mirrored from the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParticipationRecord {
    /// Communication round number.
    pub round: u32,
    /// Devices that replied.
    pub replied: u64,
    /// Devices alive at the start of the round.
    pub alive: u64,
    /// Retries spent this round.
    pub retries: u64,
}

/// One broadcast the server sent during the current CCCP round, kept so a
/// resumed server can replay the round to rebuild device-side solver state
/// bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastRecord {
    /// Original communication round number of the broadcast.
    pub round: u32,
    /// Consensus iterate `w0` sent that round.
    pub w0: Vector,
    /// Per-user scaled duals `u_t` sent that round.
    pub us: Vec<Vector>,
}

/// Per-shard progress mirrored at the tree's root, one entry per shard of
/// its shard map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardState {
    /// Shard index.
    pub shard: u32,
    /// Devices alive in the shard at the last completed round.
    pub n: u64,
    /// Last aggregation round whose partial the root accepted from this
    /// shard.
    pub last_round: u32,
    /// FNV-1a digest of that partial's wire encoding — lets a failed-over
    /// leader verify a re-replied partial matches what the dead leader
    /// folded.
    pub partial_digest: u64,
    /// Devices that replied before the shard's quorum deadline that round.
    pub participation: u64,
}

/// A star-shaped server's device roster, mirrored from its fleet: liveness,
/// strikes, evictions, attendance and the discard counters, so a resumed
/// run's report continues the interrupted one's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Roster {
    /// Device liveness flags.
    pub alive: Vec<bool>,
    /// Consecutive missed-round strikes per device.
    pub missed: Vec<u32>,
    /// Devices evicted so far, in eviction order.
    pub evicted: Vec<u64>,
    /// Per-round participation records.
    pub participation: Vec<ParticipationRecord>,
    /// Malformed-reply count.
    pub protocol_errors: u64,
    /// Late/duplicate replies discarded.
    pub late_discards: u64,
    /// Async: updates discarded because their basis exceeded the staleness
    /// bound.
    pub stale_discards: u64,
    /// Async: assignments re-issued after their awaited reply went
    /// over-stale.
    pub reassignments: u64,
}

/// The consensus-ADMM server state of Algorithm 2, as the flat star, the
/// bounded-staleness async server and the sharded tree's root record it.
///
/// A mode writes every part it lacks empty:
///
/// * the **flat star** snapshots after every ADMM iteration and refinement
///   round; it writes the device slots, the roster and — mid-CCCP — each
///   device's CCCP anchor and the round's broadcast log;
/// * the **async server** snapshots at CCCP and refinement boundaries,
///   where each device's anchor is its own last `w_t`, so it writes no
///   anchors and no log (`round` holds its consensus epoch);
/// * the **tree's root** holds no device slots and no roster; its record
///   is the anti-entropy payload its replicas compare by digest, bound to
///   the shard map in force by `shard_fingerprint`.
///
/// Server-side quantities only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConsensusState {
    /// Which server wrote the record: [`KIND_DISTRIBUTED`],
    /// [`KIND_ASYNC`] or [`KIND_SHARDED`].
    pub kind: u8,
    /// Structural fingerprint of the run (cohort shape + config).
    pub fingerprint: u64,
    /// Phase and phase-local progress.
    pub phase: Phase,
    /// Last communication round number used (the async server's epoch).
    pub round: u32,
    /// Zero-based index of the current CCCP round (the async server: of
    /// the next one).
    pub cccp_round: u32,
    /// ADMM iterations completed inside the current CCCP round.
    pub iters_done: u32,
    /// True once the current CCCP round's ADMM loop has finished (residual
    /// break or iteration budget) and only the objective push remains.
    pub inner_done: bool,
    /// Total ADMM iterations across all CCCP rounds.
    pub admm_iterations: u64,
    /// CCCP rounds completed (incremented at round entry).
    pub cccp_rounds: u32,
    /// Whether the CCCP history reached its convergence tolerance.
    pub converged: bool,
    /// Current consensus iterate `w0`.
    pub w0: Vector,
    /// Objective value after every completed CCCP round.
    pub history: Vec<f64>,
    /// Per-ADMM-iteration residuals: (round, primal, dual).
    pub residuals: Vec<(u32, f64, f64)>,
    /// Per-user scaled duals `u_t`.
    pub us: Vec<Vector>,
    /// Last per-user hyperplanes `w_t` accepted.
    pub w_ts: Vec<Vector>,
    /// Last per-user biases `v_t` accepted.
    pub v_ts: Vec<Vector>,
    /// Last per-user slack totals ξ_t accepted.
    pub xi_ts: Vec<f64>,
    /// Per-user CCCP anchors: each device's `w_t` at the start of the
    /// current CCCP round. Empty when every anchor is the device's own
    /// `w_ts` entry.
    pub anchors: Vec<Vector>,
    /// Broadcasts of the current CCCP round, oldest first.
    pub log: Vec<BroadcastRecord>,
    /// The device roster.
    pub roster: Roster,
    /// Tree: fingerprint of the shard map in force.
    pub shard_fingerprint: u64,
    /// Tree: election term of the leader that produced the record.
    pub term: u32,
    /// Tree: per-shard progress, indexed by shard.
    pub shards: Vec<ShardState>,
}

impl ConsensusState {
    /// Serializes into a framed checkpoint.
    #[must_use]
    pub fn encode(&self) -> CheckpointFile {
        let mut file = CheckpointFile::new();
        file.push_section(SEC_CONTEXT, context_section(self.kind, self.fingerprint));

        let mut meta = Writer::new();
        put_phase(&mut meta, self.phase);
        meta.put_u32(self.round);
        meta.put_u32(self.cccp_round);
        meta.put_u32(self.iters_done);
        meta.put_bool(self.inner_done);
        meta.put_u64(self.admm_iterations);
        meta.put_u32(self.cccp_rounds);
        meta.put_bool(self.converged);
        meta.put_u64(self.shard_fingerprint);
        meta.put_u32(self.term);
        file.push_section(SEC_META, meta.into_bytes());

        let mut model = Writer::new();
        model.put_vector(&self.w0);
        put_vectors(&mut model, &self.us);
        put_vectors(&mut model, &self.w_ts);
        put_vectors(&mut model, &self.v_ts);
        model.put_f64s(&self.xi_ts);
        put_vectors(&mut model, &self.anchors);
        file.push_section(SEC_MODEL, model.into_bytes());

        let mut hist = Writer::new();
        hist.put_f64s(&self.history);
        put_list(&mut hist, &self.residuals, |w, &(round, primal, dual)| {
            w.put_u32(round);
            w.put_f64(primal);
            w.put_f64(dual);
        });
        file.push_section(SEC_HISTORY, hist.into_bytes());

        let mut log = Writer::new();
        put_list(&mut log, &self.log, |w, rec| {
            w.put_u32(rec.round);
            w.put_vector(&rec.w0);
            put_vectors(w, &rec.us);
        });
        file.push_section(SEC_LOG, log.into_bytes());

        let mut roster = Writer::new();
        let ro = &self.roster;
        put_list(&mut roster, &ro.alive, |w, &a| w.put_bool(a));
        put_list(&mut roster, &ro.missed, |w, &m| w.put_u32(m));
        roster.put_u64s(&ro.evicted);
        put_list(&mut roster, &ro.participation, |w, p| {
            w.put_u32(p.round);
            w.put_u64(p.replied);
            w.put_u64(p.alive);
            w.put_u64(p.retries);
        });
        for counter in [ro.protocol_errors, ro.late_discards, ro.stale_discards, ro.reassignments] {
            roster.put_u64(counter);
        }
        put_list(&mut roster, &self.shards, |w, s| {
            w.put_u32(s.shard);
            w.put_u64(s.n);
            w.put_u32(s.last_round);
            w.put_u64(s.partial_digest);
            w.put_u64(s.participation);
        });
        file.push_section(SEC_ROSTER, roster.into_bytes());
        file
    }

    /// Reconstructs a record of `kind` from a verified checkpoint file; a
    /// record another server wrote is [`CkptError::WrongKind`].
    pub fn decode(file: &CheckpointFile, kind: u8) -> Result<Self, CkptError> {
        let fingerprint = read_context(file, kind)?;
        let mut meta = Reader::new(file.section(SEC_META)?);
        let mut model = Reader::new(file.section(SEC_MODEL)?);
        let mut hist = Reader::new(file.section(SEC_HISTORY)?);
        let mut log = Reader::new(file.section(SEC_LOG)?);
        let mut ro = Reader::new(file.section(SEC_ROSTER)?);
        // Struct fields evaluate in source order, which within each
        // section reader is the byte order `encode` wrote.
        let state = ConsensusState {
            kind,
            fingerprint,
            phase: get_phase(&mut meta)?,
            round: meta.get_u32("round")?,
            cccp_round: meta.get_u32("cccp_round")?,
            iters_done: meta.get_u32("iters_done")?,
            inner_done: meta.get_bool("inner_done")?,
            admm_iterations: meta.get_u64("admm_iterations")?,
            cccp_rounds: meta.get_u32("cccp_rounds")?,
            converged: meta.get_bool("converged")?,
            shard_fingerprint: meta.get_u64("shard fingerprint")?,
            term: meta.get_u32("term")?,
            w0: model.get_vector("w0")?,
            us: get_vectors(&mut model, "duals")?,
            w_ts: get_vectors(&mut model, "hyperplanes")?,
            v_ts: get_vectors(&mut model, "biases")?,
            xi_ts: model.get_f64s("slacks")?,
            anchors: get_vectors(&mut model, "anchors")?,
            history: hist.get_f64s("objective history")?,
            residuals: get_list(&mut hist, 4 + 8 + 8, "residuals", |r| {
                Ok((r.get_u32("residual round")?, r.get_f64("primal")?, r.get_f64("dual")?))
            })?,
            log: get_list(&mut log, 4 + 8 + 8, "broadcast log", |r| {
                Ok(BroadcastRecord {
                    round: r.get_u32("log round")?,
                    w0: r.get_vector("log w0")?,
                    us: get_vectors(r, "log duals")?,
                })
            })?,
            roster: Roster {
                alive: get_list(&mut ro, 1, "alive flags", |r| r.get_bool("alive flag"))?,
                missed: get_list(&mut ro, 4, "missed strikes", |r| r.get_u32("missed strikes"))?,
                evicted: ro.get_u64s("evicted roster")?,
                participation: get_list(&mut ro, 4 + 8 + 8 + 8, "participation", |r| {
                    Ok(ParticipationRecord {
                        round: r.get_u32("participation round")?,
                        replied: r.get_u64("participation replied")?,
                        alive: r.get_u64("participation alive")?,
                        retries: r.get_u64("participation retries")?,
                    })
                })?,
                protocol_errors: ro.get_u64("protocol_errors")?,
                late_discards: ro.get_u64("late_discards")?,
                stale_discards: ro.get_u64("stale_discards")?,
                reassignments: ro.get_u64("reassignments")?,
            },
            shards: get_list(&mut ro, 4 + 8 + 4 + 8 + 8, "shard states", |r| {
                Ok(ShardState {
                    shard: r.get_u32("shard index")?,
                    n: r.get_u64("shard alive count")?,
                    last_round: r.get_u32("shard last round")?,
                    partial_digest: r.get_u64("shard partial digest")?,
                    participation: r.get_u64("shard participation")?,
                })
            })?,
        };
        meta.finish("meta section")?;
        model.finish("model section")?;
        hist.finish("history section")?;
        log.finish("log section")?;
        ro.finish("roster section")?;
        state.validate()?;
        Ok(state)
    }

    /// Cross-field consistency: every per-device list agrees on the cohort
    /// size (0 at the tree's root), `anchors` is empty or cohort-sized, and
    /// shard entries are indexed `0..S` in order (the fixed fold order the
    /// bit-parity guarantee rides on).
    fn validate(&self) -> Result<(), CkptError> {
        let t = self.us.len();
        let lens = [
            ("w_ts", self.w_ts.len()),
            ("v_ts", self.v_ts.len()),
            ("xi_ts", self.xi_ts.len()),
            ("alive", self.roster.alive.len()),
            ("missed", self.roster.missed.len()),
        ];
        let logged = self.log.iter().map(|rec| ("broadcast log duals", rec.us.len()));
        for (name, len) in lens.into_iter().chain(logged) {
            if len != t {
                return Err(malformed(format!(
                    "cohort size disagreement: us has {t}, {name} has {len}"
                )));
            }
        }
        if !self.anchors.is_empty() && self.anchors.len() != t {
            return Err(malformed(format!("{} anchors for a cohort of {t}", self.anchors.len())));
        }
        for (i, s) in self.shards.iter().enumerate() {
            if s.shard as usize != i {
                return Err(malformed(format!("shard entry {i} claims index {}", s.shard)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    // Unit tests assert by panicking on failure; the workspace-wide
    // panic-free lint set is for library code paths, so tests opt back in.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

    use super::*;

    fn vec2(a: f64, b: f64) -> Vector {
        Vector::from(vec![a, b])
    }

    fn sample_star() -> ConsensusState {
        ConsensusState {
            kind: KIND_DISTRIBUTED,
            fingerprint: 0x1234_5678_9abc_def0,
            round: 7,
            cccp_round: 1,
            iters_done: 3,
            admm_iterations: 9,
            cccp_rounds: 2,
            w0: vec2(0.5, -0.5),
            us: vec![vec2(0.1, 0.2), vec2(-0.3, 0.0)],
            w_ts: vec![vec2(1.0, 2.0), vec2(3.0, 4.0)],
            v_ts: vec![vec2(0.0, -0.0), vec2(f64::MAX, f64::MIN)],
            xi_ts: vec![0.25, 1e-300],
            anchors: vec![vec2(9.0, 8.0), Vector::zeros(2)],
            log: vec![BroadcastRecord {
                round: 6,
                w0: vec2(0.4, -0.4),
                us: vec![vec2(0.0, 0.1), vec2(0.2, 0.3)],
            }],
            roster: Roster {
                alive: vec![true, false],
                missed: vec![0, 3],
                evicted: vec![1],
                participation: vec![ParticipationRecord {
                    round: 6,
                    replied: 1,
                    alive: 2,
                    retries: 4,
                }],
                protocol_errors: 2,
                late_discards: 1,
                ..Roster::default()
            },
            history: vec![10.0, 7.5],
            residuals: vec![(6, 0.9, 0.8), (7, 0.5, 0.4)],
            ..ConsensusState::default()
        }
    }

    fn sample_async() -> ConsensusState {
        ConsensusState {
            kind: KIND_ASYNC,
            anchors: Vec::new(),
            log: Vec::new(),
            residuals: Vec::new(),
            roster: Roster {
                missed: vec![0, 0],
                participation: Vec::new(),
                stale_discards: 5,
                reassignments: 1,
                ..sample_star().roster
            },
            ..sample_star()
        }
    }

    fn sample_root() -> ConsensusState {
        ConsensusState {
            kind: KIND_SHARDED,
            fingerprint: 0xd00d_f00d_0000_0001,
            shard_fingerprint: 0xabcd_ef01_2345_6789,
            term: 2,
            round: 11,
            w0: vec2(0.75, -0.125),
            history: vec![12.0, 9.5],
            residuals: vec![(10, 0.7, 0.6), (11, 0.3, 0.2)],
            shards: vec![
                ShardState { shard: 0, n: 3, last_round: 11, partial_digest: 77, participation: 3 },
                ShardState { shard: 1, n: 2, last_round: 11, partial_digest: 88, participation: 2 },
            ],
            ..ConsensusState::default()
        }
    }

    fn round_trip(state: &ConsensusState) -> Result<ConsensusState, CkptError> {
        let bytes = state.encode().encode();
        ConsensusState::decode(&CheckpointFile::decode(&bytes).unwrap(), state.kind)
    }

    #[test]
    fn dual_state_round_trips() {
        let state = DualState {
            fingerprint: 7,
            lambda: 0.5,
            t_count: 3,
            dim: 2,
            entries: vec![
                DualEntry { owner: 0, s: vec2(1.0, -1.0), c: 0.9, hard: true },
                DualEntry { owner: 2, s: vec2(-0.25, 0.75), c: -1.5, hard: false },
            ],
            warm: vec![0.1, 0.0],
        };
        let bytes = state.encode().encode();
        let back = DualState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn dual_state_empty_working_set_round_trips() {
        let state = DualState {
            fingerprint: 7,
            lambda: 0.5,
            t_count: 1,
            dim: 4,
            entries: Vec::new(),
            warm: Vec::new(),
        };
        let bytes = state.encode().encode();
        let back = DualState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn centralized_state_round_trips_both_phases() {
        for phase in [Phase::Cccp, Phase::Refine { rounds_done: 2 }] {
            let state = CentralizedState {
                fingerprint: 99,
                phase,
                w0: vec2(0.1, 0.2),
                vectors: vec![vec2(1.0, -1.0)],
                history: vec![5.0, 4.0, 3.999],
                cccp_rounds: 3,
                cccp_converged: true,
                cutting_rounds: 17,
                constraints_added: 23,
            };
            let bytes = state.encode().encode();
            let back = CentralizedState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
            assert_eq!(back, state);
        }
    }

    #[test]
    fn every_server_shape_round_trips_in_both_phases() {
        for sample in [sample_star(), sample_async(), sample_root()] {
            for phase in [Phase::Cccp, Phase::Refine { rounds_done: 3 }] {
                let state = ConsensusState { phase, ..sample.clone() };
                assert_eq!(round_trip(&state).unwrap(), state);
            }
        }
    }

    #[test]
    fn cohort_size_disagreement_rejected() {
        let mut star = sample_star();
        star.xi_ts.push(0.0);
        let mut logged = sample_star();
        logged.log[0].us.pop();
        let mut async_missed = sample_async();
        async_missed.roster.missed.clear();
        let mut anchors = sample_star();
        anchors.anchors.pop();
        for state in [star, logged, async_missed, anchors] {
            assert!(matches!(round_trip(&state), Err(CkptError::Malformed { .. })), "{state:?}");
        }
    }

    #[test]
    fn out_of_order_shards_rejected() {
        let mut state = sample_root();
        state.shards.swap(0, 1);
        assert!(matches!(round_trip(&state), Err(CkptError::Malformed { .. })));
    }

    #[test]
    fn a_record_from_another_server_is_the_wrong_kind() {
        let file = sample_star().encode();
        for kind in [KIND_ASYNC, KIND_SHARDED] {
            assert_eq!(
                ConsensusState::decode(&file, kind).unwrap_err(),
                CkptError::WrongKind { found: KIND_DISTRIBUTED, expected: kind }
            );
        }
        assert_eq!(
            CentralizedState::decode(&file).unwrap_err(),
            CkptError::WrongKind { found: KIND_DISTRIBUTED, expected: KIND_CENTRALIZED }
        );
    }
}
