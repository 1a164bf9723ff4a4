//! The distributed-PLOS protocol messages.
//!
//! One round of Algorithm 2 is one scatter and one gather, and the device
//! link has exactly one frame for each: the server *scatters*
//! [`Message::Assign`] — the global hyperplane and the user's scaled dual
//! (`w0`, `u_t`, Eq. 23) plus the round's phase, CCCP round and cohort
//! size — and the user *gathers back* [`Message::Update`] — its local
//! solution (`w_t`, `v_t`, `ξ_t`, Eq. 22). Every piece of device control
//! state rides on the assignment, so a lost frame is recovered by the
//! round's ordinary retry. `Restore` and `Shutdown` are the only other
//! frames a device ever sees. The enum deliberately has **no variant that
//! could carry raw samples** — the privacy property the paper claims is
//! enforced by the protocol's type.

use crate::codec::{self, CodecError, WIRE_VERSION};
use bytes::{BufMut, Bytes, BytesMut};
use plos_linalg::{ExactSum, ExactVecSum, Vector};

/// A wire message of the distributed-PLOS protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server → user: run round `round` of `phase` (see `shard::PHASE_*`)
    /// against the global hyperplane `w0` and this user's scaled dual
    /// `u_t` (empty in refinement). The same frame goes root → regional
    /// aggregator with an empty `u_t`; the regional stamps each device's.
    Assign {
        /// Protocol round (ADMM iteration, async epoch or refinement
        /// round; 0 is the init round).
        round: u32,
        /// Protocol phase (see `shard::PHASE_*`).
        phase: u8,
        /// CCCP round the assignment belongs to: a device whose last
        /// solve was in an earlier CCCP round re-linearizes first
        /// (Algorithm 2, step 7).
        cccp_round: u32,
        /// Cohort size `T` the server announced when the round opened;
        /// the device rescales `κ = λ/T` (and the `Σ_k γ_kt ≤ T/2λ` dual
        /// cap) to it.
        t_count: u32,
        /// Global hyperplane `w0`.
        w0: Vector,
        /// Scaled dual `u_t` for the receiving user.
        u_t: Vector,
    },
    /// User → server: the reply to the assignment of `round` — the local
    /// subproblem solution of Eq. (22), computed against the `(w0, u_t)`
    /// of round `basis` (`basis == round` for a fresh solve, `basis <
    /// round` for a busy device's cached one). The server measures
    /// staleness as `round − basis`.
    Update {
        /// Assignment round this update answers.
        round: u32,
        /// Round of the consensus state the payload was computed against.
        basis: u32,
        /// Sender's user index `t`.
        user: u32,
        /// Personalized hyperplane `w_t`.
        w_t: Vector,
        /// Personal bias `v_t = w_t − w0` estimate.
        v_t: Vector,
        /// Slack value `ξ_t` (enters the objective, Eq. 23).
        xi_t: f64,
    },
    /// Server → user: a resumed server re-seeds this device's solver state
    /// from a checkpoint. Carries only the device's own CCCP anchor `w_t`
    /// — a quantity the device itself sent earlier — never another user's
    /// state and never raw samples, preserving the privacy property.
    Restore {
        /// Communication round of the restore handshake.
        round: u32,
        /// Cohort size at the checkpoint.
        t_count: u32,
        /// The device's hyperplane at the start of the interrupted CCCP
        /// round (its sign-linearization anchor).
        w_t: Vector,
    },
    /// Server → user: training finished, terminate.
    Shutdown,
    /// Regional aggregator → root: the shard's exactly-accumulated partial
    /// sums for one round. Partials are [`ExactVecSum`]s rather than
    /// folded `f64` vectors so the root's shard-ordered merge is
    /// bit-identical to the flat single-server fold at any shard count.
    PartialSum {
        /// Shard index of the sender.
        shard: u32,
        /// Aggregation round this partial answers.
        round: u32,
        /// Devices alive in the shard this round.
        n: u32,
        /// Devices that actually contributed to the sums (`m ≤ n`; differs
        /// from `n` only in the init round's qualification filter).
        m: u32,
        /// Devices that replied before the shard's quorum deadline.
        participation: u32,
        /// Σ over the shard of the phase's primary vector summand
        /// (`w_t − v_t + u_t` in ADMM, `w_init` in init, `w_t` in refine).
        sum_w: ExactVecSum,
        /// Re-broadcasts the shard's retry policy fired this round.
        retries: u32,
    },
    /// Root → regional aggregator: the folded global state for `round` is
    /// committed; distribute `w0` to your devices and report residuals.
    ShardCommit {
        /// Aggregation round being committed.
        round: u32,
        /// Protocol phase (see `shard::PHASE_*`).
        phase: u8,
        /// The committed global hyperplane `w0⁺`.
        w0: Vector,
    },
    /// Regional aggregator → root: exactly-accumulated residual/objective
    /// partials for a committed round. The meaning of `a`/`b`/`c` is
    /// phase-dependent (primal²/objective terms in ADMM, distance²/slack
    /// in refinement); all are merged in fixed shard order at the root.
    ShardResidual {
        /// Shard index of the sender.
        shard: u32,
        /// Aggregation round these residuals belong to.
        round: u32,
        /// First scalar partial (e.g. Σ‖w_t − w0⁺ − v_t‖²). Boxed so the
        /// rare, large residual frame does not inflate every [`Message`].
        a: Box<ExactSum>,
        /// Second scalar partial (e.g. Σ‖v_t‖²).
        b: Box<ExactSum>,
        /// Third scalar partial (e.g. Σξ_t).
        c: Box<ExactSum>,
    },
}

const TAG_ASSIGN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_RESTORE: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;
const TAG_PARTIAL_SUM: u8 = 5;
const TAG_SHARD_COMMIT: u8 = 6;
const TAG_SHARD_RESIDUAL: u8 = 7;

impl Message {
    /// Encodes the message to its wire representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u8(WIRE_VERSION);
        match self {
            Message::Assign { round, phase, cccp_round, t_count, w0, u_t } => {
                buf.put_u8(TAG_ASSIGN);
                buf.put_u32_le(*round);
                buf.put_u8(*phase);
                buf.put_u32_le(*cccp_round);
                buf.put_u32_le(*t_count);
                codec::put_vector(&mut buf, w0);
                codec::put_vector(&mut buf, u_t);
            }
            Message::Update { round, basis, user, w_t, v_t, xi_t } => {
                buf.put_u8(TAG_UPDATE);
                buf.put_u32_le(*round);
                buf.put_u32_le(*basis);
                buf.put_u32_le(*user);
                codec::put_vector(&mut buf, w_t);
                codec::put_vector(&mut buf, v_t);
                buf.put_f64_le(*xi_t);
            }
            Message::Restore { round, t_count, w_t } => {
                buf.put_u8(TAG_RESTORE);
                buf.put_u32_le(*round);
                buf.put_u32_le(*t_count);
                codec::put_vector(&mut buf, w_t);
            }
            Message::Shutdown => {
                buf.put_u8(TAG_SHUTDOWN);
            }
            Message::PartialSum { shard, round, n, m, participation, sum_w, retries } => {
                buf.put_u8(TAG_PARTIAL_SUM);
                buf.put_u32_le(*shard);
                buf.put_u32_le(*round);
                buf.put_u32_le(*n);
                buf.put_u32_le(*m);
                buf.put_u32_le(*participation);
                codec::put_exact_vec_sum(&mut buf, sum_w);
                buf.put_u32_le(*retries);
            }
            Message::ShardCommit { round, phase, w0 } => {
                buf.put_u8(TAG_SHARD_COMMIT);
                buf.put_u32_le(*round);
                buf.put_u8(*phase);
                codec::put_vector(&mut buf, w0);
            }
            Message::ShardResidual { shard, round, a, b, c } => {
                buf.put_u8(TAG_SHARD_RESIDUAL);
                buf.put_u32_le(*shard);
                buf.put_u32_le(*round);
                codec::put_exact_sum(&mut buf, a);
                codec::put_exact_sum(&mut buf, b);
                codec::put_exact_sum(&mut buf, c);
            }
        }
        buf.freeze()
    }

    /// Decodes a message from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on version mismatch, unknown tag, or
    /// truncated payload.
    pub fn decode(mut bytes: Bytes) -> Result<Message, CodecError> {
        let version = codec::get_u8(&mut bytes)?;
        if version != WIRE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let tag = codec::get_u8(&mut bytes)?;
        match tag {
            TAG_ASSIGN => Ok(Message::Assign {
                round: codec::get_u32(&mut bytes)?,
                phase: codec::get_u8(&mut bytes)?,
                cccp_round: codec::get_u32(&mut bytes)?,
                t_count: codec::get_u32(&mut bytes)?,
                w0: codec::get_vector(&mut bytes)?,
                u_t: codec::get_vector(&mut bytes)?,
            }),
            TAG_UPDATE => Ok(Message::Update {
                round: codec::get_u32(&mut bytes)?,
                basis: codec::get_u32(&mut bytes)?,
                user: codec::get_u32(&mut bytes)?,
                w_t: codec::get_vector(&mut bytes)?,
                v_t: codec::get_vector(&mut bytes)?,
                xi_t: codec::get_f64(&mut bytes)?,
            }),
            TAG_RESTORE => Ok(Message::Restore {
                round: codec::get_u32(&mut bytes)?,
                t_count: codec::get_u32(&mut bytes)?,
                w_t: codec::get_vector(&mut bytes)?,
            }),
            TAG_SHUTDOWN => Ok(Message::Shutdown),
            TAG_PARTIAL_SUM => Ok(Message::PartialSum {
                shard: codec::get_u32(&mut bytes)?,
                round: codec::get_u32(&mut bytes)?,
                n: codec::get_u32(&mut bytes)?,
                m: codec::get_u32(&mut bytes)?,
                participation: codec::get_u32(&mut bytes)?,
                sum_w: codec::get_exact_vec_sum(&mut bytes)?,
                retries: codec::get_u32(&mut bytes)?,
            }),
            TAG_SHARD_COMMIT => Ok(Message::ShardCommit {
                round: codec::get_u32(&mut bytes)?,
                phase: codec::get_u8(&mut bytes)?,
                w0: codec::get_vector(&mut bytes)?,
            }),
            TAG_SHARD_RESIDUAL => Ok(Message::ShardResidual {
                shard: codec::get_u32(&mut bytes)?,
                round: codec::get_u32(&mut bytes)?,
                a: Box::new(codec::get_exact_sum(&mut bytes)?),
                b: Box::new(codec::get_exact_sum(&mut bytes)?),
                c: Box::new(codec::get_exact_sum(&mut bytes)?),
            }),
            other => Err(CodecError::UnknownTag(other)),
        }
    }

    /// Exact encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        2 + match self {
            Message::Assign { w0, u_t, .. } => {
                4 + 1 + 4 + 4 + codec::vector_wire_len(w0) + codec::vector_wire_len(u_t)
            }
            Message::Update { w_t, v_t, .. } => {
                4 + 4 + 4 + codec::vector_wire_len(w_t) + codec::vector_wire_len(v_t) + 8
            }
            Message::Restore { w_t, .. } => 4 + 4 + codec::vector_wire_len(w_t),
            Message::Shutdown => 0,
            Message::PartialSum { sum_w, .. } => 6 * 4 + codec::exact_vec_sum_wire_len(sum_w),
            Message::ShardCommit { w0, .. } => 4 + 1 + codec::vector_wire_len(w0),
            Message::ShardResidual { a, b, c, .. } => {
                4 + 4
                    + codec::exact_sum_wire_len(a)
                    + codec::exact_sum_wire_len(b)
                    + codec::exact_sum_wire_len(c)
            }
        }
    }
}

#[cfg(test)]
impl Message {
    /// A small assignment tagged `round`: the payload of the transport,
    /// fault and runner tests.
    pub(crate) fn ping(round: u32) -> Message {
        Message::Assign {
            round,
            phase: crate::shard::PHASE_ADMM,
            cccp_round: 0,
            t_count: 1,
            w0: Vector::zeros(0),
            u_t: Vector::zeros(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let encoded = m.encode();
        assert_eq!(encoded.len(), m.wire_len(), "wire_len must match encoding");
        let decoded = Message::decode(encoded).unwrap();
        assert_eq!(decoded, m);
    }

    fn assign(round: u32, phase: u8, w0: Vec<f64>, u_t: Vec<f64>) -> Message {
        Message::Assign {
            round,
            phase,
            cccp_round: 2,
            t_count: 11,
            w0: Vector::from(w0),
            u_t: Vector::from(u_t),
        }
    }

    fn update(round: u32, basis: u32, w_t: Vec<f64>, v_t: Vec<f64>, xi_t: f64) -> Message {
        Message::Update {
            round,
            basis,
            user: 42,
            w_t: Vector::from(w_t),
            v_t: Vector::from(v_t),
            xi_t,
        }
    }

    #[test]
    fn assign_round_trip() {
        round_trip(assign(7, 1, vec![1.0, -2.0, 3.5], vec![0.25, 0.0, -9.0]));
        round_trip(assign(0, 0, vec![0.0, 0.0], vec![0.0, 0.0]));
        // Refinement assignments carry no dual.
        round_trip(assign(3, 2, vec![1.0, -0.5], Vec::new()));
    }

    #[test]
    fn update_round_trip() {
        round_trip(update(3, 3, vec![0.1, 0.2], vec![-0.1, 0.3], 1.75));
        round_trip(update(17, 14, vec![0.1, 0.2], vec![-0.1, 0.3], -1.75));
    }

    #[test]
    fn control_messages_round_trip() {
        round_trip(Message::Shutdown);
    }

    #[test]
    fn restore_round_trip() {
        round_trip(Message::Restore {
            round: 9,
            t_count: 5,
            w_t: Vector::from(vec![0.5, -0.25, 8.0]),
        });
        round_trip(Message::Restore { round: 0, t_count: 1, w_t: Vector::zeros(0) });
    }

    #[test]
    fn restore_truncation_rejected() {
        let m = Message::Restore { round: 2, t_count: 4, w_t: Vector::from(vec![1.0, 2.0]) };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn empty_vectors_round_trip() {
        round_trip(assign(0, 0, Vec::new(), Vec::new()));
        round_trip(update(0, 0, Vec::new(), Vec::new(), 0.0));
    }

    #[test]
    fn update_truncation_rejected() {
        let m = update(5, 4, vec![1.0, 2.0], vec![3.0], 0.5);
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut raw = Message::Shutdown.encode().to_vec();
        raw[0] = 99;
        assert_eq!(Message::decode(Bytes::from(raw)).unwrap_err(), CodecError::BadVersion(99));
    }

    #[test]
    fn version_one_frame_is_rejected() {
        // A frame from a version-1 peer (its `Broadcast` of round 1 over
        // two empty vectors) is refused by version, not misread as an
        // `Assign` with a shifted layout.
        let mut raw = vec![1u8, 1];
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&[0; 8]);
        assert_eq!(WIRE_VERSION, 2);
        assert_eq!(Message::decode(Bytes::from(raw)).unwrap_err(), CodecError::BadVersion(1));
    }

    #[test]
    fn unknown_tag_rejected() {
        let raw = vec![WIRE_VERSION, 0xAB];
        assert_eq!(Message::decode(Bytes::from(raw)).unwrap_err(), CodecError::UnknownTag(0xAB));
    }

    #[test]
    fn truncation_rejected() {
        let m = assign(1, 1, vec![1.0, 2.0, 3.0], vec![0.0; 3]);
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    fn sample_vec_sum(dim: usize) -> ExactVecSum {
        let mut s = ExactVecSum::zeros(dim);
        s.add(&Vector::from((0..dim).map(|i| i as f64 + 0.5).collect::<Vec<_>>()));
        s.add(&Vector::from((0..dim).map(|i| -(i as f64) * 1e15).collect::<Vec<_>>()));
        s
    }

    #[test]
    fn shard_messages_round_trip() {
        // The root → regional request is an `Assign` with an empty dual.
        round_trip(assign(4, 1, vec![0.5, -1.25], Vec::new()));
        round_trip(Message::ShardCommit {
            round: 4,
            phase: 2,
            w0: Vector::from(vec![0.5, -1.25, 3.0]),
        });
        let mut a = ExactSum::new();
        a.add(1e16);
        a.add(1.0);
        a.add(-1e16);
        let mut b = ExactSum::new();
        b.add(-0.0);
        let c = ExactSum::new();
        round_trip(Message::ShardResidual {
            shard: 3,
            round: 4,
            a: Box::new(a),
            b: Box::new(b),
            c: Box::new(c),
        });
        round_trip(Message::PartialSum {
            shard: 1,
            round: 9,
            n: 12,
            m: 11,
            participation: 10,
            sum_w: sample_vec_sum(3),
            retries: 7,
        });
        // A zero-dimension sum round-trips too.
        round_trip(Message::PartialSum {
            shard: 0,
            round: 0,
            n: 0,
            m: 0,
            participation: 0,
            sum_w: ExactVecSum::zeros(0),
            retries: 0,
        });
    }

    #[test]
    fn partial_sum_survives_round_trip_bit_exactly() {
        // The whole point of shipping limbs instead of folded f64s: the
        // decoded accumulator renders the same bits as the original.
        let sum = sample_vec_sum(5);
        let m = Message::PartialSum {
            shard: 2,
            round: 1,
            n: 5,
            m: 5,
            participation: 5,
            sum_w: sum.clone(),
            retries: u32::MAX,
        };
        let decoded = Message::decode(m.encode()).unwrap();
        let Message::PartialSum { sum_w, .. } = decoded else {
            panic!("wrong variant");
        };
        for (x, y) in sum_w.value().iter().zip(sum.value().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn shard_message_truncation_rejected() {
        let m = Message::PartialSum {
            shard: 1,
            round: 2,
            n: 3,
            m: 3,
            participation: 3,
            sum_w: sample_vec_sum(2),
            retries: 3,
        };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
        let mut a = ExactSum::new();
        a.add(7.0);
        let m = Message::ShardResidual {
            shard: 0,
            round: 1,
            a: Box::new(a),
            b: Box::new(ExactSum::new()),
            c: Box::new(ExactSum::new()),
        };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn message_size_scales_with_dimension_only() {
        // Fig. 13's claim: per-user message size is independent of the
        // number of users — it depends only on the model dimension.
        let size = |d: usize| assign(0, 1, vec![0.0; d], vec![0.0; d]).wire_len();
        assert_eq!(size(10), 2 + 13 + 2 * (4 + 80));
        assert!(size(20) > size(10));
    }
}
