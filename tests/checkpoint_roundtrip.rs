//! Property-based tests of the checkpoint wire format.
//!
//! Two families of properties back the format's headline guarantees:
//!
//! * **Bit-exact round trips** — arbitrary state mirrors (including
//!   zero-user cohorts, empty working sets, and extreme-but-finite `f64`s
//!   like `-0.0`, subnormals, and `f64::MAX`) survive
//!   encode → bytes → decode with byte-identical re-encodings.
//! * **Corruption is always a typed error** — truncating a valid encoding
//!   at any point, or flipping any single bit anywhere in it, makes the
//!   decode chain return a [`CkptError`]; it never panics and never yields
//!   a silently different state.
//!
//! Structures are built from a proptest-drawn seed through a seeded
//! `StdRng` (the same idiom as `solver_properties.rs`), since the vendored
//! proptest subset composes scalar strategies only.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

use plos::ckpt::{
    BroadcastRecord, CentralizedState, CheckpointFile, CkptError, ConsensusState, DualEntry,
    DualState, ParticipationRecord, Phase, Roster, ShardState, KIND_ASYNC, KIND_DISTRIBUTED,
    KIND_SHARDED,
};
use plos::linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Finite `f64`s with the representational corner cases over-weighted:
/// signed zeros, subnormals, and the extremes of the exponent range. NaN
/// is excluded by the round-trip contract (solver state is NaN-free; the
/// format stores raw bit patterns either way).
fn finite_f64(rng: &mut StdRng) -> f64 {
    const CORNERS: [f64; 9] = [
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // smallest positive subnormal
        -5e-324,
        1e308,
        -1e308,
    ];
    if rng.gen_bool(0.4) {
        CORNERS[rng.gen_range(0..CORNERS.len())]
    } else {
        rng.gen_range(-1e12..1e12)
    }
}

fn rvec(rng: &mut StdRng, dim: usize) -> Vector {
    (0..dim).map(|_| finite_f64(rng)).collect()
}

fn rvecs(rng: &mut StdRng, count: usize, dim: usize) -> Vec<Vector> {
    (0..count).map(|_| rvec(rng, dim)).collect()
}

/// Cohort shape for a drawn seed: sizes 0 (degenerate) through 3.
fn shape(rng: &mut StdRng) -> (usize, usize) {
    (rng.gen_range(0..4), rng.gen_range(0..4))
}

fn dual_state(rng: &mut StdRng) -> DualState {
    let (t_count, dim) = shape(rng);
    let n_entries = rng.gen_range(0..5); // 0 = empty working set
    let entries: Vec<DualEntry> = (0..n_entries)
        .map(|_| DualEntry {
            owner: rng.gen_range(0..t_count.max(1)),
            s: rvec(rng, dim),
            c: finite_f64(rng),
            hard: rng.gen_bool(0.3),
        })
        .collect();
    let warm = (0..n_entries).map(|_| finite_f64(rng)).collect();
    DualState { fingerprint: rng.gen(), lambda: finite_f64(rng), t_count, dim, entries, warm }
}

fn centralized_state(rng: &mut StdRng) -> CentralizedState {
    let (users, dim) = shape(rng);
    CentralizedState {
        fingerprint: rng.gen(),
        phase: phase(rng),
        w0: rvec(rng, dim),
        vectors: rvecs(rng, users, dim),
        history: (0..rng.gen_range(0..4)).map(|_| finite_f64(rng)).collect(),
        cccp_rounds: rng.gen_range(0..16),
        cccp_converged: rng.gen_bool(0.5),
        cutting_rounds: rng.gen(),
        constraints_added: rng.gen(),
    }
}

fn phase(rng: &mut StdRng) -> Phase {
    if rng.gen_bool(0.5) {
        Phase::Cccp
    } else {
        Phase::Refine { rounds_done: rng.gen_range(0..8) }
    }
}

/// The kind bytes of the three ADMM servers sharing the consensus record.
const CONSENSUS_KINDS: [u8; 3] = [KIND_DISTRIBUTED, KIND_ASYNC, KIND_SHARDED];

/// The consensus record in the shape the server of `kind` writes, with
/// every cohort-sized group kept consistent (the decoder validates that
/// and would reject a mismatch): the flat star with anchors, broadcast log
/// and full roster; the async server with no anchors and no log; the tree
/// root with a shard table and no device slots or roster.
fn consensus_state(rng: &mut StdRng, kind: u8) -> ConsensusState {
    let (t_count, dim) = shape(rng);
    let header = ConsensusState {
        kind,
        fingerprint: rng.gen(),
        phase: phase(rng),
        round: rng.gen_range(0..64),
        cccp_round: rng.gen_range(0..8),
        iters_done: rng.gen_range(0..16),
        inner_done: rng.gen_bool(0.5),
        admm_iterations: rng.gen_range(0..64),
        cccp_rounds: rng.gen_range(0..8),
        converged: rng.gen_bool(0.5),
        w0: rvec(rng, dim),
        history: (0..rng.gen_range(0..4)).map(|_| finite_f64(rng)).collect(),
        residuals: (0..rng.gen_range(0..4))
            .map(|_| (rng.gen_range(0..64), finite_f64(rng), finite_f64(rng)))
            .collect(),
        ..ConsensusState::default()
    };
    if kind == KIND_SHARDED {
        let shards = (0..rng.gen_range(0..4))
            .map(|s| ShardState {
                shard: s,
                n: rng.gen_range(0..8),
                last_round: rng.gen_range(0..64),
                partial_digest: rng.gen(),
                participation: rng.gen_range(0..8),
            })
            .collect();
        return ConsensusState {
            shard_fingerprint: rng.gen(),
            term: rng.gen_range(0..4),
            shards,
            ..header
        };
    }
    let star = kind == KIND_DISTRIBUTED;
    let log = (0..if star { rng.gen_range(0..3) } else { 0 })
        .map(|_| BroadcastRecord {
            round: rng.gen_range(0..64),
            w0: rvec(rng, dim),
            us: rvecs(rng, t_count, dim),
        })
        .collect();
    let participation = (0..if star { rng.gen_range(0..4) } else { 0 })
        .map(|_| ParticipationRecord {
            round: rng.gen_range(0..64),
            replied: rng.gen_range(0..8),
            alive: rng.gen_range(0..8),
            retries: rng.gen_range(0..4),
        })
        .collect();
    ConsensusState {
        us: rvecs(rng, t_count, dim),
        w_ts: rvecs(rng, t_count, dim),
        v_ts: rvecs(rng, t_count, dim),
        xi_ts: (0..t_count).map(|_| finite_f64(rng)).collect(),
        anchors: if star { rvecs(rng, t_count, dim) } else { Vec::new() },
        log,
        roster: Roster {
            alive: (0..t_count).map(|_| rng.gen_bool(0.8)).collect(),
            missed: (0..t_count).map(|_| if star { rng.gen_range(0..4) } else { 0 }).collect(),
            evicted: (0..rng.gen_range(0..3)).map(|_| rng.gen_range(0..8)).collect(),
            participation,
            protocol_errors: rng.gen_range(0..4),
            late_discards: rng.gen_range(0..4),
            stale_discards: if star { 0 } else { rng.gen_range(0..4) },
            reassignments: if star { 0 } else { rng.gen_range(0..4) },
        },
        ..header
    }
}

/// One encoding of each mirror kind, used by the corruption properties so
/// every section layout in the format gets truncated and bit-flipped.
fn sample_encodings(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        dual_state(&mut rng).encode().encode(),
        centralized_state(&mut rng).encode().encode(),
        consensus_state(&mut rng, KIND_DISTRIBUTED).encode().encode(),
        consensus_state(&mut rng, KIND_ASYNC).encode().encode(),
        consensus_state(&mut rng, KIND_SHARDED).encode().encode(),
    ]
}

/// Runs the full decode chain — framing plus every typed decoder the
/// context section admits — and reports whether *any* path succeeded.
fn decode_any(bytes: &[u8]) -> Result<(), CkptError> {
    let file = CheckpointFile::decode(bytes)?;
    let mut last = CkptError::Malformed { detail: "no decoder accepted the file".into() };
    let consensus = CONSENSUS_KINDS.map(|kind| ConsensusState::decode(&file, kind).map(drop));
    for result in [DualState::decode(&file).map(drop), CentralizedState::decode(&file).map(drop)]
        .into_iter()
        .chain(consensus)
    {
        match result {
            Ok(()) => return Ok(()),
            Err(e) => last = e,
        }
    }
    Err(last)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dual_state_roundtrips_bit_exactly(seed in 0u64..1_000_000) {
        let state = dual_state(&mut StdRng::seed_from_u64(seed));
        let bytes = state.encode().encode();
        let back = DualState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
        prop_assert_eq!(&back, &state);
        prop_assert_eq!(back.encode().encode(), bytes);
    }

    #[test]
    fn centralized_state_roundtrips_bit_exactly(seed in 0u64..1_000_000) {
        let state = centralized_state(&mut StdRng::seed_from_u64(seed));
        let bytes = state.encode().encode();
        let back =
            CentralizedState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
        prop_assert_eq!(&back, &state);
        prop_assert_eq!(back.encode().encode(), bytes);
    }

    #[test]
    fn distributed_state_roundtrips_bit_exactly(seed in 0u64..1_000_000) {
        // Every server's shape of the one consensus record.
        let kind = CONSENSUS_KINDS[(seed % 3) as usize];
        let state = consensus_state(&mut StdRng::seed_from_u64(seed), kind);
        let bytes = state.encode().encode();
        let back = ConsensusState::decode(&CheckpointFile::decode(&bytes).unwrap(), kind).unwrap();
        // Re-encoding the decoded state must reproduce the exact bytes:
        // byte identity covers the -0.0 / NaN-payload cases PartialEq
        // would miss.
        prop_assert_eq!(&back, &state);
        prop_assert_eq!(back.encode().encode(), bytes);
    }

    #[test]
    fn truncation_is_always_a_typed_error(
        seed in 0u64..1000,
        which in 0usize..5,
        cut in 0.0..1.0f64,
    ) {
        let bytes = &sample_encodings(seed)[which];
        // Cut strictly inside the file: every prefix, from the empty file
        // to one byte short of complete, must be rejected.
        let len = ((cut * (bytes.len() as f64)) as usize).min(bytes.len() - 1);
        prop_assert!(decode_any(&bytes[..len]).is_err());
    }

    #[test]
    fn single_bit_flips_are_always_typed_errors(
        seed in 0u64..1000,
        which in 0usize..5,
        pos in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let mut bytes = sample_encodings(seed)[which].clone();
        let index = ((pos * (bytes.len() as f64)) as usize).min(bytes.len() - 1);
        bytes[index] ^= 1 << bit;
        prop_assert!(
            decode_any(&bytes).is_err(),
            "bit {} of byte {} flipped in kind {} yet decoded",
            bit, index, which
        );
    }
}

#[test]
fn every_truncation_point_of_every_kind_is_rejected() {
    // The proptest above samples cut points; this sweep is exhaustive so
    // the guarantee is unconditional for these representative files.
    for bytes in sample_encodings(42) {
        for len in 0..bytes.len() {
            assert!(
                decode_any(&bytes[..len]).is_err(),
                "truncation to {len} of {} bytes decoded successfully",
                bytes.len()
            );
        }
        // And the untouched file decodes, so the sweep tests what it claims.
        assert!(decode_any(&bytes).is_ok());
    }
}
