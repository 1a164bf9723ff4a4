// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Distributed-runtime substrate for the PLOS reproduction.
//!
//! The paper's Sec. VI-E runs distributed PLOS on a real testbed (Nexus 5
//! phones + a 3.4 GHz server). This crate replaces the physical network with
//! an in-process star topology that preserves everything the evaluation
//! measures:
//!
//! * [`codec`] — a byte-exact, length-prefixed binary wire format for model
//!   parameters, so message *sizes* are real (Fig. 13 reports KB/user);
//! * [`message`] — the PLOS protocol messages: the server's per-round
//!   broadcast of `(w0, u_t)` and the clients' `(w_t, v_t, ξ_t)` updates.
//!   Raw sensory data has no message type at all — the type system enforces
//!   the paper's privacy claim that only model parameters travel;
//! * [`transport`] — mpsc duplex endpoints with per-endpoint
//!   byte/message counters;
//! * [`node`] — star-topology construction and a scoped-thread client
//!   runner;
//! * [`mux`] — virtual-device multiplexing: resumable device state
//!   machines driven K-per-worker over a bounded pool, decoupling fleet
//!   size from OS thread count;
//! * [`shard`] — the two-level aggregation tree: a device→shard map with
//!   a checkpoint-bindable fingerprint and a scoped-thread runner wiring
//!   regional aggregators to a root over fresh duplex links;
//! * [`fault`] — deterministic, seed-driven fault injection
//!   (drop/delay/duplicate/reorder/corrupt/dead-link) wrapped around the
//!   transport, so the fault-tolerant server can be exercised under
//!   reproducible chaos;
//! * [`metrics`] — traffic snapshots and an energy model (J/byte + J/flop);
//! * [`cost`] — device compute profiles (server vs smartphone) used to
//!   rescale measured wall-clock into device-equivalent running time
//!   (Fig. 12).

pub mod codec;
pub mod cost;
pub mod fault;
pub mod message;
pub mod metrics;
pub mod mux;
pub mod node;
pub mod shard;
pub mod transport;

pub use codec::CodecError;
pub use cost::DeviceProfile;
pub use fault::{
    DeadLink, DevicePanic, FaultPlan, FaultStats, FaultyEndpoint, LinkFaults, Straggler,
};
pub use message::Message;
pub use metrics::{EnergyModel, TrafficStats};
pub use mux::{drive_blocking, DeviceMachine, DeviceRuntime, DeviceStep, MuxNetwork};
pub use node::{try_star, ClientExit, StarNetwork, TopologyError};
pub use shard::{run_tree, ShardMap, ShardMapError};
pub use transport::{Endpoint, TransportError};
