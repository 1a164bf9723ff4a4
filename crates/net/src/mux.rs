//! Virtual-device multiplexing: K devices per worker thread.
//!
//! The thread-per-device runner in [`crate::node`] mirrors the paper's
//! deployment literally — one OS thread per phone — which caps the fleet
//! around the host's thread budget. [`MuxNetwork`] breaks that wall by
//! executing the device side of the protocol as **resumable state
//! machines** ([`DeviceMachine`]) multiplexed onto a bounded set of
//! workers: each worker owns a contiguous, index-ordered slice of virtual
//! devices and sweeps them round-robin, draining each endpoint with the
//! non-blocking [`Endpoint::try_recv`] and stepping the machine once per
//! message.
//!
//! **Ordering guarantee.** Output is bit-identical to the thread-per-device
//! runner at any pool size and any K, because
//!
//! 1. each device's message stream is a per-link FIFO (mpsc), and a
//!    machine's output depends only on its own stream and its own state;
//! 2. the server folds replies by tag-matched slot assignment, so reply
//!    *arrival order* — the only thing scheduling changes — never reaches
//!    the model;
//! 3. the sweep order is a fixed function of device indices (ascending
//!    within each contiguous chunk), independent of seeds, timing, and the
//!    worker count.
//!
//! **Panic containment.** A machine that panics is retired as
//! [`ClientExit::Panicked`]; its endpoint drops, the server sees a dead
//! link, and the fleet's strike/eviction machinery handles the loss — one
//! poisoned device can no longer abort the run.

use crate::message::Message;
use crate::metrics::TrafficStats;
use crate::node::{panic_text, ClientExit, StarNetwork};
use crate::transport::{Endpoint, TransportError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// How long an idle device loop parks between polls. The threaded runner
/// wakes every `CLIENT_IDLE`; the mux worker sleeps `IDLE_BACKOFF` only
/// when a whole sweep made no progress, so latency stays sub-millisecond
/// while idle CPU stays bounded.
const CLIENT_IDLE: Duration = Duration::from_millis(50);
const IDLE_BACKOFF: Duration = Duration::from_micros(500);

/// What a device state machine wants the scheduler to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceStep {
    /// Wait for the next server message.
    NeedRecv,
    /// Send this reply to the server, then wait for the next message.
    Send(Message),
    /// The protocol is over; retire the device.
    Done,
}

/// A resumable, poll-driven device: the client side of the PLOS protocol
/// with the blocking receive loop factored out, so the identical logic can
/// run on a dedicated thread ([`drive_blocking`]) or interleaved with K−1
/// siblings on a mux worker.
pub trait DeviceMachine {
    /// Final per-device output (traffic stats, compute time, …).
    type Output;

    /// Consumes one server message and says what to do next. Undecodable
    /// frames and idle timeouts never reach the machine.
    fn on_message(&mut self, message: Message) -> DeviceStep;

    /// Retires the device, folding in its endpoint's final traffic
    /// counters.
    fn finish(self, stats: TrafficStats) -> Self::Output;
}

/// How a trainer executes its device fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceRuntime {
    /// One OS thread per device — the paper's literal deployment, bounded
    /// by the host's thread budget.
    #[default]
    Threaded,
    /// Virtual devices multiplexed onto at most `Pool::current().threads()`
    /// workers, each driving up to `devices_per_worker` devices.
    Multiplexed {
        /// K: virtual devices per worker (0 is treated as 1).
        devices_per_worker: usize,
    },
}

/// Drives one machine to completion on the calling thread with blocking
/// receives — the thread-per-device loop body, shared so both runtimes
/// execute the same protocol logic instruction for instruction.
pub fn drive_blocking<M: DeviceMachine>(machine: M, endpoint: Endpoint) -> M::Output {
    let mut machine = machine;
    loop {
        match endpoint.recv_timeout(CLIENT_IDLE) {
            Ok(message) => match machine.on_message(message) {
                DeviceStep::NeedRecv => {}
                DeviceStep::Send(reply) => {
                    if endpoint.send(&reply).is_err() {
                        // Server gone mid-reply: retire with what we have.
                        break;
                    }
                }
                DeviceStep::Done => break,
            },
            // Idle ticks and undecodable frames: keep listening.
            Err(TransportError::Timeout | TransportError::Codec(_)) => {}
            Err(TransportError::Disconnected) => break,
        }
    }
    let stats = endpoint.stats();
    machine.finish(stats)
}

/// Executes a star's client side as virtual devices multiplexed over a
/// bounded worker set while the caller plays the server.
#[derive(Debug)]
pub struct MuxNetwork {
    net: StarNetwork,
    devices_per_worker: usize,
}

/// One virtual device slot on a worker: alive (endpoint + machine) or
/// already retired with its exit.
struct VirtualDevice<M: DeviceMachine> {
    t: usize,
    live: Option<(Endpoint, M)>,
    exit: Option<ClientExit<M::Output>>,
}

/// Why a device left the sweep.
enum Retire {
    Clean,
    Panicked(String),
}

impl MuxNetwork {
    /// Wraps a star for multiplexed execution with up to
    /// `devices_per_worker` virtual devices per worker (0 becomes 1).
    pub fn new(net: StarNetwork, devices_per_worker: usize) -> MuxNetwork {
        MuxNetwork { net, devices_per_worker: devices_per_worker.max(1) }
    }

    /// Number of worker threads this network will spawn: enough chunks of K
    /// devices to cover the fleet, capped by the current plos-exec pool
    /// width — never by the fleet size.
    pub fn worker_count(&self) -> usize {
        let t_count = self.net.num_clients();
        let pool = plos_exec::Pool::current().threads().max(1);
        t_count.div_ceil(self.devices_per_worker).clamp(1, pool)
    }

    /// Runs `server_fn(&server_endpoints)` on the calling thread while the
    /// workers drive one machine per device, created by `make_machine(t)`.
    /// Returns the server output and every device's [`ClientExit`], indexed
    /// by user, exactly like [`StarNetwork::run_clients`].
    pub fn run<S, SR, M, F>(self, server_fn: S, make_machine: F) -> (SR, Vec<ClientExit<M::Output>>)
    where
        S: FnOnce(&mut Vec<Endpoint>) -> SR,
        M: DeviceMachine,
        F: Fn(usize) -> M + Sync,
        M::Output: Send,
    {
        let workers = self.worker_count();
        let MuxNetwork { net, devices_per_worker: _ } = self;
        let StarNetwork { mut server, clients } = net;
        let t_count = clients.len();
        let chunk = t_count.div_ceil(workers.max(1)).max(1);
        let make_machine = &make_machine;
        let mut rest: Vec<(usize, Endpoint)> = clients.into_iter().enumerate().collect();
        // plos-lint: allow(R2): the bounded mux workers are this crate's replacement for thread-per-device; pool width caps the spawn count
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            while !rest.is_empty() {
                let tail = rest.split_off(chunk.min(rest.len()));
                let mine = std::mem::replace(&mut rest, tail);
                let ids: Vec<usize> = mine.iter().map(|(t, _)| *t).collect();
                handles.push((ids, scope.spawn(move || run_worker(mine, make_machine))));
            }
            let server_result = server_fn(&mut server);
            // Drop the server endpoints so lingering devices observe
            // Disconnected and retire, then join every worker (capturing
            // worker-level panics as per-device exits).
            drop(server);
            let mut exits: Vec<Option<ClientExit<M::Output>>> = Vec::new();
            exits.resize_with(t_count, || None);
            for (ids, handle) in handles {
                match handle.join() {
                    Ok(outputs) => {
                        for (t, exit) in outputs {
                            if let Some(slot) = exits.get_mut(t) {
                                *slot = Some(exit);
                            }
                        }
                    }
                    Err(payload) => {
                        let msg = panic_text(payload.as_ref());
                        for t in ids {
                            if let Some(slot) = exits.get_mut(t) {
                                *slot = Some(ClientExit::Panicked(msg.clone()));
                            }
                        }
                    }
                }
            }
            let exits: Vec<ClientExit<M::Output>> = exits
                .into_iter()
                .map(|slot| match slot {
                    Some(exit) => exit,
                    None => ClientExit::Panicked("device retired without an exit".to_string()),
                })
                .collect();
            (server_result, exits)
        })
    }
}

/// One worker: sweeps its devices in ascending index order, draining each
/// endpoint and stepping its machine, until every device has retired.
fn run_worker<M, F>(
    devices: Vec<(usize, Endpoint)>,
    make_machine: &F,
) -> Vec<(usize, ClientExit<M::Output>)>
where
    M: DeviceMachine,
    F: Fn(usize) -> M + Sync,
{
    let mut devs: Vec<VirtualDevice<M>> = devices
        .into_iter()
        .map(|(t, endpoint)| {
            // plos-lint: allow(U2): a panicking machine constructor must poison one device slot, not the worker and its K-1 siblings
            match catch_unwind(AssertUnwindSafe(|| make_machine(t))) {
                Ok(machine) => VirtualDevice { t, live: Some((endpoint, machine)), exit: None },
                Err(payload) => VirtualDevice {
                    t,
                    live: None,
                    exit: Some(ClientExit::Panicked(panic_text(payload.as_ref()))),
                },
            }
        })
        .collect();
    loop {
        let mut progressed = false;
        let mut all_retired = true;
        for dev in devs.iter_mut() {
            let Some((endpoint, machine)) = dev.live.as_mut() else { continue };
            all_retired = false;
            let mut retire: Option<Retire> = None;
            // Drain everything already queued for this device before moving
            // to the next: per-device FIFO order is preserved, and a device
            // never blocks its siblings.
            loop {
                match endpoint.try_recv() {
                    Ok(Some(message)) => {
                        progressed = true;
                        // plos-lint: allow(U2): a panic inside one virtual device's protocol step retires that device; the sweep and the server keep running
                        let step = catch_unwind(AssertUnwindSafe(|| machine.on_message(message)));
                        match step {
                            Ok(DeviceStep::NeedRecv) => {}
                            Ok(DeviceStep::Send(reply)) => {
                                if endpoint.send(&reply).is_err() {
                                    retire = Some(Retire::Clean);
                                    break;
                                }
                            }
                            Ok(DeviceStep::Done) => {
                                retire = Some(Retire::Clean);
                                break;
                            }
                            Err(payload) => {
                                retire = Some(Retire::Panicked(panic_text(payload.as_ref())));
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    // Undecodable frame: already counted by the transport;
                    // keep draining.
                    Err(TransportError::Codec(_)) => progressed = true,
                    Err(_) => {
                        retire = Some(Retire::Clean);
                        break;
                    }
                }
            }
            if let Some(reason) = retire {
                if let Some((endpoint, machine)) = dev.live.take() {
                    dev.exit = Some(match reason {
                        Retire::Clean => ClientExit::Finished(machine.finish(endpoint.stats())),
                        // Dropping the endpoint here is the containment: the
                        // server sees a dead link and evicts the device.
                        Retire::Panicked(msg) => ClientExit::Panicked(msg),
                    });
                }
            }
        }
        if all_retired {
            break;
        }
        if !progressed {
            std::thread::sleep(IDLE_BACKOFF);
        }
    }
    devs.into_iter()
        .map(|dev| match dev.exit {
            Some(exit) => (dev.t, exit),
            None => (dev.t, ClientExit::Panicked("device retired without an exit".to_string())),
        })
        .collect()
}

impl StarNetwork {
    /// Runs the device fleet under the chosen runtime — thread-per-device
    /// or K-way multiplexed — from one shared protocol implementation, so
    /// the two runners cannot drift apart.
    pub fn run_devices<S, SR, M, F>(
        self,
        runtime: DeviceRuntime,
        server_fn: S,
        make_machine: F,
    ) -> (SR, Vec<ClientExit<M::Output>>)
    where
        S: FnOnce(&mut Vec<Endpoint>) -> SR,
        M: DeviceMachine,
        F: Fn(usize) -> M + Sync,
        M::Output: Send,
    {
        match runtime {
            DeviceRuntime::Threaded => {
                self.run_clients(server_fn, |t, endpoint| drive_blocking(make_machine(t), endpoint))
            }
            DeviceRuntime::Multiplexed { devices_per_worker } => {
                MuxNetwork::new(self, devices_per_worker).run(server_fn, make_machine)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::try_star;

    /// Echoes `n` assignment rounds, then reports how many it saw.
    struct EchoMachine {
        rounds: u32,
        seen: u32,
    }

    impl DeviceMachine for EchoMachine {
        type Output = (u32, TrafficStats);

        fn on_message(&mut self, message: Message) -> DeviceStep {
            match message {
                Message::Assign { round, .. } => {
                    self.seen += 1;
                    if self.seen >= self.rounds {
                        return DeviceStep::Done;
                    }
                    DeviceStep::Send(Message::ping(round))
                }
                Message::Shutdown => DeviceStep::Done,
                _ => DeviceStep::NeedRecv,
            }
        }

        fn finish(self, stats: TrafficStats) -> Self::Output {
            (self.seen, stats)
        }
    }

    fn echo_server(server_ends: &[Endpoint], rounds: u32) -> u32 {
        let mut echoes = 0;
        for round in 0..rounds {
            for end in server_ends {
                end.send(&Message::ping(round)).unwrap();
            }
            if round + 1 < rounds {
                for end in server_ends {
                    let _ = end.recv().unwrap();
                    echoes += 1;
                }
            }
        }
        echoes
    }

    #[test]
    fn mux_runs_many_devices_over_few_workers() {
        let devices = 23;
        let rounds = 3;
        let net = try_star(devices).unwrap();
        let mux = MuxNetwork::new(net, 8);
        assert!(mux.worker_count() <= plos_exec::Pool::current().threads().max(1));
        let (echoes, exits) = mux.run(
            |server_ends| echo_server(server_ends, rounds),
            |_t| EchoMachine { rounds, seen: 0 },
        );
        assert_eq!(echoes as usize, devices * (rounds as usize - 1));
        assert_eq!(exits.len(), devices);
        for exit in exits {
            let (seen, stats) = exit.finished().unwrap();
            assert_eq!(seen, rounds);
            assert!(stats.messages_received >= u64::from(rounds));
        }
    }

    #[test]
    fn threaded_and_mux_runtimes_agree() {
        let run = |runtime: DeviceRuntime| {
            let net = try_star(6).unwrap();
            let (_, exits) = net.run_devices(
                runtime,
                |server_ends| echo_server(server_ends, 4),
                |_t| EchoMachine { rounds: 4, seen: 0 },
            );
            exits.into_iter().map(|e| e.finished().unwrap().0).collect::<Vec<_>>()
        };
        assert_eq!(
            run(DeviceRuntime::Threaded),
            run(DeviceRuntime::Multiplexed { devices_per_worker: 2 })
        );
    }

    #[test]
    fn panicking_machine_poisons_one_device_only() {
        struct Poison {
            t: usize,
        }
        impl DeviceMachine for Poison {
            type Output = usize;
            fn on_message(&mut self, _message: Message) -> DeviceStep {
                if self.t == 2 {
                    panic!("virtual device {} poisoned", self.t);
                }
                DeviceStep::Done
            }
            fn finish(self, _stats: TrafficStats) -> Self::Output {
                self.t
            }
        }
        let net = try_star(5).unwrap();
        let mux = MuxNetwork::new(net, 5);
        let (_, exits) = mux.run(
            |server_ends| {
                for end in server_ends {
                    let _ = end.send(&Message::Shutdown);
                }
            },
            |t| Poison { t },
        );
        assert_eq!(exits.len(), 5);
        for (t, exit) in exits.into_iter().enumerate() {
            if t == 2 {
                assert!(exit.panic_message().unwrap().contains("poisoned"));
            } else {
                assert_eq!(exit, ClientExit::Finished(t));
            }
        }
    }

    #[test]
    fn zero_devices_per_worker_is_clamped() {
        let net = try_star(3).unwrap();
        let mux = MuxNetwork::new(net, 0);
        assert!(mux.worker_count() >= 1);
    }
}
