//! Star-topology construction and client-thread execution.
//!
//! Distributed PLOS has one server and `T` user devices that communicate
//! only with the server (Fig. 1). [`try_star`] builds the `T` counted duplex
//! links; [`StarNetwork::run_clients`] runs one closure per client on its
//! own scoped thread while the caller plays the server on the current
//! thread — mirroring the paper's deployment where phones compute in
//! parallel. A panicking device is reported as [`ClientExit::Panicked`]
//! instead of being re-raised, so the server's strike/eviction machinery —
//! not an aborted process — decides what a poisoned device costs the fleet.
//! For fleets larger than the thread budget, [`crate::mux::MuxNetwork`]
//! multiplexes many virtual devices onto a bounded worker set.

use crate::transport::Endpoint;
use std::fmt;

/// The two sides of a star topology: `server[t]` is connected to
/// `clients[t]`.
#[derive(Debug)]
pub struct StarNetwork {
    /// Server-side endpoints, indexed by user.
    pub server: Vec<Endpoint>,
    /// Client-side endpoints, indexed by user.
    pub clients: Vec<Endpoint>,
}

/// Typed star-construction failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A star topology needs at least one client link.
    EmptyStar,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyStar => write!(f, "a star needs at least one client"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// How one device (OS thread or virtual device) left the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientExit<T> {
    /// The device ran its protocol to completion and produced its output.
    Finished(T),
    /// The device panicked; the payload is rendered as text so the trainer
    /// can record a per-device protocol error instead of aborting.
    Panicked(String),
}

impl<T> ClientExit<T> {
    /// The output of a finished device, `None` for a panicked one.
    pub fn finished(self) -> Option<T> {
        match self {
            ClientExit::Finished(out) => Some(out),
            ClientExit::Panicked(_) => None,
        }
    }

    /// The panic message of a crashed device, `None` for a finished one.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            ClientExit::Finished(_) => None,
            ClientExit::Panicked(msg) => Some(msg.as_str()),
        }
    }
}

/// Renders a panic payload as text for per-device error reporting.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Builds a star with `num_clients` links.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyStar`] when `num_clients == 0`.
pub fn try_star(num_clients: usize) -> Result<StarNetwork, TopologyError> {
    if num_clients == 0 {
        return Err(TopologyError::EmptyStar);
    }
    let mut server = Vec::with_capacity(num_clients);
    let mut clients = Vec::with_capacity(num_clients);
    for _ in 0..num_clients {
        let (s, c) = Endpoint::pair();
        server.push(s);
        clients.push(c);
    }
    Ok(StarNetwork { server, clients })
}

impl StarNetwork {
    /// Number of client links.
    pub fn num_clients(&self) -> usize {
        self.server.len()
    }

    /// Runs `client_fn(t, endpoint)` for every client on its own
    /// `std::thread::scope` thread while executing
    /// `server_fn(&mut server_endpoints)` on the calling thread. The server
    /// closure may move endpoints out of the vector (e.g. to hand whole
    /// shards to regional aggregator threads, see `crate::shard`); whatever
    /// remains is dropped when it returns. Returns the
    /// server closure's output together with every client's [`ClientExit`]
    /// (indexed by user). A panicking client is captured as
    /// [`ClientExit::Panicked`] rather than re-raised: its endpoint drops,
    /// the server observes the dead link, and the fleet's strike/eviction
    /// path decides the outcome.
    ///
    /// Consumes the network: endpoints move into the closures.
    pub fn run_clients<S, C, SR, CR>(self, server_fn: S, client_fn: C) -> (SR, Vec<ClientExit<CR>>)
    where
        S: FnOnce(&mut Vec<Endpoint>) -> SR,
        C: Fn(usize, Endpoint) -> CR + Sync,
        CR: Send,
    {
        let StarNetwork { mut server, clients } = self;
        let client_fn = &client_fn;
        // plos-lint: allow(R2): one scoped thread per device is this runner's documented contract; MuxNetwork is the bounded alternative
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(t, endpoint)| scope.spawn(move || client_fn(t, endpoint)))
                .collect();
            let server_result = server_fn(&mut server);
            // Drop the server endpoints so stray clients see Disconnected
            // rather than hanging, then join, capturing panics per device
            // (every handle is joined, so the scope itself never re-raises).
            drop(server);
            let client_results = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(out) => ClientExit::Finished(out),
                    Err(payload) => ClientExit::Panicked(panic_text(payload.as_ref())),
                })
                .collect();
            (server_result, client_results)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    #[test]
    fn star_has_matching_sides() {
        let net = try_star(5).unwrap();
        assert_eq!(net.num_clients(), 5);
        assert_eq!(net.server.len(), 5);
        assert_eq!(net.clients.len(), 5);
    }

    #[test]
    fn echo_round_over_all_links() {
        let net = try_star(4).unwrap();
        let (server_out, client_out) = net.run_clients(
            |server_ends| {
                // Send each client its index; collect the echoes.
                for (t, end) in server_ends.iter().enumerate() {
                    end.send(&Message::ping(t as u32)).unwrap();
                }
                server_ends
                    .iter()
                    .map(|end| match end.recv().unwrap() {
                        Message::Assign { round, .. } => round,
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect::<Vec<_>>()
            },
            |_t, endpoint| {
                let msg = endpoint.recv().unwrap();
                endpoint.send(&msg).unwrap();
                endpoint.stats().bytes_sent
            },
        );
        assert_eq!(server_out, vec![0, 1, 2, 3]);
        assert!(client_out.into_iter().all(|exit| exit.finished().unwrap() > 0));
    }

    #[test]
    fn client_results_are_indexed_by_user() {
        let net = try_star(3).unwrap();
        let (_, results) = net.run_clients(
            |server_ends| {
                for end in server_ends {
                    end.send(&Message::Shutdown).unwrap();
                }
            },
            |t, endpoint| {
                let _ = endpoint.recv().unwrap();
                t * 10
            },
        );
        let results: Vec<usize> = results.into_iter().map(|e| e.finished().unwrap()).collect();
        assert_eq!(results, vec![0, 10, 20]);
    }

    #[test]
    fn panicking_client_is_captured_not_propagated() {
        let net = try_star(3).unwrap();
        let (server_out, results) = net.run_clients(
            |server_ends| {
                for end in server_ends {
                    end.send(&Message::Shutdown).unwrap();
                }
                // The server side keeps running: a poisoned device must not
                // take the process down.
                "server survived"
            },
            |t, endpoint| {
                let _ = endpoint.recv().unwrap();
                if t == 1 {
                    panic!("device {t} poisoned");
                }
                t
            },
        );
        assert_eq!(server_out, "server survived");
        assert_eq!(results[0], ClientExit::Finished(0));
        assert_eq!(results[2], ClientExit::Finished(2));
        let msg = results[1].panic_message().unwrap();
        assert!(msg.contains("poisoned"), "payload text surfaced: {msg}");
    }

    #[test]
    fn empty_star_is_typed_error() {
        let err = try_star(0).unwrap_err();
        assert_eq!(err, TopologyError::EmptyStar);
        assert!(err.to_string().contains("at least one client"));
    }
}
