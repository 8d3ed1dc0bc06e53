//! Shutdown-under-load tests for both `bravod` backends.
//!
//! The bug these pin down: the original threaded backend's `shutdown` only
//! joined the accept thread — connection-handler threads were discarded at
//! spawn, so a handler blocked in a read on an idle connection outlived
//! `shutdown()` indefinitely. Now every backend joins *everything* it
//! spawned before `shutdown` returns, and reports what it joined via
//! [`ShutdownStats`] so these tests can assert nothing was leaked.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bravo_repro::server::{BackendKind, Client, Server, ServerConfig};

const IDLE_CONNECTIONS: usize = 8;
const ACTIVE_CONNECTIONS: usize = 4;

/// Opens `IDLE_CONNECTIONS` connections that go quiet after one ping (their
/// handlers park in a read) plus `ACTIVE_CONNECTIONS` clients hammering the
/// store from background threads, then shuts the server down mid-traffic.
/// Shutdown must return promptly and account for every connection.
fn shutdown_under_load(backend: BackendKind, spec: &str) {
    let mut config = ServerConfig::new(spec.parse().expect("valid spec"));
    config.prepopulate = 64;
    config.backend = backend;
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    // Idle connections: one ping proves the handler is up, then silence —
    // the handler (threads) or reactor registration (mux) sits in a read
    // with no traffic. Kept alive until after shutdown.
    let mut idle = Vec::new();
    for _ in 0..IDLE_CONNECTIONS {
        let mut client = Client::connect(addr).expect("connect idle");
        client.ping().expect("ping");
        idle.push(client);
    }

    let stop_requested = Arc::new(AtomicBool::new(false));
    let active_ops = Arc::new(AtomicU64::new(0));
    let active: Vec<_> = (0..ACTIVE_CONNECTIONS)
        .map(|conn| {
            let stop_requested = Arc::clone(&stop_requested);
            let active_ops = Arc::clone(&active_ops);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect active");
                let mut key = conn as u64;
                loop {
                    key = (key + 7) % 64;
                    let result = if key % 3 == 0 {
                        client.merge(key, [1; 4]).map(|_| ())
                    } else {
                        client.get(key).map(|_| ())
                    };
                    match result {
                        Ok(()) => {
                            active_ops.fetch_add(1, Ordering::Relaxed);
                        }
                        // The server tore the socket down mid-shutdown:
                        // exactly what this test provokes.
                        Err(_) => break,
                    }
                    if stop_requested.load(Ordering::Relaxed) {
                        // Keep issuing until the server actually goes away,
                        // but bail out eventually if it never does.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();

    // Let real traffic flow before pulling the plug.
    let traffic_deadline = Instant::now() + Duration::from_secs(5);
    while active_ops.load(Ordering::Relaxed) < 50 {
        assert!(
            Instant::now() < traffic_deadline,
            "active connections made no progress"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The TCP handshake completes before the server's accept loop runs, so
    // give the counter a moment to catch up with the last connect.
    let expected = (IDLE_CONNECTIONS + ACTIVE_CONNECTIONS) as u64;
    let accept_deadline = Instant::now() + Duration::from_secs(5);
    while server.connections_accepted() < expected {
        assert!(
            Instant::now() < accept_deadline,
            "only {} of {expected} connections accepted",
            server.connections_accepted()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    stop_requested.store(true, Ordering::Relaxed);
    let begin = Instant::now();
    let stats = server.shutdown();
    let took = begin.elapsed();

    // Promptness: handlers blocked in reads observe the stop flag via
    // their read timeout (threads) or the reactor tears them down (mux);
    // nothing waits on client EOFs.
    assert!(
        took < Duration::from_secs(5),
        "shutdown took {took:?} with idle connections open ({backend})"
    );
    match backend {
        BackendKind::Threads => {
            assert_eq!(
                stats.handlers_joined, expected,
                "not every handler thread was joined: {stats:?}"
            );
            assert_eq!(stats.connections_closed, expected, "{stats:?}");
            assert_eq!(stats.workers_joined, 0, "{stats:?}");
        }
        BackendKind::Mux => {
            assert!(stats.workers_joined >= 1, "{stats:?}");
            assert_eq!(
                stats.connections_closed, expected,
                "not every multiplexed connection was torn down: {stats:?}"
            );
            assert_eq!(stats.handlers_joined, 0, "{stats:?}");
        }
    }

    // With the server gone, the active clients' next operation fails and
    // their threads exit; a hang here would mean shutdown left sockets
    // half-alive.
    for handle in active {
        handle.join().expect("active client panicked");
    }
    // Idle clients observe the close too.
    for client in &mut idle {
        assert!(
            client.ping().is_err(),
            "server answered a ping after shutdown"
        );
    }
}

#[test]
fn threaded_shutdown_joins_every_handler_under_load() {
    shutdown_under_load(BackendKind::Threads, "BRAVO-BA");
}

#[test]
fn mux_shutdown_tears_down_every_connection_under_load() {
    shutdown_under_load(BackendKind::Mux, "BRAVO-BA");
}

// With `wait=park`, a handler blocked on the GetLock is parked in the
// kernel rather than spinning; shutdown must still wake and join every
// such handler (a leaked parked thread would hang the join below).

#[test]
fn threaded_shutdown_joins_every_handler_with_parking_locks() {
    shutdown_under_load(BackendKind::Threads, "BRAVO-BA?wait=park");
}

#[test]
fn mux_shutdown_tears_down_every_connection_with_parking_locks() {
    shutdown_under_load(BackendKind::Mux, "BRAVO-BA?wait=park");
}

/// A second shutdown path: dropping the server (no explicit `shutdown()`)
/// must also join everything — `Drop` and `shutdown` share the same
/// idempotent teardown.
#[test]
fn dropping_the_server_with_idle_connections_does_not_hang() {
    for backend in BackendKind::all() {
        let mut config = ServerConfig::new("BRAVO-BA".parse().expect("valid spec"));
        config.prepopulate = 16;
        config.backend = backend;
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        let addr = server.local_addr();
        let mut client = Client::connect(addr).expect("connect");
        client.ping().expect("ping");
        let begin = Instant::now();
        drop(server);
        assert!(
            begin.elapsed() < Duration::from_secs(5),
            "drop hung on an idle connection ({backend})"
        );
        assert!(client.ping().is_err());
    }
}
