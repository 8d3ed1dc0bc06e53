//! End-to-end tests of the `bravod` client/server path: a real TCP socket
//! on loopback, a short mixed workload, and the open-loop load generator —
//! run against **both** serving backends (thread-per-connection and the
//! multiplexed reactor), plus the mux backend's portable scan poller, so
//! every serving discipline answers the same protocol identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bravo_repro::server::loadgen::{self, LoadConfig};
use bravo_repro::server::{BackendKind, Client, Server, ServerConfig};

/// The serving flavours under test: backend plus whether the mux poller is
/// forced onto the portable scan fallback.
fn flavours() -> [(BackendKind, bool); 3] {
    [
        (BackendKind::Threads, false),
        (BackendKind::Mux, false),
        (BackendKind::Mux, true),
    ]
}

fn quick_server(spec: &str, keys: u64, backend: BackendKind, scan_poller: bool) -> Server {
    let mut config = ServerConfig::new(spec.parse().expect("valid spec"));
    config.prepopulate = keys;
    config.backend = backend;
    config.mux_scan_poller = scan_poller;
    Server::bind("127.0.0.1:0", config).expect("bind loopback")
}

#[test]
fn crud_round_trip_over_a_real_socket() {
    for (backend, scan) in flavours() {
        let server = quick_server("BRAVO-BA", 16, backend, scan);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        // Pre-populated keys are visible.
        assert_eq!(client.get(3).unwrap().unwrap()[0], 3);
        assert_eq!(client.get(999).unwrap(), None);
        // Writes round-trip.
        client.put(999, [9, 8, 7, 6]).unwrap();
        assert_eq!(client.get(999).unwrap(), Some([9, 8, 7, 6]));
        client.merge(999, [1, 1, 1, 1]).unwrap();
        assert_eq!(client.get(999).unwrap(), Some([10, 9, 8, 7]));
        assert!(client.delete(999).unwrap());
        assert!(!client.delete(999).unwrap());
        // Scans are ordered and bounded.
        let entries = client.scan(10, 4).unwrap();
        assert_eq!(
            entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 11, 12, 13]
        );
        assert!(server.connections_accepted() >= 1);
        server.shutdown();
    }
}

#[test]
fn concurrent_connections_run_a_mixed_workload() {
    for (backend, scan) in flavours() {
        let server = quick_server("BRAVO-2D-BA", 64, backend, scan);
        let addr = server.local_addr();
        let total_ops = AtomicU64::new(0);
        std::thread::scope(|s| {
            for conn in 0..4u64 {
                let total_ops = &total_ops;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..200u64 {
                        let key = (conn * 211 + i) % 64;
                        match i % 4 {
                            0 => {
                                client.get(key).unwrap();
                            }
                            1 => client.merge(key, [1, 0, 0, 1]).unwrap(),
                            2 => {
                                client.scan(key, 16).unwrap();
                            }
                            _ => client.put(key, [key; 4]).unwrap(),
                        }
                        total_ops.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total_ops.load(Ordering::Relaxed), 800);
        assert_eq!(server.connections_accepted(), 4);
        // The server's GetLock recorded traffic through its per-lock sink.
        let stats = server.db().lock_stats();
        assert!(
            stats.total_reads() > 0,
            "no reads attributed to the GetLock: {stats:?}"
        );
        assert!(stats.writes > 0, "no writes attributed to the GetLock");
        server.shutdown();
    }
}

/// Batched frames round-trip over a real socket on every serving flavour,
/// against a sharded store: one `MultiGet`/`WriteBatch` frame touches
/// several shards and still answers in input order.
#[test]
fn batched_frames_round_trip_on_every_backend() {
    use kvstore::BatchOp;

    for (backend, scan) in flavours() {
        let server = quick_server("BRAVO-BA?shards=4", 32, backend, scan);
        let mut client = Client::connect(server.local_addr()).unwrap();
        // MultiGet answers line up with the requested keys by position.
        let values = client.multi_get(vec![3, 999, 7, 0]).unwrap();
        assert_eq!(values.len(), 4);
        assert_eq!(values[0].unwrap()[0], 3);
        assert_eq!(values[1], None);
        assert_eq!(values[2].unwrap()[0], 7);
        assert_eq!(values[3].unwrap()[0], 0);
        // WriteBatch applies in order across shards: put, merge over it,
        // delete a prepopulated key.
        let applied = client
            .write_batch(vec![
                BatchOp::Put {
                    key: 100,
                    value: [5, 5, 5, 5],
                },
                BatchOp::Merge {
                    key: 100,
                    delta: [1, 2, 3, 4],
                },
                BatchOp::Delete { key: 3 },
            ])
            .unwrap();
        assert_eq!(applied, 3);
        assert_eq!(client.get(100).unwrap(), Some([6, 7, 8, 9]));
        assert_eq!(client.get(3).unwrap(), None);
        server.shutdown();
    }
}

/// A batched frame delivered one byte at a time still decodes: the mux
/// backend's incremental decoder (and the threaded backend's blocking
/// reader) reassemble partial reads before answering.
#[test]
fn batched_frames_survive_partial_delivery_on_every_backend() {
    use std::io::Write as _;

    use bravo_repro::server::protocol::{read_frame, write_frame, Request, Response};
    use kvstore::BatchOp;

    for (backend, scan) in flavours() {
        let server = quick_server("BRAVO-BA?shards=4", 16, backend, scan);
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut wire = Vec::new();
        let mut body = Vec::new();
        Request::WriteBatch {
            ops: vec![
                BatchOp::Put {
                    key: 40,
                    value: [4; 4],
                },
                BatchOp::Put {
                    key: 41,
                    value: [5; 4],
                },
            ],
        }
        .encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
        body.clear();
        Request::MultiGet {
            keys: vec![40, 41, 99],
        }
        .encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
        // Dribble the two frames out a few bytes at a time so every
        // header and body crosses a read boundary.
        for chunk in wire.chunks(3) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        assert!(read_frame(&mut reader, &mut body).unwrap(), "eof at batch");
        assert_eq!(Response::decode(&body).unwrap(), Response::Batched(2));
        assert!(
            read_frame(&mut reader, &mut body).unwrap(),
            "eof at multiget"
        );
        assert_eq!(
            Response::decode(&body).unwrap(),
            Response::Values(vec![Some([4; 4]), Some([5; 4]), None])
        );
        server.shutdown();
    }
}

/// The batched load generator keeps the open-loop ledger honest: every
/// frame counts `batch` operations and the
/// `scheduled = operations + errors + abandoned` invariant holds, with one
/// latency sample per frame.
#[test]
fn batched_load_generator_counts_operations_not_frames() {
    let server = quick_server("BRAVO-BA?shards=4", 256, BackendKind::Mux, false);
    let batch = 4;
    let config = LoadConfig {
        connections: 2,
        rate: 4_000.0,
        duration: Duration::from_millis(200),
        keys: 256,
        batch,
        ..LoadConfig::quick()
    };
    let report = loadgen::run(server.local_addr(), &config).unwrap();
    assert!(report.operations > 0, "no operations completed");
    assert_eq!(report.errors, 0, "load generator hit errors: {report:?}");
    assert_eq!(
        report.operations % batch as u64,
        0,
        "operations must come in whole frames: {report:?}"
    );
    assert_eq!(
        report.latencies.count() * batch as u64,
        report.operations,
        "one latency sample per frame: {report:?}"
    );
    assert_eq!(report.scheduled, report.operations);
    server.shutdown();
}

#[test]
fn open_loop_load_generator_reports_latency_percentiles() {
    for (backend, scan) in flavours() {
        let server = quick_server("BRAVO-BA", 256, backend, scan);
        let config = LoadConfig {
            connections: 2,
            rate: 2_000.0,
            duration: Duration::from_millis(200),
            keys: 256,
            ..LoadConfig::quick()
        };
        let report = loadgen::run(server.local_addr(), &config).unwrap();
        assert!(
            report.operations > 0,
            "load generator completed no operations"
        );
        assert_eq!(report.errors, 0, "load generator hit errors: {report:?}");
        assert_eq!(report.latencies.count(), report.operations);
        assert_eq!(report.abandoned, 0, "{report:?}");
        assert_eq!(report.scheduled, report.operations);
        let (p50, p95, p99) = (report.p50(), report.p95(), report.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50:?} {p95:?} {p99:?}");
        assert!(report.throughput() > 0.0);
        assert!(report.achieved_rate() > 0.0);
        server.shutdown();
    }
}

/// Killing the server mid-run turns the rest of the schedule into
/// *abandoned* operations — the open-loop report keeps them in the
/// denominator instead of silently dropping the tail, and the degradation
/// warning fires.
#[test]
fn load_generator_counts_abandoned_operations_when_the_server_dies() {
    let server = quick_server("BRAVO-BA", 64, BackendKind::Threads, false);
    let addr = server.local_addr();
    let config = LoadConfig {
        connections: 2,
        rate: 1_000.0,
        duration: Duration::from_millis(1_500),
        keys: 64,
        ..LoadConfig::quick()
    };
    let killer = std::thread::spawn(move || {
        // Let some traffic through, then pull the plug mid-schedule.
        std::thread::sleep(Duration::from_millis(300));
        server.shutdown();
    });
    let report = loadgen::run(addr, &config).unwrap();
    killer.join().unwrap();
    assert!(report.operations > 0, "no operations before the kill");
    assert!(report.errors > 0, "the kill surfaced no errors: {report:?}");
    assert!(
        report.abandoned > 0,
        "the abandoned schedule tail was dropped: {report:?}"
    );
    assert_eq!(
        report.scheduled,
        report.operations + report.errors + report.abandoned
    );
    assert!(
        report.rate_fraction() < 0.95,
        "a run missing most of its schedule must be degraded: {report:?}"
    );
    assert!(report.degradation_warning().is_some());
}

/// The mux backend answers protocol errors like the threaded one: a
/// malformed frame gets one `Err` response, then the connection closes
/// (the stream is unsynchronized past the bad frame).
#[test]
fn mux_backend_reports_protocol_errors_then_closes() {
    use std::io::{Read as _, Write as _};

    let server = quick_server("BRAVO-BA", 16, BackendKind::Mux, false);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // An oversized length prefix: rejected from the header alone.
    stream
        .write_all(&(u32::MAX.to_le_bytes()))
        .expect("write hostile header");
    stream.flush().unwrap();
    // The server answers with one Err frame, then EOF.
    let mut response = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read after hostile frame failed: {e}"),
        }
    }
    let mut cursor = std::io::Cursor::new(response);
    let mut body = Vec::new();
    assert!(
        bravo_repro::server::protocol::read_frame(&mut cursor, &mut body).unwrap(),
        "no error response frame before EOF"
    );
    match bravo_repro::server::protocol::Response::decode(&body).unwrap() {
        bravo_repro::server::protocol::Response::Err(message) => {
            assert!(message.contains("exceeds"), "unexpected error: {message}");
        }
        other => panic!("expected an Err response, got {other:?}"),
    }
    // Nothing after the error frame.
    assert!(!bravo_repro::server::protocol::read_frame(&mut cursor, &mut body).unwrap());
    server.shutdown();
}

/// Backpressure: a burst of pipelined max-size scans (each ~41 KB of
/// response for 17 bytes of request) against a peer that only starts
/// reading afterwards. The server must pause request processing at its
/// per-connection high-water mark instead of buffering every response —
/// and then resume cleanly as the peer drains, answering everything in
/// order without deadlocking.
#[test]
fn mux_backend_backpressures_pipelined_scans_without_deadlock() {
    use std::io::Write as _;

    use bravo_repro::server::protocol::{read_frame, write_frame, Request, Response};

    const BURST: usize = 200;

    let server = quick_server("BRAVO-BA", 4_096, BackendKind::Mux, false);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut wire = Vec::new();
    let mut body = Vec::new();
    for _ in 0..BURST {
        body.clear();
        Request::Scan {
            start: 0,
            limit: 1024,
        }
        .encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
    }
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    // Let the server hit its high-water mark before we read a byte.
    std::thread::sleep(Duration::from_millis(100));

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream);
    for i in 0..BURST {
        assert!(
            read_frame(&mut reader, &mut body).unwrap(),
            "eof after {i} of {BURST} responses"
        );
        match Response::decode(&body).unwrap() {
            Response::Entries(entries) => assert_eq!(entries.len(), 1024, "response {i}"),
            other => panic!("expected entries for scan {i}, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A peer that pipelines past the high-water mark and then *never* reads
/// is dropped by the mux worker's stall sweep (the analogue of the
/// threaded backend's socket write timeout) instead of holding its
/// connection slot and buffers forever.
#[test]
fn mux_backend_drops_peers_that_stop_reading() {
    use std::io::{Read as _, Write as _};

    use bravo_repro::server::protocol::{write_frame, Request};

    let server = quick_server("BRAVO-BA", 4_096, BackendKind::Mux, false);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut wire = Vec::new();
    let mut body = Vec::new();
    for _ in 0..400 {
        body.clear();
        Request::Scan {
            start: 0,
            limit: 1024,
        }
        .encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
    }
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    // Do not read anything: the server's flush blocks once the kernel
    // buffers fill, the stall clock starts, and the sweep (1s deadline +
    // 500ms sweep granularity) drops the connection.
    std::thread::sleep(Duration::from_millis(2_500));
    // Whatever was already in flight drains, then the teardown surfaces
    // as EOF or a reset — not a full-timeout hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let begin = std::time::Instant::now();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("expected EOF or reset from the dropped connection, got {e}"),
        }
    }
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "the stalled connection was not torn down"
    );
    server.shutdown();
}

/// Pipelining: the mux backend answers back-to-back requests written as
/// one burst, in order — the incremental decoder peels frames out of a
/// single read.
#[test]
fn mux_backend_answers_pipelined_requests_in_order() {
    use std::io::Write as _;

    use bravo_repro::server::protocol::{read_frame, write_frame, Request, Response};

    let server = quick_server("BRAVO-BA", 32, BackendKind::Mux, false);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    let mut body = Vec::new();
    for key in 0..16u64 {
        body.clear();
        Request::Get { key }.encode(&mut body);
        write_frame(&mut wire, &body).unwrap();
    }
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    for key in 0..16u64 {
        assert!(read_frame(&mut reader, &mut body).unwrap(), "eof at {key}");
        match Response::decode(&body).unwrap() {
            Response::Value(value) => assert_eq!(value[0], key, "answers out of order"),
            other => panic!("expected a value for key {key}, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A fresh mux worker blocks in its poller for up to its 500 ms stall
/// sweep interval. The accept loop wakes it after queuing a socket, so
/// each new connection is answered at once, and shutdown wakes it after
/// raising the stop flag, so an idle server with live connections stops
/// at once. Without the wakes, four connections and a shutdown take over
/// a second.
#[test]
fn mux_backend_answers_new_connections_and_stops_without_waiting_out_its_poller() {
    use std::time::Instant;

    // Half the sweep interval: far above a loopback round trip, far below
    // what a worker that is not woken takes.
    const PROMPT: Duration = Duration::from_millis(250);
    for scan in [false, true] {
        let mut config = ServerConfig::new("BRAVO-BA".parse().expect("valid spec"));
        config.prepopulate = 16;
        config.backend = BackendKind::Mux;
        config.mux_workers = 2;
        config.mux_scan_poller = scan;
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        // Let both workers settle into a full-length wait.
        std::thread::sleep(Duration::from_millis(20));
        let begin = Instant::now();
        let clients: Vec<Client> = (0..4)
            .map(|_| {
                let mut client = Client::connect(server.local_addr()).unwrap();
                client.ping().unwrap();
                client
            })
            .collect();
        let elapsed = begin.elapsed();
        assert!(
            elapsed < PROMPT,
            "4 connect-and-pings took {elapsed:?} (scan poller: {scan})"
        );
        std::thread::sleep(Duration::from_millis(20));
        let begin = Instant::now();
        let stats = server.shutdown();
        let elapsed = begin.elapsed();
        assert!(
            elapsed < PROMPT,
            "shutdown took {elapsed:?} (scan poller: {scan})"
        );
        assert_eq!(stats.workers_joined, 2);
        assert_eq!(stats.connections_closed, 4, "{stats:?}");
        drop(clients);
    }
}
