//! The `bravod` TCP server: one shared [`kvstore::Db`] behind a pluggable
//! serving [`Backend`].
//!
//! The server is deliberately std-only (no async runtime — this build
//! environment has no crates.io access). Two backends satisfy the same
//! [`Backend`] contract:
//!
//! * [`BackendKind::Threads`] — one accept loop, one handler thread per
//!   connection. Simple and lowest-latency while connections ≤ host
//!   threads; the default.
//! * [`BackendKind::Mux`] ([`crate::mux`]) — accepted sockets go
//!   nonblocking and are multiplexed over a small fixed worker pool, so
//!   connection counts are bounded by file descriptors instead of threads
//!   (256–1024 connections on a 2-core host is routine).
//!
//! Both backends decode requests with the incremental
//! [`FrameDecoder`] and apply them to the shared store through the same
//! (crate-private) `apply`, so a lock spec measures identically under
//! either serving discipline. [`Server::shutdown`] is a
//! real join on *everything* the backend spawned — accept loop, handler
//! threads, workers — not just the accept loop, so a measurement harness
//! can sequence runs without leaking blocked threads.

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bravo::spec::{LockSpec, SpecError};
use kvstore::Db;

use crate::mux::MuxBackend;
use crate::protocol::{write_frame, FrameDecoder, Request, Response};

/// How the server maps connections onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// One handler thread per connection (the default).
    #[default]
    Threads,
    /// Nonblocking sockets multiplexed over a fixed worker pool.
    Mux,
}

impl BackendKind {
    /// The CLI name (`threads` / `mux`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Threads => "threads",
            BackendKind::Mux => "mux",
        }
    }

    /// Both kinds, in sweep order (threaded baseline first).
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Threads, BackendKind::Mux]
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(BackendKind::Threads),
            "mux" => Ok(BackendKind::Mux),
            other => Err(format!(
                "unknown backend '{other}' (expected 'threads' or 'mux')"
            )),
        }
    }
}

/// What a [`Server`] serves: the lock spec its memtable GetLock is built
/// from, how many keys to pre-load, and which serving backend to run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Lock spec for the store's GetLock (the `--lock SPEC` string).
    pub spec: LockSpec,
    /// Keys `0..prepopulate` loaded before serving, as `db_bench` does.
    /// They are loaded after the listener binds but before the store is
    /// shared, so the load takes no lock and records no lock statistics
    /// (see [`Db::open_prepopulated`]).
    pub prepopulate: u64,
    /// Whether to log per-connection open/close lines to stderr.
    pub verbose: bool,
    /// The serving backend.
    pub backend: BackendKind,
    /// Worker threads for the mux backend; 0 picks the host parallelism
    /// (capped at 8). Ignored by the threaded backend.
    pub mux_workers: usize,
    /// Force the mux backend's portable scan poller even where `epoll` is
    /// available (testing, or pathological epoll environments).
    pub mux_scan_poller: bool,
}

impl ServerConfig {
    /// A config serving the given spec with the default 10 000-key
    /// pre-population (the paper's `--num=10000`), quiet, threaded.
    pub fn new(spec: LockSpec) -> Self {
        Self {
            spec,
            prepopulate: 10_000,
            verbose: false,
            backend: BackendKind::default(),
            mux_workers: 0,
            mux_scan_poller: false,
        }
    }

    /// The same config on a different backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The mux worker count this config resolves to.
    pub fn resolved_mux_workers(&self) -> usize {
        if self.mux_workers > 0 {
            return self.mux_workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(1, 8)
    }
}

/// Why a server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The lock spec was rejected by the catalog.
    Spec(SpecError),
    /// Binding or inspecting the listener failed.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Spec(e) => write!(f, "cannot build the store's lock: {e}"),
            ServeError::Io(e) => write!(f, "cannot bind the listener: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Spec(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// What [`Server::shutdown`] joined, so harnesses (and the shutdown tests)
/// can assert nothing outlived it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShutdownStats {
    /// Per-connection handler threads joined (threaded backend).
    pub handlers_joined: u64,
    /// Event-loop workers joined (mux backend).
    pub workers_joined: u64,
    /// Live multiplexed connections torn down (mux backend; the threaded
    /// backend's count is its `handlers_joined`).
    pub connections_closed: u64,
}

/// The contract both serving backends satisfy. Everything a backend spawns
/// must be joined by `shutdown`, which must be idempotent (`Server` calls
/// it from both [`Server::shutdown`] and `Drop`).
pub trait Backend: Send {
    /// The address the listener actually bound (resolves port 0).
    fn local_addr(&self) -> SocketAddr;
    /// Number of connections accepted so far.
    fn connections_accepted(&self) -> u64;
    /// Stops accepting, tears down live connections, joins every thread.
    fn shutdown(&mut self) -> ShutdownStats;
}

/// A running `bravod` instance: a serving [`Backend`] over one shared
/// [`Db`].
///
/// Dropping the server (or calling [`Server::shutdown`]) stops the accept
/// loop, tears down live connections, and joins every thread the backend
/// spawned.
pub struct Server {
    db: Arc<Db>,
    backend: Box<dyn Backend>,
}

impl Server {
    /// Opens the store described by `config` and starts accepting on
    /// `addr` (use port 0 for an ephemeral port; the bound address is
    /// reported by [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Self, ServeError> {
        // Bind first: an address in use must fail at once, not after
        // loading the whole store.
        let listener = TcpListener::bind(addr)?;
        let db = Arc::new(Db::open_prepopulated(&config.spec, config.prepopulate)?);
        let backend: Box<dyn Backend> = match config.backend {
            BackendKind::Threads => Box::new(ThreadedBackend::bind(
                listener,
                Arc::clone(&db),
                config.verbose,
            )?),
            BackendKind::Mux => Box::new(MuxBackend::bind(
                listener,
                Arc::clone(&db),
                config.resolved_mux_workers(),
                config.mux_scan_poller,
                config.verbose,
            )?),
        };
        Ok(Self { db, backend })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.backend.local_addr()
    }

    /// The store being served (for in-process instrumentation: the fig10
    /// harness reads the GetLock's per-lock statistics through this).
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// Number of connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.backend.connections_accepted()
    }

    /// Stops the accept loop, tears down live connections, and joins every
    /// thread the backend spawned. Equivalent to dropping the server, but
    /// explicit at call sites that sequence measurements — and it reports
    /// what was joined.
    pub fn shutdown(mut self) -> ShutdownStats {
        self.backend.shutdown()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.backend.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr())
            .field("lock", &self.db.lock_label())
            .field("connections", &self.connections_accepted())
            .finish_non_exhaustive()
    }
}

/// How often a blocked handler thread wakes to re-check the stop flag: the
/// read timeout installed on every accepted socket, and therefore the
/// latency bound on [`ThreadedBackend::shutdown`] observing an idle
/// connection.
const HANDLER_POLL: Duration = Duration::from_millis(50);

/// How long a blocked *write* may stall before the connection is dropped
/// (a peer that stops reading for this long under a response backlog is
/// gone for measurement purposes). The threaded backend installs it as the
/// socket write timeout; the mux backend applies the same deadline to a
/// connection whose buffered output makes no progress.
pub(crate) const HANDLER_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The thread-per-connection backend.
struct ThreadedBackend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
    /// Every live handler's join handle; the accept loop reaps finished
    /// entries as it admits new connections, `shutdown` drains the rest.
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

impl ThreadedBackend {
    fn bind(listener: TcpListener, db: Arc<Db>, verbose: bool) -> Result<Self, ServeError> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("bravod-accept".to_string())
                .spawn(move || accept_loop(listener, db, stop, connections, handlers, verbose))
                .map_err(ServeError::Io)?
        };
        Ok(Self {
            addr,
            stop,
            connections,
            accept_thread: Some(accept_thread),
            handlers,
            stopped: false,
        })
    }
}

impl Backend for ThreadedBackend {
    fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) -> ShutdownStats {
        if self.stopped {
            return ShutdownStats::default();
        }
        self.stopped = true;
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; if that
        // fails the listener is already dead and accept will error out.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Handlers blocked in a read observe the stop flag within one
        // HANDLER_POLL (their sockets carry a read timeout); join them all.
        let handles =
            std::mem::take(&mut *self.handlers.lock().expect("handler registry poisoned"));
        let mut stats = ShutdownStats::default();
        for handle in handles {
            stats.handlers_joined += 1;
            stats.connections_closed += 1;
            let _ = handle.join();
        }
        stats
    }
}

impl Drop for ThreadedBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    db: Arc<Db>,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    verbose: bool,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                eprintln!("bravod: accept failed: {e}");
                // A persistent failure (EMFILE when every fd is in use)
                // fails again immediately without dequeuing anything;
                // back off instead of hot-looping on it.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let id = connections.fetch_add(1, Ordering::Relaxed);
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let result = std::thread::Builder::new()
            .name(format!("bravod-conn{id}"))
            .spawn(move || handle_connection(stream, id, db, stop, verbose));
        match result {
            Ok(handle) => {
                let mut handlers = handlers.lock().expect("handler registry poisoned");
                // Reap finished handlers so a long-lived server does not
                // accumulate one dead JoinHandle per past connection
                // (joining a finished thread returns immediately).
                let mut i = 0;
                while i < handlers.len() {
                    if handlers[i].is_finished() {
                        let _ = handlers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                handlers.push(handle);
            }
            Err(e) => {
                eprintln!("bravod: cannot spawn handler for connection {id}: {e}");
            }
        }
    }
}

/// Serves one connection until EOF, a protocol error, an I/O error, or
/// server shutdown. The socket carries a [`HANDLER_POLL`] read timeout so a
/// handler blocked on an idle connection still observes the stop flag;
/// frames are assembled by the incremental [`FrameDecoder`] so a timeout
/// mid-frame resumes cleanly.
fn handle_connection(
    stream: TcpStream,
    id: u64,
    db: Arc<Db>,
    stop: Arc<AtomicBool>,
    verbose: bool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDLER_POLL));
    let _ = stream.set_write_timeout(Some(HANDLER_WRITE_TIMEOUT));
    // A relabelled GetLock handle tags this connection's log lines (see
    // `LockHandle::labeled`); all clones feed the one shared per-lock sink,
    // so this buys distinguishable labels, not per-connection counters.
    // Only built when logging actually happens.
    let conn_lock = verbose.then(|| db.lock().labeled(format!("{}@conn{id}", db.lock_label())));
    if let Some(conn_lock) = &conn_lock {
        eprintln!("bravod: connection {id} open ({})", conn_lock.label());
    }
    let mut stream = stream;
    let mut writer = match stream.try_clone() {
        Ok(clone) => BufWriter::new(clone),
        Err(e) => {
            eprintln!("bravod: connection {id}: cannot clone stream: {e}");
            return;
        }
    };
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut out = Vec::new();
    let mut served = 0u64;
    let outcome = 'conn: loop {
        if stop.load(Ordering::SeqCst) {
            break Ok(());
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                if decoder.mid_frame() {
                    break Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid frame",
                    ));
                }
                break Ok(());
            }
            Ok(n) => n,
            // The HANDLER_POLL timeout (reported as WouldBlock or TimedOut
            // depending on platform) and stray signals both mean "nothing
            // yet": loop to re-check the stop flag.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(e) => break Err(e),
        };
        let mut input = &chunk[..n];
        while !input.is_empty() {
            let (used, frame) = match decoder.advance(input) {
                Ok(step) => step,
                Err(e) => {
                    // A malformed frame leaves the stream unsynchronized;
                    // report once and drop the connection rather than
                    // guessing at the next frame boundary.
                    break 'conn send_response(
                        &mut writer,
                        &mut out,
                        &Response::Err(e.to_string()),
                    )
                    .and(Ok(()));
                }
            };
            if let Some(body) = frame {
                let response = match Request::decode(body) {
                    Ok(request) => apply(&db, request),
                    Err(e) => Response::Err(e.to_string()),
                };
                let fatal = matches!(response, Response::Err(_));
                if let Err(e) = send_response(&mut writer, &mut out, &response) {
                    break 'conn Err(e);
                }
                if fatal {
                    break 'conn Ok(());
                }
                served += 1;
            }
            input = &input[used..];
        }
    };
    if let Some(conn_lock) = &conn_lock {
        match outcome {
            Ok(()) => eprintln!(
                "bravod: connection {id} closed after {served} ops ({})",
                conn_lock.label()
            ),
            Err(e) => eprintln!("bravod: connection {id} aborted after {served} ops: {e}"),
        }
    }
}

/// Encodes and writes one response frame, flushing the buffered writer.
fn send_response<W: Write>(
    writer: &mut W,
    scratch: &mut Vec<u8>,
    response: &Response,
) -> io::Result<()> {
    scratch.clear();
    response.encode(scratch);
    write_frame(writer, scratch)?;
    writer.flush()
}

/// Applies one decoded request to the store. Shared by both backends, so a
/// lock spec measures identically under either serving discipline.
pub(crate) fn apply(db: &Db, request: Request) -> Response {
    match request {
        Request::Get { key } => match db.get(key) {
            Some(value) => Response::Value(value),
            None => Response::NotFound,
        },
        Request::Put { key, value } => {
            db.put(key, value);
            Response::Ok
        }
        Request::Merge { key, delta } => {
            db.merge(key, |value| {
                for (word, d) in value.iter_mut().zip(delta) {
                    *word = word.wrapping_add(d);
                }
            });
            Response::Ok
        }
        Request::Delete { key } => Response::Deleted(db.delete(key)),
        Request::Scan { start, limit } => Response::Entries(db.scan(start, limit as usize)),
        // The batched ops are where sharding pays on the serving path: one
        // GetLock acquisition per touched shard per *frame*, not per key.
        Request::MultiGet { keys } => Response::Values(db.multi_get(&keys)),
        Request::WriteBatch { ops } => Response::Batched(db.write_batch(&ops) as u32),
        Request::Ping => Response::Pong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::memtable::prepopulated_value;
    use rwlocks::LockKind;

    fn test_db() -> Db {
        Db::open_prepopulated(LockKind::BravoBa, 8).unwrap()
    }

    #[test]
    fn apply_covers_every_operation() {
        let db = test_db();
        assert_eq!(apply(&db, Request::Ping), Response::Pong);
        assert!(matches!(
            apply(&db, Request::Get { key: 3 }),
            Response::Value(_)
        ));
        assert_eq!(apply(&db, Request::Get { key: 99 }), Response::NotFound);
        assert_eq!(
            apply(
                &db,
                Request::Put {
                    key: 99,
                    value: [7; 4]
                }
            ),
            Response::Ok
        );
        assert_eq!(
            apply(&db, Request::Get { key: 99 }),
            Response::Value([7; 4])
        );
        assert_eq!(
            apply(
                &db,
                Request::Merge {
                    key: 99,
                    delta: [1; 4]
                }
            ),
            Response::Ok
        );
        assert_eq!(
            apply(&db, Request::Get { key: 99 }),
            Response::Value([8; 4])
        );
        assert_eq!(
            apply(&db, Request::Delete { key: 99 }),
            Response::Deleted(true)
        );
        assert_eq!(
            apply(&db, Request::Delete { key: 99 }),
            Response::Deleted(false)
        );
        match apply(&db, Request::Scan { start: 2, limit: 3 }) {
            Response::Entries(entries) => {
                assert_eq!(
                    entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                    vec![2, 3, 4]
                );
            }
            other => panic!("scan returned {other:?}"),
        }
        assert_eq!(
            apply(&db, Request::MultiGet { keys: vec![3, 99] }),
            Response::Values(vec![Some(prepopulated_value(3)), None])
        );
        assert_eq!(
            apply(
                &db,
                Request::WriteBatch {
                    ops: vec![
                        kvstore::BatchOp::Put {
                            key: 50,
                            value: [5; 4]
                        },
                        kvstore::BatchOp::Merge {
                            key: 50,
                            delta: [1; 4]
                        },
                        kvstore::BatchOp::Delete { key: 3 },
                    ]
                }
            ),
            Response::Batched(3)
        );
        assert_eq!(
            apply(&db, Request::Get { key: 50 }),
            Response::Value([6; 4])
        );
        assert_eq!(apply(&db, Request::Get { key: 3 }), Response::NotFound);
    }

    #[test]
    fn apply_routes_identically_on_a_sharded_db() {
        let db = Db::open_prepopulated(LockKind::BravoBa.spec().with_shards(4), 8).unwrap();
        assert_eq!(
            apply(
                &db,
                Request::MultiGet {
                    keys: vec![0, 7, 99]
                }
            ),
            Response::Values(vec![
                Some(prepopulated_value(0)),
                Some(prepopulated_value(7)),
                None
            ])
        );
        match apply(&db, Request::Scan { start: 0, limit: 8 }) {
            Response::Entries(entries) => {
                assert_eq!(
                    entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                    (0..8).collect::<Vec<_>>()
                );
            }
            other => panic!("scan returned {other:?}"),
        }
    }

    #[test]
    fn backend_kind_parses_and_prints() {
        assert_eq!("threads".parse::<BackendKind>(), Ok(BackendKind::Threads));
        assert_eq!("mux".parse::<BackendKind>(), Ok(BackendKind::Mux));
        assert!("epoll".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Mux.to_string(), "mux");
        assert_eq!(BackendKind::default(), BackendKind::Threads);
    }

    #[test]
    fn bind_rejects_bad_specs() {
        let config = ServerConfig::new("no-such-lock".parse().unwrap());
        match Server::bind("127.0.0.1:0", config) {
            Err(ServeError::Spec(_)) => {}
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn bind_fails_on_a_taken_port_before_loading_the_store() {
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let mut config = ServerConfig::new(LockKind::BravoBa.spec());
        // Far more keys than fit in memory: only a bind that fails before
        // the load returns.
        config.prepopulate = 1 << 40;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(Server::bind(addr, config).map(drop));
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(ServeError::Io(_))) => {}
            Ok(other) => panic!("expected an I/O error, got {other:?}"),
            Err(_) => panic!("bind on a taken port loaded the store first"),
        }
    }

    #[test]
    fn server_binds_an_ephemeral_port_and_shuts_down() {
        for backend in BackendKind::all() {
            let config = ServerConfig::new(LockKind::BravoBa.spec()).with_backend(backend);
            let server = Server::bind("127.0.0.1:0", config).unwrap();
            assert_ne!(server.local_addr().port(), 0);
            let stats = server.shutdown();
            match backend {
                BackendKind::Threads => assert_eq!(stats.workers_joined, 0),
                BackendKind::Mux => assert!(stats.workers_joined >= 1),
            }
        }
    }

    #[test]
    fn resolved_mux_workers_prefers_the_explicit_count() {
        let mut config = ServerConfig::new(LockKind::BravoBa.spec());
        assert!(config.resolved_mux_workers() >= 1);
        config.mux_workers = 3;
        assert_eq!(config.resolved_mux_workers(), 3);
    }
}
