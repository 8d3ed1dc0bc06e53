//! The `bravod` TCP server: one shared [`kvstore::Db`] behind a pluggable
//! serving [`Backend`].
//!
//! The server is deliberately std-only (no async runtime — this build
//! environment has no crates.io access). Two backends satisfy the same
//! [`Backend`] contract:
//!
//! * [`BackendKind::Threads`] — one thread per connection, handed out
//!   leader/follower style (Schmidt et al., PLoP 2000): exactly one
//!   thread blocks in `accept`, and the thread that accepts a connection
//!   serves it itself. If the connection's first request has already
//!   arrived, the thread answers it and then starts and registers its
//!   successor, the next acceptor; otherwise it starts the successor
//!   first. So a first round trip need not wait for a thread spawn, and a
//!   connection that arrives meanwhile waits for at most one request of
//!   its predecessor.
//!   Simple and lowest-latency while connections ≤ host threads; the
//!   default.
//! * [`BackendKind::Mux`] ([`crate::mux`]) — accepted sockets go
//!   nonblocking and are multiplexed over a small fixed worker pool, so
//!   connection counts are bounded by file descriptors instead of threads
//!   (256–1024 connections on a 2-core host is routine).
//!
//! Both backends decode requests with the incremental
//! [`FrameDecoder`] and apply them to the shared store through the same
//! (crate-private) `apply`, so a lock spec measures identically under
//! either serving discipline. [`Server::shutdown`] is a
//! real join on *everything* the backend spawned — the acceptor and the
//! threads serving connections, or the accept loop and the workers — so a
//! measurement harness can sequence runs without leaking blocked threads.

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bravo::spec::{LockHandle, LockSpec, SpecError};
use kvstore::{Db, OpenError};

use crate::mux::MuxBackend;
use crate::protocol::{write_frame, FrameDecoder, Request, Response};

/// How the server maps connections onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// One thread per connection, each started by the one before it as
    /// that one takes a connection (the default).
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
    /// shared, so the load takes no lock and records no lock statistics;
    /// the shards fill in parallel, one thread per core up to the shard
    /// count. A size that cannot be allocated fails [`Server::bind`] with
    /// [`ServeError::OutOfMemory`] (see [`Db::open_prepopulated`]).
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
    /// The store for this many prepopulated keys could not be allocated.
    OutOfMemory {
        /// The requested [`ServerConfig::prepopulate`].
        keys: u64,
    },
    /// Binding or inspecting the listener failed.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Spec(e) => write!(f, "cannot build the store's lock: {e}"),
            ServeError::OutOfMemory { keys } => {
                write!(f, "cannot allocate a store of {keys} keys")
            }
            ServeError::Io(e) => write!(f, "cannot bind the listener: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<OpenError> for ServeError {
    fn from(e: OpenError) -> Self {
        match e {
            OpenError::Spec(e) => ServeError::Spec(e),
            OpenError::OutOfMemory { keys } => ServeError::OutOfMemory { keys },
        }
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
    /// Threads joined that served a connection (threaded backend). An
    /// acceptor that served none is joined but not counted.
    pub handlers_joined: u64,
    /// Event-loop workers joined (mux backend).
    pub workers_joined: u64,
    /// Connections torn down: the live multiplexed ones (mux backend), or
    /// one per thread counted in `handlers_joined` (threaded backend).
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

/// How often a thread serving a connection wakes from a blocked read to
/// re-check the stop flag: the read timeout installed on every accepted
/// socket, and therefore the latency bound on [`ThreadedBackend::shutdown`]
/// observing an idle connection.
const HANDLER_POLL: Duration = Duration::from_millis(50);

/// How long a blocked *write* may stall before the connection is dropped
/// (a peer that stops reading for this long under a response backlog is
/// gone for measurement purposes). The threaded backend installs it as the
/// socket write timeout; the mux backend applies the same deadline to a
/// connection whose buffered output makes no progress.
pub(crate) const HANDLER_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The leader/follower backend; see the module docs.
struct ThreadedBackend {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stopped: bool,
}

/// What every thread of the threaded backend shares.
struct Shared {
    db: Arc<Db>,
    stop: AtomicBool,
    connections: AtomicU64,
    /// Join handles of the threads started and not yet joined. A thread
    /// registers its successor before it exits. A handle's result says
    /// whether its thread served a connection. Finished entries are
    /// reaped as threads register; `shutdown` drains the rest.
    threads: Mutex<Vec<JoinHandle<bool>>>,
    verbose: bool,
}

impl ThreadedBackend {
    fn bind(listener: TcpListener, db: Arc<Db>, verbose: bool) -> Result<Self, ServeError> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
            verbose,
        });
        let first = spawn_acceptor(Arc::new(listener), Arc::clone(&shared))?;
        shared.register(first);
        Ok(Self {
            addr,
            shared,
            stopped: false,
        })
    }
}

impl Backend for ThreadedBackend {
    fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn connections_accepted(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) -> ShutdownStats {
        if self.stopped {
            return ShutdownStats::default();
        }
        self.stopped = true;
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; if that
        // fails the listener is already dead and accept will error out.
        let _ = TcpStream::connect(self.addr);
        // Threads blocked in a read observe the stop flag within one
        // HANDLER_POLL (their sockets carry a read timeout). A thread
        // registers its successor before it exits, and starts none once
        // it sees the stop flag, so once every thread taken is joined, any
        // successor they started is registered: take again until a take
        // finds none.
        let mut stats = ShutdownStats::default();
        loop {
            let threads = std::mem::take(&mut *self.shared.registry());
            if threads.is_empty() {
                return stats;
            }
            for thread in threads {
                if thread.join().unwrap_or(false) {
                    stats.handlers_joined += 1;
                    stats.connections_closed += 1;
                }
            }
        }
    }
}

impl Drop for ThreadedBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    fn registry(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<bool>>> {
        self.threads.lock().expect("thread registry poisoned")
    }

    /// Registers a newly started thread, first reaping finished ones so a
    /// long-lived server does not keep one dead handle per past connection
    /// (joining a finished thread returns at once).
    fn register(&self, thread: JoinHandle<bool>) {
        let mut threads = self.registry();
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                let _ = threads.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        threads.push(thread);
    }
}

/// Starts a thread that becomes the acceptor: see [`lead`].
fn spawn_acceptor(listener: Arc<TcpListener>, shared: Arc<Shared>) -> io::Result<JoinHandle<bool>> {
    std::thread::Builder::new()
        .name("bravod-conn".to_string())
        .spawn(move || lead(listener, shared))
}

/// The acceptor's loop. It blocks in `accept` until a connection comes,
/// which it then serves itself; before it serves the rest of it, it starts
/// and registers its successor, the next acceptor, unless the stop flag is
/// up. If the connection's first request is already waiting, the thread
/// answers that one request before it starts the successor, so the round
/// trip does not wait for a thread spawn; otherwise (nothing to read yet,
/// EOF, an error, or part of a frame) it starts the successor first. So a
/// connection that arrives meanwhile waits for at most one request of its
/// predecessor. If the successor cannot be started, the thread logs it,
/// drops the connection and stays the acceptor. Every successor is
/// registered before its starter exits, which is what lets
/// [`ThreadedBackend::shutdown`] find every thread. Returns whether it
/// served a connection.
fn lead(listener: Arc<TcpListener>, shared: Arc<Shared>) -> bool {
    let (conn, first) = loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return false;
                }
                eprintln!("bravod: accept failed: {e}");
                // A persistent failure (EMFILE when every fd is in use)
                // fails again immediately without dequeuing anything;
                // back off instead of hot-looping on it.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let id = shared.connections.fetch_add(1, Ordering::Relaxed);
        let mut conn = match Connection::open(stream, id, &shared.db, shared.verbose) {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("bravod: connection {id}: cannot clone stream: {e}");
                continue;
            }
        };
        let first = conn.answer_waiting_request();
        if shared.stop.load(Ordering::SeqCst) {
            break (conn, first);
        }
        match spawn_acceptor(Arc::clone(&listener), Arc::clone(&shared)) {
            Ok(successor) => {
                shared.register(successor);
                break (conn, first);
            }
            Err(e) => {
                eprintln!("bravod: cannot start the next acceptor, dropping connection {id}: {e}");
            }
        }
    };
    // Only acceptors hold the listener, so it closes once the last one
    // exits at shutdown, not when the last connection ends.
    drop(listener);
    conn.serve(first, &shared.stop);
    true
}

/// One connection of the threaded backend, held by the thread serving it.
/// Its socket carries a [`HANDLER_POLL`] read timeout so a thread blocked
/// on an idle connection still observes the stop flag; frames are
/// assembled by the incremental [`FrameDecoder`] so a timeout mid-frame
/// resumes cleanly.
struct Connection<'a> {
    id: u64,
    stream: TcpStream,
    /// Where reads land.
    chunk: Vec<u8>,
    replies: Replies<'a>,
    /// A relabelled GetLock handle that tags this connection's log lines
    /// (see `LockHandle::labeled`); all clones feed the one shared
    /// per-lock sink, so this buys distinguishable labels, not
    /// per-connection counters. Only built when logging actually happens.
    conn_lock: Option<LockHandle>,
}

impl<'a> Connection<'a> {
    fn open(stream: TcpStream, id: u64, db: &'a Db, verbose: bool) -> io::Result<Self> {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(HANDLER_POLL));
        let _ = stream.set_write_timeout(Some(HANDLER_WRITE_TIMEOUT));
        let writer = BufWriter::new(stream.try_clone()?);
        let conn_lock = verbose.then(|| db.lock().labeled(format!("{}@conn{id}", db.lock_label())));
        if let Some(conn_lock) = &conn_lock {
            eprintln!("bravod: connection {id} open ({})", conn_lock.label());
        }
        Ok(Self {
            id,
            stream,
            chunk: vec![0u8; 16 * 1024],
            replies: Replies {
                db,
                decoder: FrameDecoder::new(),
                writer,
                out: Vec::new(),
                served: 0,
            },
            conn_lock,
        })
    }

    /// Reads what the peer has already sent, without blocking, and answers
    /// the first request if those bytes complete one. Returns the bytes of
    /// `chunk` still to decode, or, if the connection must close, how it
    /// ended.
    fn answer_waiting_request(&mut self) -> ControlFlow<io::Result<()>, Range<usize>> {
        let read = match self.stream.set_nonblocking(true) {
            Ok(()) => self.stream.read(&mut self.chunk),
            Err(e) => Err(e),
        };
        if let Err(e) = self.stream.set_nonblocking(false) {
            return ControlFlow::Break(Err(e));
        }
        // Nothing yet, EOF or an error: `serve` reads again and meets it.
        let n = read.unwrap_or(0);
        let used = self.replies.answer(&self.chunk[..n], true)?;
        ControlFlow::Continue(used..n)
    }

    /// Serves the connection until EOF, a protocol error, an I/O error, or
    /// server shutdown, starting from what [`Self::answer_waiting_request`]
    /// left.
    fn serve(mut self, first: ControlFlow<io::Result<()>, Range<usize>>, stop: &AtomicBool) {
        let outcome = match first {
            ControlFlow::Break(outcome) => outcome,
            ControlFlow::Continue(pending) => self.serve_rest(pending, stop),
        };
        if let Some(conn_lock) = &self.conn_lock {
            let (id, served) = (self.id, self.replies.served);
            match outcome {
                Ok(()) => eprintln!(
                    "bravod: connection {id} closed after {served} ops ({})",
                    conn_lock.label()
                ),
                Err(e) => eprintln!("bravod: connection {id} aborted after {served} ops: {e}"),
            }
        }
    }

    fn serve_rest(&mut self, mut pending: Range<usize>, stop: &AtomicBool) -> io::Result<()> {
        loop {
            if let ControlFlow::Break(outcome) = self.replies.answer(&self.chunk[pending], false) {
                return outcome;
            }
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            pending = 0..match self.stream.read(&mut self.chunk) {
                Ok(0) if self.replies.decoder.mid_frame() => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid frame",
                    ));
                }
                Ok(0) => return Ok(()),
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
                    0
                }
                Err(e) => return Err(e),
            };
        }
    }
}

/// What answers one connection's requests.
struct Replies<'a> {
    db: &'a Db,
    decoder: FrameDecoder,
    writer: BufWriter<TcpStream>,
    /// Scratch space for encoding a response.
    out: Vec<u8>,
    served: u64,
}

impl Replies<'_> {
    /// Decodes `input` and answers each request it completes, or only the
    /// first one if `one` is set. Returns how many bytes of `input` it
    /// used, or, if the connection must close, how it ended.
    fn answer(&mut self, mut input: &[u8], one: bool) -> ControlFlow<io::Result<()>, usize> {
        let len = input.len();
        while !input.is_empty() {
            let (used, frame) = match self.decoder.advance(input) {
                Ok(step) => step,
                // A malformed frame leaves the stream unsynchronized;
                // report once and drop the connection rather than
                // guessing at the next frame boundary.
                Err(e) => return ControlFlow::Break(self.send(&Response::Err(e.to_string()))),
            };
            input = &input[used..];
            let Some(body) = frame else { continue };
            let response = match Request::decode(body) {
                Ok(request) => apply(self.db, request),
                Err(e) => Response::Err(e.to_string()),
            };
            if let Err(e) = self.send(&response) {
                return ControlFlow::Break(Err(e));
            }
            if matches!(response, Response::Err(_)) {
                return ControlFlow::Break(Ok(()));
            }
            self.served += 1;
            if one {
                break;
            }
        }
        ControlFlow::Continue(len - input.len())
    }

    /// Encodes and writes one response frame, flushing the buffered writer.
    fn send(&mut self, response: &Response) -> io::Result<()> {
        self.out.clear();
        response.encode(&mut self.out);
        write_frame(&mut self.writer, &self.out)?;
        self.writer.flush()
    }
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
    use crate::client::Client;
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
    fn the_acceptor_hands_off_before_serving() {
        // The thread that accepts A serves it; a successor must already be
        // accepting, or B waits for A to close.
        let mut config = ServerConfig::new(LockKind::BravoBa.spec());
        config.prepopulate = 16;
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let mut a = Client::connect(server.local_addr()).unwrap();
        a.ping().unwrap();
        let mut b = Client::connect(server.local_addr()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let pinger = std::thread::spawn(move || tx.send(b.ping().map(drop)));
        match rx.recv_timeout(Duration::from_secs(1)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("B's ping failed: {e}"),
            Err(_) => panic!("B's ping was not answered within 1 s while A idled"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.handlers_joined, 2, "{stats:?}");
        assert!(a.ping().is_err());
        pinger.join().unwrap().unwrap();
    }

    /// Pings over `client` on another thread and waits up to `within` for
    /// the answer.
    fn ping_within(mut client: Client, within: Duration, what: &str) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(client.ping().map(drop)));
        match rx.recv_timeout(within) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("{what}: ping failed: {e}"),
            Err(_) => panic!("{what}: ping was not answered within {within:?}"),
        }
    }

    #[test]
    fn a_silent_first_client_does_not_hold_up_the_next() {
        // A sends nothing, or only part of a frame, so its first read holds
        // no request: its thread must start the next acceptor before it
        // waits for A, or B waits for A to close.
        let mut ping = Vec::new();
        Request::Ping.encode(&mut ping);
        let mut frame = Vec::new();
        write_frame(&mut frame, &ping).unwrap();
        for sent in [0, 3] {
            let mut config = ServerConfig::new(LockKind::BravoBa.spec());
            config.prepopulate = 16;
            let server = Server::bind("127.0.0.1:0", config).unwrap();
            let mut a = TcpStream::connect(server.local_addr()).unwrap();
            a.write_all(&frame[..sent]).unwrap();
            let b = Client::connect(server.local_addr()).unwrap();
            ping_within(
                b,
                Duration::from_secs(1),
                &format!("B after A sent {sent} bytes"),
            );
            let stats = server.shutdown();
            assert_eq!(stats.handlers_joined, 2, "A sent {sent} bytes: {stats:?}");
        }
    }

    #[test]
    fn connections_that_close_unheard_still_hand_off() {
        // Each of these first reads meets EOF, not a request: the thread
        // must still start the next acceptor before it finds that out.
        let mut config = ServerConfig::new(LockKind::BravoBa.spec());
        config.prepopulate = 16;
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        for i in 0..64 {
            let conn = TcpStream::connect(server.local_addr());
            drop(conn.unwrap_or_else(|e| panic!("connection {i}: no acceptor took it: {e}")));
        }
        let last = Client::connect(server.local_addr()).unwrap();
        ping_within(last, Duration::from_secs(5), "the 65th connection");
        assert_eq!(server.connections_accepted(), 65);
        server.shutdown();
    }

    #[test]
    fn resolved_mux_workers_prefers_the_explicit_count() {
        let mut config = ServerConfig::new(LockKind::BravoBa.spec());
        assert!(config.resolved_mux_workers() >= 1);
        config.mux_workers = 3;
        assert_eq!(config.resolved_mux_workers(), 3);
    }
}
