//! The multiplexed `bravod` backend: many connections over a small fixed
//! worker pool.
//!
//! The threaded backend spends one OS thread per connection, which caps the
//! measurable reader population at whatever the host will schedule; this
//! backend puts accepted sockets into nonblocking mode and multiplexes them
//! over `workers` event loops instead, so the connection count is bounded
//! by file descriptors, not threads. Each worker owns one [`Poller`]
//! (level-triggered `epoll` on Linux, the portable scan fallback elsewhere
//! — see [`crate::sys`]), an intake queue the accept loop round-robins new
//! sockets onto, and the per-connection state: an incremental
//! [`FrameDecoder`] resumed on every readable event and a write buffer
//! drained whenever the socket (or a writable event) allows. A worker
//! blocks in its poller until a socket is ready or its next stall sweep
//! is due; the accept loop wakes it after queuing a socket, and shutdown
//! wakes it after raising the stop flag, so neither waits on a timer.
//!
//! Request handling is identical to the threaded backend — both call the
//! same `apply` on the shared [`Db`] — so a lock spec measured under
//! `--backend mux` at 256 connections is the *same lock* the threaded
//! backend measures at 8; only the serving discipline differs.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kvstore::Db;

use crate::protocol::{FrameDecoder, Request, Response, MAX_FRAME_LEN};
use crate::server::{apply, Backend, ShutdownStats, HANDLER_WRITE_TIMEOUT};
use crate::sys::{Event, Fd, Poller, Waker};

/// How often a worker sweeps its connections for peers whose buffered
/// output has made no progress past [`HANDLER_WRITE_TIMEOUT`]. The sweep
/// is O(connections), so it runs on a coarse clock rather than every
/// poller wake-up; the effective stall deadline is the timeout plus at
/// most one sweep interval. It is also the longest a worker blocks in its
/// poller.
const STALL_SWEEP_INTERVAL: Duration = Duration::from_millis(500);

/// Per-connection output high-water mark: once this much response data is
/// buffered, the worker stops *processing* new requests from that
/// connection until the peer drains some. The mark is re-checked before
/// every decoded frame (so one pipelined burst of expensive requests
/// overshoots by at most one frame), undecoded input is parked on the
/// connection, further bytes stay in the kernel's receive buffer, and read
/// interest is dropped so a level-triggered poller does not spin on them.
/// Four max-size frames is enough to pipeline scans without letting a
/// non-reading peer balloon the buffer.
const OUT_HIGH_WATER: usize = 4 * MAX_FRAME_LEN;

/// One multiplexed connection's state, owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    fd: Fd,
    decoder: FrameDecoder,
    /// Received-but-undecoded request bytes, carried across pumps when the
    /// high-water mark pauses request processing mid-chunk (bounded by one
    /// read's worth: the worker stops *reading* while any remain).
    inbuf: Vec<u8>,
    /// Encoded-but-unsent response bytes; `out_pos` marks the sent prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// The poller interest currently installed for this fd.
    want_read: bool,
    want_write: bool,
    /// Close once `out` drains (set after a protocol error is reported:
    /// the inbound stream is unsynchronized, so no more requests are read).
    closing: bool,
    /// When buffered output first stopped making progress (the peer is not
    /// reading). Cleared whenever a flush moves bytes or drains the
    /// buffer; a connection stalled past the write deadline is dropped by
    /// the worker's periodic sweep — the mux analogue of the threaded
    /// backend's socket write timeout.
    stalled_since: Option<Instant>,
    id: u64,
    served: u64,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether request processing is paused until the peer drains output.
    fn backpressured(&self) -> bool {
        self.pending_out() >= OUT_HIGH_WATER
    }
}

/// Why a worker dropped a connection (for `--verbose` logging).
enum Close {
    Eof,
    /// Protocol error already reported to the peer; stream unsynchronized.
    Desynchronized,
    Error(io::Error),
    Shutdown,
}

/// The event-driven backend; constructed by [`MuxBackend::bind`], driven
/// entirely by its accept and worker threads, torn down by `shutdown`.
pub struct MuxBackend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    intakes: Vec<Arc<Intake>>,
    connections: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<u64>>,
    stopped: bool,
}

/// What the accept loop shares with one worker: the queue of accepted
/// sockets waiting to be registered with that worker's poller, and the
/// waker that ends the worker's poller wait.
struct Intake {
    queue: Mutex<Vec<(u64, TcpStream)>>,
    waker: Waker,
}

impl MuxBackend {
    /// Binds the listener and starts the accept loop plus `workers` event
    /// loops over `db`. `scan_poller` forces the portable fallback poller
    /// even where `epoll` is available.
    pub fn bind(
        listener: TcpListener,
        db: Arc<Db>,
        workers: usize,
        scan_poller: bool,
        verbose: bool,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let workers_n = workers.max(1);
        let mut intakes = Vec::with_capacity(workers_n);
        let mut handles = Vec::with_capacity(workers_n);
        for worker in 0..workers_n {
            // Opened here, not in the worker, so bind reports poller
            // failures synchronously.
            let poller = Poller::new(scan_poller)?;
            let intake = Arc::new(Intake {
                queue: Mutex::new(Vec::new()),
                waker: poller.waker(),
            });
            intakes.push(Arc::clone(&intake));
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            if verbose && worker == 0 {
                eprintln!(
                    "bravod: mux backend: {workers_n} workers, {} poller",
                    poller.kind()
                );
            }
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bravod-mux{worker}"))
                    .spawn(move || worker_loop(poller, intake, db, stop, verbose))?,
            );
        }
        let accept_thread = {
            let intakes = intakes.clone();
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("bravod-accept".to_string())
                .spawn(move || accept_loop(listener, intakes, stop, connections))?
        };
        Ok(Self {
            addr,
            stop,
            intakes,
            connections,
            accept_thread: Some(accept_thread),
            workers: handles,
            stopped: false,
        })
    }
}

impl Backend for MuxBackend {
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
        // Workers check the stop flag before every wait, so one wake each
        // makes them return how many connections they tore down.
        for intake in &self.intakes {
            intake.waker.wake();
        }
        // Wake the blocking accept with a throwaway connection; if that
        // fails the listener is already dead and accept will error out.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let mut stats = ShutdownStats::default();
        for handle in self.workers.drain(..) {
            stats.workers_joined += 1;
            stats.connections_closed += handle.join().unwrap_or(0);
        }
        stats
    }
}

impl Drop for MuxBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    intakes: Vec<Arc<Intake>>,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
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
        if let Err(e) = stream.set_nonblocking(true) {
            eprintln!("bravod: connection {id}: cannot set nonblocking: {e}");
            continue;
        }
        let _ = stream.set_nodelay(true);
        // Round-robin placement. The worker drains its intake before
        // every wait, so the wake ends the wait it is in or skips the next.
        let intake = &intakes[(id % intakes.len() as u64) as usize];
        intake
            .queue
            .lock()
            .expect("mux intake poisoned")
            .push((id, stream));
        intake.waker.wake();
    }
}

/// One worker's event loop: register intake, wait for readiness, pump
/// connections. Returns the number of connections it tore down (for
/// [`ShutdownStats::connections_closed`]).
fn worker_loop(
    mut poller: Poller,
    intake: Arc<Intake>,
    db: Arc<Db>,
    stop: Arc<AtomicBool>,
    verbose: bool,
) -> u64 {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut closed = 0u64;
    let mut last_stall_sweep = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Register whatever the accept loop queued since the last pass.
        for (id, stream) in intake.queue.lock().expect("mux intake poisoned").drain(..) {
            let fd = stream_fd(&stream, id);
            let mut conn = Conn {
                stream,
                fd,
                decoder: FrameDecoder::new(),
                inbuf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                want_read: true,
                want_write: false,
                closing: false,
                stalled_since: None,
                id,
                served: 0,
            };
            if verbose {
                eprintln!("bravod: connection {id} open (mux)");
            }
            if let Err(e) = poller.register(fd, id) {
                eprintln!("bravod: connection {id}: cannot register with poller: {e}");
                continue;
            }
            // The socket may have become readable before registration on
            // edge cases of the scan poller; level-triggered epoll and the
            // every-tick scan both re-report, so a plain pump suffices.
            if let Some(close) = pump(&mut conn, &db, &mut scratch, &mut poller) {
                finish(&mut poller, conn, close, verbose);
                closed += 1;
            } else {
                conns.insert(id, conn);
            }
        }
        let until_sweep = STALL_SWEEP_INTERVAL.saturating_sub(last_stall_sweep.elapsed());
        if let Err(e) = poller.wait(&mut events, until_sweep) {
            eprintln!("bravod: poller wait failed: {e}");
            break;
        }
        for &(token, readiness) in events.iter() {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // Drain output first so a writable event can lift backpressure,
            // then pump: carried-over input, fresh reads, flush, interest.
            let close = if readiness.writable && conn.pending_out() > 0 {
                flush_out(conn).err().map(Close::Error)
            } else {
                None
            };
            let close = close.or_else(|| pump(conn, &db, &mut scratch, &mut poller));
            if let Some(close) = close {
                let conn = conns.remove(&token).expect("connection vanished");
                finish(&mut poller, conn, close, verbose);
                closed += 1;
            }
        }
        // Reclaim connections whose peer stopped reading: buffered output
        // that makes no progress past the write deadline means the peer
        // is gone for measurement purposes (the threaded backend's socket
        // write timeout drops the same peer).
        if last_stall_sweep.elapsed() >= STALL_SWEEP_INTERVAL {
            last_stall_sweep = Instant::now();
            let stalled: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    c.stalled_since
                        .is_some_and(|since| since.elapsed() >= HANDLER_WRITE_TIMEOUT)
                })
                .map(|(&token, _)| token)
                .collect();
            for token in stalled {
                let conn = conns.remove(&token).expect("stalled connection vanished");
                finish(
                    &mut poller,
                    conn,
                    Close::Error(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stopped reading buffered responses",
                    )),
                    verbose,
                );
                closed += 1;
            }
        }
    }
    // Shutdown: tear down every live connection plus any sockets the
    // accept loop queued but no pass registered.
    for (_, conn) in conns.drain() {
        finish(&mut poller, conn, Close::Shutdown, verbose);
        closed += 1;
    }
    for (id, _stream) in intake.queue.lock().expect("mux intake poisoned").drain(..) {
        if verbose {
            eprintln!("bravod: connection {id} closed before registration (shutdown)");
        }
        closed += 1;
    }
    closed
}

/// The raw handle the poller watches for this stream.
#[cfg(unix)]
fn stream_fd(stream: &TcpStream, _id: u64) -> Fd {
    use std::os::fd::AsRawFd as _;
    stream.as_raw_fd()
}

/// Off Unix the scan poller never dereferences the handle; the token works.
#[cfg(not(unix))]
fn stream_fd(_stream: &TcpStream, id: u64) -> Fd {
    id
}

/// One full service pass over a connection: process carried-over input,
/// read and process whatever the socket has, flush what the peer will
/// take, and re-sync poller interest. Returns `Some(reason)` when the
/// connection should be dropped.
fn pump(conn: &mut Conn, db: &Db, scratch: &mut [u8], poller: &mut Poller) -> Option<Close> {
    loop {
        // Input parked by an earlier high-water stop comes first — it will
        // not generate a readable event on its own.
        if !conn.inbuf.is_empty() && !conn.backpressured() && !conn.closing {
            let carried = std::mem::take(&mut conn.inbuf);
            let consumed = carried.len() - process_input(conn, db, &carried).len();
            if consumed == 0 {
                conn.inbuf = carried;
            } else {
                conn.inbuf.extend_from_slice(&carried[consumed..]);
            }
        }
        loop {
            // Backpressure: with responses piled up (or parked input still
            // queued), leave further requests in the kernel buffer until
            // the peer drains some. Read interest is dropped below, so a
            // level-triggered poller does not spin on the unread bytes.
            if conn.backpressured() || conn.closing || !conn.inbuf.is_empty() {
                break;
            }
            let n = match conn.stream.read(scratch) {
                Ok(0) => {
                    return Some(if conn.decoder.mid_frame() {
                        Close::Error(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid frame",
                        ))
                    } else {
                        Close::Eof
                    });
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(Close::Error(e)),
            };
            let rest = process_input(conn, db, &scratch[..n]);
            if !rest.is_empty() {
                // The high-water mark tripped mid-chunk: park the rest.
                conn.inbuf.extend_from_slice(rest);
            }
        }
        if let Err(e) = flush_out(conn) {
            return Some(Close::Error(e));
        }
        // If the flush freed output capacity while input is still parked,
        // go around again: no readiness event will announce bytes we have
        // already read, and leaving them parked with read interest off
        // (and nothing pending to trigger a writable event) would strand
        // the connection. Each round consumes parked input or refills the
        // output buffer, so this terminates.
        if !conn.inbuf.is_empty() && !conn.backpressured() && !conn.closing {
            continue;
        }
        break;
    }
    if conn.closing && conn.pending_out() == 0 {
        return Some(Close::Desynchronized);
    }
    if let Err(e) = sync_interest(conn, poller) {
        return Some(Close::Error(e));
    }
    None
}

/// Feeds `input` to the connection's decoder, applying complete requests,
/// until it is exhausted, the connection starts closing, or the output
/// high-water mark trips (re-checked per frame, so a single burst of
/// pipelined expensive requests cannot balloon the write buffer past one
/// frame over the mark). Returns the unprocessed remainder.
fn process_input<'a>(conn: &mut Conn, db: &Db, mut input: &'a [u8]) -> &'a [u8] {
    while !input.is_empty() && !conn.closing && !conn.backpressured() {
        match conn.decoder.advance(input) {
            Ok((used, frame)) => {
                if let Some(body) = frame {
                    let response = match Request::decode(body) {
                        Ok(request) => apply(db, request),
                        Err(e) => Response::Err(e.to_string()),
                    };
                    respond(conn, &response);
                }
                input = &input[used..];
            }
            Err(e) => {
                // Report once, then drain the error response and close:
                // the frame boundary is lost for good.
                respond(conn, &Response::Err(e.to_string()));
                conn.closing = true;
            }
        }
    }
    input
}

/// Installs the interest this connection's state implies: reads only while
/// it is accepting new requests, writes only while output is pending.
/// Error/hangup conditions are delivered regardless, so a peer vanishing
/// mid-backpressure still surfaces (as a failing flush).
fn sync_interest(conn: &mut Conn, poller: &mut Poller) -> io::Result<()> {
    let read = !conn.closing && !conn.backpressured() && conn.inbuf.is_empty();
    let write = conn.pending_out() > 0;
    if read != conn.want_read || write != conn.want_write {
        poller.set_interest(conn.fd, conn.id, read, write)?;
        conn.want_read = read;
        conn.want_write = write;
    }
    Ok(())
}

/// Encodes `response` as a frame at the tail of the connection's write
/// buffer, compacting the sent prefix first so the buffer cannot grow
/// without bound across partial writes. A protocol-level rejection also
/// marks the connection for close.
fn respond(conn: &mut Conn, response: &Response) {
    if conn.out_pos > 0 {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    let body_start = conn.out.len() + 4;
    conn.out.extend_from_slice(&[0; 4]);
    response.encode(&mut conn.out);
    let body_len = conn.out.len() - body_start;
    debug_assert!(body_len <= MAX_FRAME_LEN, "oversized outbound frame");
    conn.out[body_start - 4..body_start].copy_from_slice(&(body_len as u32).to_le_bytes());
    if matches!(response, Response::Err(_)) {
        conn.closing = true;
    } else {
        conn.served += 1;
    }
}

/// Writes as much buffered output as the socket accepts, keeping the
/// stall clock in sync: any byte of progress restarts it, a drained
/// buffer clears it. Poller interest is re-synced by the caller's
/// [`pump`] (via [`sync_interest`]).
fn flush_out(conn: &mut Conn) -> io::Result<()> {
    let mut wrote = false;
    while conn.pending_out() > 0 {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ))
            }
            Ok(n) => {
                conn.out_pos += n;
                wrote = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.pending_out() == 0 {
        conn.out.clear();
        conn.out_pos = 0;
        conn.stalled_since = None;
    } else if wrote || conn.stalled_since.is_none() {
        // Still blocked, but either fresh progress (restart the clock) or
        // the first blocked flush (start it).
        conn.stalled_since = Some(Instant::now());
    }
    Ok(())
}

/// Deregisters and drops one connection, logging the reason in verbose
/// mode.
fn finish(poller: &mut Poller, conn: Conn, close: Close, verbose: bool) {
    let _ = poller.deregister(conn.fd, conn.id);
    if verbose {
        let (id, served) = (conn.id, conn.served);
        match close {
            Close::Eof => eprintln!("bravod: connection {id} closed after {served} ops (mux)"),
            Close::Desynchronized => {
                eprintln!("bravod: connection {id} dropped after a protocol error ({served} ops)")
            }
            Close::Error(e) => {
                eprintln!("bravod: connection {id} aborted after {served} ops: {e}")
            }
            Close::Shutdown => {
                eprintln!("bravod: connection {id} closed by shutdown after {served} ops")
            }
        }
    }
}
