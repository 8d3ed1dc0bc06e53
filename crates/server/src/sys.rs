//! Readiness notification for the multiplexed backend: raw `epoll` on
//! Linux, a portable round-robin scan everywhere else.
//!
//! The foreign-function binding itself lives in [`bravo::sys::epoll`] — the
//! workspace's single raw-syscall seam — and this module is a *consumer*:
//! it owns the policy (what "readable" means, when write interest is
//! toggled) over the seam's thin `(token, bits)` events. Everything above
//! it speaks [`Poller`], which hides the choice:
//!
//! * [`Poller::Epoll`] (Linux only) — level-triggered `epoll`: one kernel
//!   object per worker, read interest always on, write interest toggled
//!   only while a connection has buffered output.
//! * [`Poller::Scan`] — the fallback: no kernel readiness at all. Every
//!   [`Poller::wait`] reports *every* registered token readable and
//!   writable (after a short tick so an idle pool does not spin), and the
//!   worker's nonblocking reads/writes discover the truth. O(connections)
//!   per tick instead of O(ready), but correct on any platform with
//!   nonblocking sockets — and selectable on Linux
//!   ([`crate::ServerConfig::mux_scan_poller`]) so the portable path stays
//!   tested.
//!
//! Either poller hands out a [`Waker`], which another thread uses to end
//! a [`Poller::wait`] early: the accept loop after queuing a socket, and
//! shutdown after raising the stop flag. So a worker need not poll its
//! intake or its stop flag on a timer.

use std::collections::HashSet;
use std::io;
#[cfg(target_os = "linux")]
use std::io::{Read as _, Write as _};
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;
#[cfg(target_os = "linux")]
use std::sync::Arc;
use std::time::Duration;

/// The raw socket handle the poller watches. On the scan poller the value
/// is never dereferenced, so non-Unix builds fall back to the token.
#[cfg(unix)]
pub type Fd = std::os::fd::RawFd;
/// The raw socket handle the poller watches (token-valued off Unix).
#[cfg(not(unix))]
pub type Fd = u64;

/// What a token is ready for, as reported by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// Data (or EOF, or a pending error) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room.
    pub writable: bool,
}

/// One readiness event: the token passed to [`Poller::register`] plus what
/// it is ready for.
pub type Event = (u64, Readiness);

/// A per-worker readiness source; see the module docs for the two flavours.
#[derive(Debug)]
pub enum Poller {
    /// Level-triggered `epoll` (Linux).
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    /// The portable fallback: report every registered token ready each tick.
    Scan(ScanPoller),
}

impl Poller {
    /// Opens the best poller available: `epoll` on Linux, the scan fallback
    /// elsewhere. `force_scan` selects the fallback even on Linux.
    pub fn new(force_scan: bool) -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        if !force_scan {
            return Ok(Poller::Epoll(EpollPoller::new()?));
        }
        let _ = force_scan;
        Ok(Poller::Scan(ScanPoller::default()))
    }

    /// A handle that ends this poller's current or next [`Poller::wait`]
    /// from any thread.
    pub fn waker(&self) -> Waker {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => Waker::Epoll(Arc::clone(&e.wake)),
            Poller::Scan(_) => Waker::Scan,
        }
    }

    /// Which implementation this is (`"epoll"` or `"scan"`), for logs.
    pub fn kind(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Scan(_) => "scan",
        }
    }

    /// Starts watching `fd`, delivering events tagged with `token`. Read
    /// interest is always on; write interest starts off.
    pub fn register(&mut self, fd: Fd, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.register(fd, token),
            Poller::Scan(s) => {
                s.tokens.insert(token);
                Ok(())
            }
        }
    }

    /// Replaces `fd`'s interest set. Dropping read interest is how a
    /// backpressured connection stops level-triggered readiness from
    /// busy-spinning the worker while unread request bytes sit in the
    /// kernel buffer; error/hangup conditions are still delivered. A no-op
    /// on the scan poller, which always reports everything ready (its tick
    /// clock bounds the cost instead).
    pub fn set_interest(&mut self, fd: Fd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.set_interest(fd, token, read, write),
            Poller::Scan(_) => {
                let _ = (fd, token, read, write);
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Must be called before the socket is closed.
    pub fn deregister(&mut self, fd: Fd, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.deregister(fd, token),
            Poller::Scan(s) => {
                s.tokens.remove(&token);
                Ok(())
            }
        }
    }

    /// Waits up to `timeout` for readiness, appending events to `events`
    /// (cleared first). May return empty on timeout, interruption or a
    /// [`Waker::wake`] — the caller's loop re-checks its stop flag and
    /// intake either way.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.wait(events, timeout),
            Poller::Scan(s) => {
                s.wait(events, timeout);
                Ok(())
            }
        }
    }
}

/// Ends a [`Poller::wait`] from another thread; see [`Poller::waker`].
#[derive(Debug, Clone)]
pub enum Waker {
    /// Writes a byte to the poller's wake socket.
    #[cfg(target_os = "linux")]
    Epoll(Arc<(UnixStream, UnixStream)>),
    /// Nothing to do: a scan wait never sleeps past one tick.
    Scan,
}

impl Waker {
    /// Makes the poller's current wait return, or its next one return at
    /// once. Wakes are not counted: several before one wait end only it.
    pub fn wake(&self) {
        match self {
            #[cfg(target_os = "linux")]
            Waker::Epoll(pair) => {
                // A full socket buffer (`WouldBlock`) already holds a wake.
                let _ = (&pair.0).write(&[1]);
            }
            Waker::Scan => {}
        }
    }
}

/// The portable fallback poller: a token set and a tick clock. See the
/// module docs for the trade-off.
#[derive(Debug, Default)]
pub struct ScanPoller {
    tokens: HashSet<u64>,
    /// Rotates each wait so no connection is permanently served first.
    rotation: usize,
}

impl ScanPoller {
    /// How long one idle tick lasts: long enough that an idle pool does not
    /// burn a core, short enough that request latency stays in the noise
    /// for the open-loop generator's millisecond-scale intervals. A wait
    /// never sleeps longer, with or without tokens, so a worker sees a new
    /// connection or the stop flag within one tick.
    const TICK: Duration = Duration::from_millis(1);

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) {
        std::thread::sleep(Self::TICK.min(timeout));
        if self.tokens.is_empty() {
            return;
        }
        let ready = Readiness {
            readable: true,
            writable: true,
        };
        let mut tokens: Vec<u64> = self.tokens.iter().copied().collect();
        tokens.sort_unstable();
        self.rotation = (self.rotation + 1) % tokens.len().max(1);
        let (tail, head) = tokens.split_at(self.rotation);
        events.extend(head.iter().chain(tail).map(|&t| (t, ready)));
    }
}

/// The `epoll` consumer: interest-mask policy and bit-to-[`Readiness`]
/// translation over the raw binding in [`bravo::sys::epoll`].
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct EpollPoller {
    epoll: bravo::sys::epoll::Epoll,
    /// Scratch buffer for the seam's raw `(token, bits)` events.
    raw: Vec<bravo::sys::epoll::RawEvent>,
    /// The wake socket pair, (send end, receive end), both nonblocking.
    /// The receive end is registered under [`Self::WAKE_TOKEN`]. Wakers
    /// share the pair, so a wake after the worker has gone writes to an
    /// open socket, not a closed one.
    wake: Arc<(UnixStream, UnixStream)>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// The token of the wake socket's events. Connection tokens count up
    /// from 0 and never reach it.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// The event mask a registered connection always watches: readable
    /// data plus peer-hangup/error conditions (reported as readable so the
    /// next `read` surfaces the EOF or error).
    fn read_events() -> u32 {
        use bravo::sys::epoll::{EPOLLIN, EPOLLRDHUP};
        EPOLLIN | EPOLLRDHUP
    }

    fn new() -> io::Result<Self> {
        use std::os::fd::AsRawFd as _;
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let epoll = bravo::sys::epoll::Epoll::new()?;
        epoll.ctl(
            bravo::sys::epoll::CTL_ADD,
            rx.as_raw_fd(),
            bravo::sys::epoll::EPOLLIN,
            Self::WAKE_TOKEN,
        )?;
        Ok(Self {
            epoll,
            raw: Vec::new(),
            wake: Arc::new((tx, rx)),
        })
    }

    fn register(&mut self, fd: Fd, token: u64) -> io::Result<()> {
        debug_assert_ne!(token, Self::WAKE_TOKEN, "token reserved for wakes");
        self.epoll
            .ctl(bravo::sys::epoll::CTL_ADD, fd, Self::read_events(), token)
    }

    fn set_interest(&mut self, fd: Fd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut events = 0;
        if read {
            events |= Self::read_events();
        }
        if write {
            events |= bravo::sys::epoll::EPOLLOUT;
        }
        self.epoll
            .ctl(bravo::sys::epoll::CTL_MOD, fd, events, token)
    }

    fn deregister(&mut self, fd: Fd, token: u64) -> io::Result<()> {
        self.epoll.ctl(bravo::sys::epoll::CTL_DEL, fd, 0, token)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        use bravo::sys::epoll::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
        self.raw.clear();
        self.epoll.wait(&mut self.raw, timeout)?;
        for &(token, bits) in &self.raw {
            if token == Self::WAKE_TOKEN {
                // Drain every pending wake so the level-triggered socket
                // stops reporting; a wake sent after this is seen by the
                // next wait.
                let mut sink = [0u8; 64];
                while matches!((&self.wake.1).read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            out.push((
                token,
                Readiness {
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                },
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_poller_reports_every_token_and_rotates() {
        let mut poller = Poller::new(true).unwrap();
        assert_eq!(poller.kind(), "scan");
        poller.register(0, 10).unwrap();
        poller.register(0, 11).unwrap();
        poller.register(0, 12).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        let mut tokens: Vec<u64> = events.iter().map(|(t, _)| *t).collect();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|(_, r)| r.readable && r.writable));
        let first_head = tokens[0];
        tokens.sort_unstable();
        assert_eq!(tokens, vec![10, 11, 12]);
        // The next tick starts from a different token (round-robin).
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert_ne!(events[0].0, first_head);
        // Deregistered tokens stop being reported.
        poller.deregister(0, 11).unwrap();
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert_eq!(events.len(), 2);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_sees_loopback_readiness() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd as _;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();

        let mut poller = Poller::new(false).unwrap();
        assert_eq!(poller.kind(), "epoll");
        poller.register(sock.as_raw_fd(), 7).unwrap();

        // Nothing to read yet: a short wait returns no read event.
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.iter().all(|(_, r)| !r.readable));

        peer.write_all(b"hi").unwrap();
        peer.flush().unwrap();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert!(
            events.iter().any(|&(t, r)| t == 7 && r.readable),
            "no readable event after a write: {events:?}"
        );

        // Write interest surfaces writability on an idle socket.
        poller
            .set_interest(sock.as_raw_fd(), 7, true, true)
            .unwrap();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert!(events.iter().any(|&(t, r)| t == 7 && r.writable));

        // Dropping read interest silences readable events even with unread
        // bytes in the kernel buffer (the backpressure case).
        peer.write_all(b"more").unwrap();
        peer.flush().unwrap();
        poller
            .set_interest(sock.as_raw_fd(), 7, false, false)
            .unwrap();
        poller.wait(&mut events, Duration::from_millis(50)).unwrap();
        assert!(
            events.iter().all(|&(t, r)| t != 7 || !r.readable),
            "readable event delivered with read interest off: {events:?}"
        );
        poller.deregister(sock.as_raw_fd(), 7).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_waker_ends_a_wait_without_an_event() {
        use std::time::Instant;

        let mut poller = Poller::new(false).unwrap();
        let waker = poller.waker();
        let mut events = Vec::new();
        // Wakes before a wait end that wait at once, however many there
        // were, and leave nothing behind for the next one.
        for _ in 0..3 {
            waker.wake();
        }
        let begin = Instant::now();
        poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(events.is_empty(), "the wake surfaced as {events:?}");
        assert!(begin.elapsed() < Duration::from_secs(5));
        let begin = Instant::now();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.is_empty());
        assert!(
            begin.elapsed() >= Duration::from_millis(10),
            "a drained wake ended the next wait too"
        );
        // A wake from another thread ends the wait, whether it lands
        // before the wait starts or during it.
        let begin = Instant::now();
        let waking = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(events.is_empty());
        assert!(begin.elapsed() < Duration::from_secs(5));
        waking.join().unwrap();
    }
}
