//! The raw-syscall seam: every foreign function the workspace calls lives
//! here, in one audited module, so the `unsafe` surface has a single owner.
//!
//! The build environment has no crates.io access, so there is no `libc` to
//! lean on; instead this module declares the handful of entry points itself
//! (`std` already links the C library that provides them) and exposes safe
//! wrappers:
//!
//! * [`futex`] — the Linux `futex(2)` wait/wake pair the blocking layer's
//!   futex backend ([`crate::wait::FutexEventCount`]) packs its wake
//!   generation into. Compiles to honest stubs (with [`futex::NATIVE`]
//!   `false`) on targets without the syscall, so callers can gate on it and
//!   fall back to the eventcount's portable sleep.
//! * [`epoll`] — the level-triggered readiness binding the `server` crate's
//!   mux poller consumes. It used to live in `server::sys`; it moved here so
//!   the server is a *consumer* of the syscall seam, not a second owner.
//! * [`mem`] — zeroed anonymous memory on transparent huge pages
//!   (`mmap`/`madvise`/`munmap`), handed out as a safe `[u64]` region; the
//!   `kvstore` memtable's flat table lives in it. Falls back to the global
//!   allocator (with [`mem::NATIVE`] `false`) on targets without `mmap`.
//!
//! The `schedcheck lint` hard gate enforces single ownership: raw
//! `syscall(`/`SYS_futex` invocations and `extern "C"` blocks outside this
//! file are build failures.

/// Linux `futex(2)`: wait on and wake a 32-bit word in shared memory.
///
/// Only the two operations the blocking layer needs are bound, always with
/// `FUTEX_PRIVATE_FLAG` (the words are process-local). On targets where the
/// raw syscall is not bound, [`futex::NATIVE`] is `false` and the entry
/// points panic — callers must gate on it and use the portable fallback.
pub mod futex {
    pub use imp::NATIVE;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    /// Why a [`wait`] call returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WaitOutcome {
        /// The kernel put the thread to sleep and a wake (or a spurious
        /// return) ended it. The caller must re-check its condition.
        Woken,
        /// The word no longer held `expected` at the kernel's atomic check
        /// (`EAGAIN`): a wake raced ahead of the sleep. Re-check and retry.
        Stale,
        /// The relative timeout expired (`ETIMEDOUT`).
        TimedOut,
        /// A signal interrupted the sleep (`EINTR`). Re-check and retry.
        Interrupted,
    }

    /// Sleeps until `word` is woken, if it still holds `expected` at the
    /// kernel's atomic check. `timeout` is relative; `None` waits forever.
    pub fn wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> WaitOutcome {
        imp::wait(word, expected, timeout)
    }

    /// Wakes up to `n` threads sleeping on `word`. Returns how many woke.
    pub fn wake(word: &AtomicU32, n: u32) -> usize {
        imp::wake(word, n)
    }

    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))]
    mod imp {
        use super::WaitOutcome;
        use std::os::raw::c_long;
        use std::sync::atomic::AtomicU32;
        use std::time::Duration;

        /// The raw syscall is bound on this target.
        pub const NATIVE: bool = true;

        #[cfg(target_arch = "x86_64")]
        const SYS_FUTEX: c_long = 202;
        #[cfg(any(target_arch = "aarch64", target_arch = "riscv64"))]
        const SYS_FUTEX: c_long = 98;

        const FUTEX_WAIT: c_long = 0;
        const FUTEX_WAKE: c_long = 1;
        /// The word is process-private: skips the cross-process hash walk.
        const FUTEX_PRIVATE_FLAG: c_long = 128;

        const EINTR: i32 = 4;
        const EAGAIN: i32 = 11;
        const ETIMEDOUT: i32 = 110;

        /// `struct timespec` on 64-bit Linux: both fields are 64-bit.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }

        // `std` already links the C library that provides the generic
        // syscall trampoline; declaring it here substitutes for the `libc`
        // crate the offline build cannot fetch.
        extern "C" {
            fn syscall(num: c_long, ...) -> c_long;
        }

        pub fn wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> WaitOutcome {
            let ts = timeout.map(|d| Timespec {
                tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
                tv_nsec: i64::from(d.subsec_nanos()),
            });
            let ts_ptr = ts
                .as_ref()
                .map_or(std::ptr::null(), |t| t as *const Timespec);
            // SAFETY: FUTEX_WAIT reads the u32 at `word` atomically and the
            // timespec (if any) for the duration of the call; both outlive
            // it. The kernel keeps no reference past return.
            let rc = unsafe {
                syscall(
                    SYS_FUTEX,
                    word.as_ptr(),
                    FUTEX_WAIT | FUTEX_PRIVATE_FLAG,
                    c_long::from(expected),
                    ts_ptr,
                )
            };
            if rc == 0 {
                return WaitOutcome::Woken;
            }
            match std::io::Error::last_os_error().raw_os_error() {
                Some(EAGAIN) => WaitOutcome::Stale,
                Some(ETIMEDOUT) => WaitOutcome::TimedOut,
                Some(EINTR) => WaitOutcome::Interrupted,
                // Anything else (EFAULT/EINVAL cannot happen for an aligned
                // live word): report Woken so the caller re-checks and
                // retries rather than spinning on a stale distinction.
                _ => WaitOutcome::Woken,
            }
        }

        pub fn wake(word: &AtomicU32, n: u32) -> usize {
            // The kernel takes the wake count as a *signed* int: u32::MAX
            // would arrive as -1 and wake a single thread, silently turning
            // wake-all into wake-one (a lost wakeup for every other
            // sleeper). Clamp to i32::MAX, the conventional "all" value.
            let n = n.min(i32::MAX as u32);
            // SAFETY: FUTEX_WAKE only reads the word's address as a key; no
            // user memory is accessed beyond the word itself.
            let rc = unsafe {
                syscall(
                    SYS_FUTEX,
                    word.as_ptr(),
                    FUTEX_WAKE | FUTEX_PRIVATE_FLAG,
                    c_long::from(n),
                )
            };
            if rc < 0 {
                0
            } else {
                rc as usize
            }
        }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    )))]
    mod imp {
        use super::WaitOutcome;
        use std::sync::atomic::AtomicU32;
        use std::time::Duration;

        /// The raw syscall is not bound on this target; callers must gate
        /// on this and take the portable sleep.
        pub const NATIVE: bool = false;

        pub fn wait(_word: &AtomicU32, _expected: u32, _timeout: Option<Duration>) -> WaitOutcome {
            unreachable!("futex::wait on a target without the syscall; gate on futex::NATIVE")
        }

        pub fn wake(_word: &AtomicU32, _n: u32) -> usize {
            unreachable!("futex::wake on a target without the syscall; gate on futex::NATIVE")
        }
    }
}

/// The Linux `epoll` binding: three foreign functions, one RAII wrapper.
///
/// Deliberately thin: events are raw `(token, bits)` pairs and interest
/// masks are the kernel's bit constants, so policy (what "readable" means,
/// when to watch for writability) stays with the consumer — the `server`
/// crate's `Poller`.
#[cfg(target_os = "linux")]
pub mod epoll {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    /// `EPOLL_CTL_ADD`: start watching a descriptor.
    pub const CTL_ADD: c_int = 1;
    /// `EPOLL_CTL_DEL`: stop watching a descriptor.
    pub const CTL_DEL: c_int = 2;
    /// `EPOLL_CTL_MOD`: replace a descriptor's interest set.
    pub const CTL_MOD: c_int = 3;

    /// Readable data available.
    pub const EPOLLIN: u32 = 0x001;
    /// Send buffer has room.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition pending (always delivered).
    pub const EPOLLERR: u32 = 0x008;
    /// Hangup (always delivered).
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer closed its write half.
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// One raw readiness event: the registration token plus the kernel's
    /// event bits (`EPOLLIN | ...`).
    pub type RawEvent = (u64, u32);

    /// `struct epoll_event` from the kernel ABI; packed on x86-64 only,
    /// exactly as `<sys/epoll.h>` declares it.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // These live in the C library `std` already links; declaring them here
    // substitutes for the `libc` crate the offline build cannot fetch.
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// An owned `epoll` instance (closed on drop).
    #[derive(Debug)]
    pub struct Epoll {
        epfd: RawFd,
    }

    impl Epoll {
        /// Creates a close-on-exec `epoll` instance.
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes a flags word and returns a new
            // descriptor or -1; no pointers are involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        /// Applies `op` (one of [`CTL_ADD`]/[`CTL_MOD`]/[`CTL_DEL`]) to
        /// `fd` with the given interest `events`, tagging deliveries with
        /// `token`.
        pub fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `event` is a valid epoll_event for the duration of
            // the call; the kernel copies it and keeps no reference.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Waits up to `timeout` for readiness, appending raw events to
        /// `out`. A signal delivery is not a failure: it returns with no
        /// events appended.
        pub fn wait(&self, out: &mut Vec<RawEvent>, timeout: Duration) -> io::Result<()> {
            const MAX_EVENTS: usize = 128;
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
            // SAFETY: `events` is a writable buffer of MAX_EVENTS entries
            // and the kernel writes at most `maxevents` of them.
            let n =
                unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), MAX_EVENTS as c_int, millis) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for event in &events[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (event.events, event.data);
                out.push((token, bits));
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a descriptor this struct owns exclusively.
            unsafe { close(self.epfd) };
        }
    }
}

/// Zeroed memory for tables: large ones on transparent huge pages, faulted
/// in ahead of use.
///
/// A [`mem::Region`] is a zeroed `[u64]` that frees itself on drop. One of
/// at least [`mem::HUGE_PAGE`] bytes is, on Linux, an anonymous mapping of
/// its own advised `MADV_HUGEPAGE`, so it sits on 2 MiB pages even where
/// the host's THP mode is `madvise`, and [`mem::Region::populate`] faults
/// any part of it in with one `MADV_POPULATE_WRITE` instead of one fault
/// per 4 KiB page. A kernel that knows neither advice answers `EINVAL`,
/// which is ignored: the region is then ordinary, lazily faulted memory. A
/// smaller region, and every region on a target without the binding
/// ([`mem::NATIVE`] `false`), comes from [`std::alloc::alloc_zeroed`],
/// which recycles small blocks without faulting them in again; `populate`
/// leaves it alone.
pub mod mem {
    pub use imp::NATIVE;
    use std::alloc::{alloc_zeroed, dealloc, Layout};
    use std::io;
    use std::ops::{Deref, DerefMut, Range};
    use std::ptr::NonNull;

    /// The smallest region that gets a mapping of its own: one huge page.
    pub const HUGE_PAGE: usize = 2 << 20;

    /// An owned, zeroed, word-aligned run of `u64`s; freed on drop.
    #[derive(Debug)]
    pub struct Region {
        ptr: NonNull<u64>,
        words: usize,
    }

    // SAFETY: a Region exclusively owns its memory, like a `Box<[u64]>`;
    // `&Region` only hands out shared `&[u64]` views.
    unsafe impl Send for Region {}
    // SAFETY: see above.
    unsafe impl Sync for Region {}

    /// Whether a region of `bytes` is mapped on its own (else it comes
    /// from the allocator).
    fn mapped(bytes: usize) -> bool {
        NATIVE && bytes >= HUGE_PAGE
    }

    fn layout(bytes: usize) -> io::Result<Layout> {
        Layout::from_size_align(bytes, 8).map_err(|_| io::Error::from(io::ErrorKind::OutOfMemory))
    }

    impl Region {
        /// Allocates `words` zeroed words. Fails with
        /// [`io::ErrorKind::OutOfMemory`] (or the kernel's `ENOMEM`) if the
        /// memory cannot be had, never by aborting.
        pub fn zeroed(words: usize) -> io::Result<Self> {
            if words == 0 {
                return Ok(Self {
                    ptr: NonNull::dangling(),
                    words: 0,
                });
            }
            let bytes = words
                .checked_mul(8)
                .ok_or_else(|| io::Error::from(io::ErrorKind::OutOfMemory))?;
            let layout = layout(bytes)?;
            let ptr = if mapped(bytes) {
                imp::map(bytes)?
            } else {
                // SAFETY: `layout` has a nonzero size.
                let ptr = unsafe { alloc_zeroed(layout) };
                NonNull::new(ptr.cast::<u64>())
                    .ok_or_else(|| io::Error::from(io::ErrorKind::OutOfMemory))?
            };
            Ok(Self { ptr, words })
        }

        /// Faults the pages holding `words` of a mapped region in now,
        /// writable, so the first touch of each costs no fault later; does
        /// nothing to a region from the allocator. Fails only if the kernel
        /// runs out of memory doing so.
        ///
        /// The kernel faults whole pages: a huge page is populated whole
        /// once any word of it is asked for, and the calling core zeroes
        /// it, so its words are likely in that core's cache afterwards.
        ///
        /// # Panics
        ///
        /// If `words` is not within the region.
        pub fn populate(&mut self, words: Range<usize>) -> io::Result<()> {
            assert!(
                words.start <= words.end && words.end <= self.words,
                "populate {words:?} of a {}-word region",
                self.words
            );
            if words.is_empty() || !mapped(self.words * 8) {
                return Ok(());
            }
            // `madvise` takes whole pages; the mapping covers whole pages.
            const PAGE: usize = 4096;
            let start = words.start * 8 / PAGE * PAGE;
            let end = (words.end * 8).div_ceil(PAGE) * PAGE;
            // SAFETY: `start` is below the region's byte length, so the
            // offset stays inside its mapping.
            let base = unsafe { self.ptr.as_ptr().cast::<u8>().add(start) };
            imp::populate(base, end - start)
        }
    }

    impl Deref for Region {
        type Target = [u64];

        fn deref(&self) -> &[u64] {
            // SAFETY: `ptr` points to `words` zero-initialised, aligned
            // u64s this Region owns (or is dangling with `words == 0`).
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.words) }
        }
    }

    impl DerefMut for Region {
        fn deref_mut(&mut self) -> &mut [u64] {
            // SAFETY: as in `deref`, and `&mut self` makes the view unique.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.words) }
        }
    }

    impl Drop for Region {
        fn drop(&mut self) {
            let bytes = self.words * 8;
            if bytes == 0 {
                return;
            }
            if mapped(bytes) {
                // SAFETY: `ptr` came from `imp::map` with exactly this
                // length, and no view of it outlives `self`.
                unsafe { imp::unmap(self.ptr, bytes) };
            } else {
                // SAFETY: `ptr` came from `alloc_zeroed` with this layout,
                // which `zeroed` checked, and no view of it outlives `self`.
                unsafe {
                    dealloc(
                        self.ptr.as_ptr().cast(),
                        Layout::from_size_align_unchecked(bytes, 8),
                    )
                };
            }
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))]
    mod imp {
        use std::io;
        use std::os::raw::{c_int, c_void};
        use std::ptr::NonNull;

        /// Anonymous mappings and both advices are bound on this target.
        pub const NATIVE: bool = true;

        const PROT_READ: c_int = 1;
        const PROT_WRITE: c_int = 2;
        const MAP_PRIVATE: c_int = 0x02;
        const MAP_ANONYMOUS: c_int = 0x20;
        const MADV_HUGEPAGE: c_int = 14;
        const MADV_POPULATE_WRITE: c_int = 23;
        const EINVAL: i32 = 22;

        // These live in the C library `std` already links; declaring them
        // here substitutes for the `libc` crate the offline build cannot
        // fetch.
        extern "C" {
            fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
            fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }

        /// `madvise`, with `EINVAL` (an advice this kernel does not know)
        /// counted as success.
        fn advise(ptr: *mut c_void, bytes: usize, advice: c_int) -> io::Result<()> {
            // SAFETY: both advices only change how the kernel backs the
            // mapped range `ptr..ptr + bytes`, which the caller owns;
            // neither changes its contents.
            if unsafe { madvise(ptr, bytes, advice) } == 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            match e.raw_os_error() {
                Some(EINVAL) => Ok(()),
                _ => Err(e),
            }
        }

        pub fn map(bytes: usize) -> io::Result<NonNull<u64>> {
            // SAFETY: a fresh private anonymous mapping aliases nothing;
            // the kernel returns zeroed, page-aligned memory or MAP_FAILED.
            let addr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    bytes,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if addr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            let ptr = NonNull::new(addr.cast::<u64>())
                .ok_or_else(|| io::Error::from(io::ErrorKind::OutOfMemory))?;
            if let Err(e) = advise(addr, bytes, MADV_HUGEPAGE) {
                // SAFETY: the mapping was made above and is not shared yet.
                unsafe { unmap(ptr, bytes) };
                return Err(e);
            }
            Ok(ptr)
        }

        pub fn populate(ptr: *mut u8, bytes: usize) -> io::Result<()> {
            advise(ptr.cast(), bytes, MADV_POPULATE_WRITE)
        }

        /// # Safety
        ///
        /// `ptr..ptr + bytes` must be a whole mapping made by [`map`] that
        /// nothing references any more.
        pub unsafe fn unmap(ptr: NonNull<u64>, bytes: usize) {
            // Nothing useful can be done if unmapping fails; the range
            // leaks.
            munmap(ptr.as_ptr().cast(), bytes);
        }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    )))]
    mod imp {
        use std::io;
        use std::ptr::NonNull;

        /// No mapping binding on this target: every region comes from the
        /// allocator, so the entry points below are never called.
        pub const NATIVE: bool = false;

        pub fn map(_bytes: usize) -> io::Result<NonNull<u64>> {
            unreachable!("mem::map on a target without mmap; gate on mem::NATIVE")
        }

        pub fn populate(_ptr: *mut u8, _bytes: usize) -> io::Result<()> {
            unreachable!("mem::populate on a target without mmap; gate on mem::NATIVE")
        }

        /// # Safety
        ///
        /// Never called; see [`NATIVE`].
        pub unsafe fn unmap(_ptr: NonNull<u64>, _bytes: usize) {
            unreachable!("mem::unmap on a target without mmap; gate on mem::NATIVE")
        }
    }
}

#[cfg(test)]
mod tests {
    mod mem {
        use super::super::mem::{Region, HUGE_PAGE};

        #[test]
        fn regions_are_zeroed_writable_and_populatable() {
            // One from the allocator, one mapped on its own.
            for words in [1000, HUGE_PAGE / 8 * 2 + 3] {
                let mut region = Region::zeroed(words).unwrap();
                assert_eq!(region.len(), words);
                region.populate(1..words).unwrap();
                region.populate(0..0).unwrap();
                assert!(region.iter().all(|&w| w == 0));
                region[0] = 1;
                region[words - 1] = 2;
                assert_eq!((region[0], region[words - 1]), (1, 2));
            }
            assert!(Region::zeroed(0).unwrap().is_empty());
        }

        #[test]
        fn an_impossible_region_is_an_error_not_an_abort() {
            assert!(Region::zeroed(usize::MAX).is_err());
            assert!(Region::zeroed(1 << 60).is_err());
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))]
    mod futex_native {
        use super::super::futex::{self, WaitOutcome};
        use std::sync::atomic::AtomicU32;
        use std::sync::Arc;
        use std::time::Duration;

        #[test]
        fn stale_expected_value_returns_immediately() {
            let word = AtomicU32::new(7);
            assert_eq!(
                futex::wait(&word, 6, Some(Duration::from_secs(5))),
                WaitOutcome::Stale
            );
        }

        #[test]
        fn timeout_fires_when_nobody_wakes() {
            let word = AtomicU32::new(0);
            assert_eq!(
                futex::wait(&word, 0, Some(Duration::from_millis(10))),
                WaitOutcome::TimedOut
            );
        }

        #[test]
        fn wake_rouses_a_sleeping_waiter() {
            use std::sync::atomic::Ordering;
            let word = Arc::new(AtomicU32::new(0));
            let waiter = {
                let word = Arc::clone(&word);
                std::thread::spawn(move || loop {
                    let g = word.load(Ordering::SeqCst);
                    if g != 0 {
                        return;
                    }
                    futex::wait(&word, g, Some(Duration::from_secs(10)));
                })
            };
            std::thread::sleep(Duration::from_millis(20));
            word.store(1, std::sync::atomic::Ordering::SeqCst);
            futex::wake(&word, u32::MAX);
            waiter.join().expect("waiter wedged: wake not delivered");
        }

        #[test]
        fn wake_with_no_sleepers_reports_zero() {
            let word = AtomicU32::new(0);
            assert_eq!(futex::wake(&word, u32::MAX), 0);
        }

        /// Regression: the kernel reads the wake count as a *signed* int, so
        /// an unclamped `u32::MAX` arrives as -1 and wakes exactly one
        /// sleeper. With several threads asleep that is a lost wakeup for
        /// all but one of them — this pins the wake-all clamp.
        #[test]
        fn wake_all_rouses_every_sleeper_not_just_one() {
            use std::sync::atomic::Ordering;
            let word = Arc::new(AtomicU32::new(0));
            let waiters: Vec<_> = (0..4)
                .map(|_| {
                    let word = Arc::clone(&word);
                    std::thread::spawn(move || loop {
                        let g = word.load(Ordering::SeqCst);
                        if g != 0 {
                            return;
                        }
                        futex::wait(&word, g, Some(Duration::from_secs(10)));
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(50));
            word.store(1, Ordering::SeqCst);
            futex::wake(&word, u32::MAX);
            for w in waiters {
                w.join().expect("a sleeper missed the wake-all");
            }
        }
    }
}
