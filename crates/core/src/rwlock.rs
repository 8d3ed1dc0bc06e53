//! The data-carrying, RAII-guard form of a BRAVO lock.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use crate::lock::BravoLock;
use crate::policy::BiasPolicy;
use crate::raw::{AnonymousReaders, DefaultRwLock, RawTryRwLock};
use crate::vrt::TableHandle;

/// A reader-writer lock protecting a value of type `T`, accelerated by the
/// BRAVO transformation over the underlying raw lock `L`.
///
/// This is the type most applications should use; it mirrors
/// [`std::sync::RwLock`] but without poisoning, and with the read path taking
/// the BRAVO fast path whenever reader bias is enabled.
///
/// # Examples
///
/// ```
/// use bravo::BravoRwLock;
///
/// let cache: BravoRwLock<Vec<&str>> = BravoRwLock::new(vec!["a"]);
/// assert_eq!(cache.read().len(), 1);
/// cache.write().push("b");
/// assert_eq!(cache.read().len(), 2);
/// ```
pub struct BravoRwLock<T: ?Sized, L: AnonymousReaders = DefaultRwLock> {
    raw: BravoLock<L>,
    data: UnsafeCell<T>,
}

// SAFETY: the lock provides the required synchronization — shared access only
// while read permission is held, unique access only while write permission is
// held — so sending/sharing the lock across threads is sound whenever the
// protected value itself may be sent.
unsafe impl<T: ?Sized + Send, L: AnonymousReaders> Send for BravoRwLock<T, L> {}
// SAFETY: readers on different threads may observe `&T` concurrently, so `T`
// must additionally be `Sync`.
unsafe impl<T: ?Sized + Send + Sync, L: AnonymousReaders> Sync for BravoRwLock<T, L> {}

impl<T, L: AnonymousReaders> BravoRwLock<T, L> {
    /// Creates a lock protecting `value`, using the global visible readers
    /// table and the paper's default bias policy.
    pub fn new(value: T) -> Self {
        Self {
            raw: BravoLock::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Creates a lock with an explicit underlying lock, table handle and
    /// bias policy.
    pub fn with_parts(value: T, underlying: L, table: TableHandle, policy: BiasPolicy) -> Self {
        Self {
            raw: BravoLock::with_parts(underlying, table, policy),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, L: AnonymousReaders> BravoRwLock<T, L> {
    /// Acquires shared (read) access, blocking until it is granted.
    pub fn read(&self) -> BravoReadGuard<'_, T, L> {
        BravoReadGuard::new(self, self.raw.read_lock())
    }

    /// Acquires exclusive (write) access, blocking until it is granted.
    pub fn write(&self) -> BravoWriteGuard<'_, T, L> {
        self.raw.write_lock();
        BravoWriteGuard { lock: self }
    }

    /// Mutable access without locking; safe because `&mut self` proves there
    /// are no other users.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The raw BRAVO lock underneath (for statistics and tests).
    pub fn raw(&self) -> &BravoLock<L> {
        &self.raw
    }
}

impl<T: ?Sized, L: AnonymousReaders + RawTryRwLock> BravoRwLock<T, L> {
    /// Attempts to acquire shared access without blocking. Requires the
    /// underlying lock to provide a non-blocking read path
    /// ([`RawTryRwLock`]).
    pub fn try_read(&self) -> Option<BravoReadGuard<'_, T, L>> {
        self.raw
            .try_read_lock()
            .map(|fast| BravoReadGuard::new(self, fast))
    }

    /// Attempts to acquire exclusive access without blocking. Requires the
    /// underlying lock to provide a non-blocking write path
    /// ([`RawTryRwLock`]).
    pub fn try_write(&self) -> Option<BravoWriteGuard<'_, T, L>> {
        if self.raw.try_write_lock() {
            Some(BravoWriteGuard { lock: self })
        } else {
            None
        }
    }
}

impl<T: Default, L: AnonymousReaders> Default for BravoRwLock<T, L> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug, L: AnonymousReaders + RawTryRwLock> fmt::Debug for BravoRwLock<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f
                .debug_struct("BravoRwLock")
                .field("data", &&*guard)
                .finish(),
            None => f
                .debug_struct("BravoRwLock")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// RAII guard granting shared access to the data of a [`BravoRwLock`].
///
/// The guard is not [`Send`]: the read is released on drop by re-deriving
/// the calling thread's table slot, so the thread that acquired it must
/// drop it.
///
/// ```compile_fail,E0277
/// let lock = bravo::BravoRwLock::<u32>::new(0);
/// let guard = lock.read();
/// std::thread::scope(|s| {
///     s.spawn(move || drop(guard));
/// });
/// ```
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct BravoReadGuard<'a, T: ?Sized, L: AnonymousReaders = DefaultRwLock> {
    lock: &'a BravoRwLock<T, L>,
    fast: bool,
    not_send: PhantomData<*const ()>,
}

// SAFETY: through `&BravoReadGuard` another thread can only read `fast` and
// deref to `&T` (the `lock` reference is private, `not_send` holds nothing),
// which is sound whenever `T` is `Sync`. Only sending the guard, which would
// move the release to another thread, is ruled out.
unsafe impl<T: ?Sized + Sync, L: AnonymousReaders> Sync for BravoReadGuard<'_, T, L> {}

impl<'a, T: ?Sized, L: AnonymousReaders> BravoReadGuard<'a, T, L> {
    fn new(lock: &'a BravoRwLock<T, L>, fast: bool) -> Self {
        Self {
            lock,
            fast,
            not_send: PhantomData,
        }
    }

    /// Whether this acquisition used the BRAVO fast path (useful in tests
    /// and experiments).
    pub fn is_fast(&self) -> bool {
        self.fast
    }
}

impl<T: ?Sized, L: AnonymousReaders> Deref for BravoReadGuard<'_, T, L> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves read permission is held, so shared access
        // to the protected value is synchronized.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: AnonymousReaders> Drop for BravoReadGuard<'_, T, L> {
    fn drop(&mut self) {
        self.lock.raw.read_unlock();
    }
}

impl<T: ?Sized + fmt::Debug, L: AnonymousReaders> fmt::Debug for BravoReadGuard<'_, T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// RAII guard granting exclusive access to the data of a [`BravoRwLock`].
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct BravoWriteGuard<'a, T: ?Sized, L: AnonymousReaders = DefaultRwLock> {
    lock: &'a BravoRwLock<T, L>,
}

impl<T: ?Sized, L: AnonymousReaders> Deref for BravoWriteGuard<'_, T, L> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive permission is held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: AnonymousReaders> DerefMut for BravoWriteGuard<'_, T, L> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusive permission is held, and `&mut
        // self` prevents aliasing through this guard.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized, L: AnonymousReaders> Drop for BravoWriteGuard<'_, T, L> {
    fn drop(&mut self) {
        self.lock.raw.write_unlock();
    }
}

impl<T: ?Sized + fmt::Debug, L: AnonymousReaders> fmt::Debug for BravoWriteGuard<'_, T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_round_trip() {
        let lock = BravoRwLock::<_, DefaultRwLock>::new(5u32);
        assert_eq!(*lock.read(), 5);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 6);
        assert_eq!(lock.into_inner(), 6);
    }

    #[test]
    fn second_read_guard_is_fast() {
        let lock = BravoRwLock::<_, DefaultRwLock>::new(());
        drop(lock.read());
        assert!(lock.read().is_fast());
    }

    #[test]
    fn try_write_fails_while_read_guard_live() {
        let lock = BravoRwLock::<_, DefaultRwLock>::new(0u8);
        let guard = lock.read();
        assert!(lock.try_write().is_none());
        drop(guard);
        assert!(lock.try_write().is_some());
    }

    #[test]
    fn try_read_fails_while_write_guard_live() {
        let lock = BravoRwLock::<_, DefaultRwLock>::new(0u8);
        let guard = lock.write();
        assert!(lock.try_read().is_none());
        drop(guard);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = BravoRwLock::<_, DefaultRwLock>::new(1u64);
        *lock.get_mut() = 7;
        assert_eq!(*lock.read(), 7);
    }

    #[test]
    fn guards_release_on_drop_under_contention() {
        let lock = Arc::new(BravoRwLock::<_, DefaultRwLock>::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        *lock.write() += 1;
                        let _ = *lock.read();
                    }
                });
            }
        });
        assert_eq!(*lock.read(), 4_000);
    }

    #[test]
    fn debug_formats_do_not_deadlock() {
        let lock = BravoRwLock::<_, DefaultRwLock>::new(3u8);
        let s = format!("{lock:?}");
        assert!(s.contains('3'));
        let w = lock.write();
        let s = format!("{lock:?}");
        assert!(s.contains("locked"));
        drop(w);
    }

    #[test]
    fn unsized_data_is_supported_via_coercion() {
        let lock: Box<BravoRwLock<[u8], DefaultRwLock>> = Box::new(BravoRwLock::new([1u8, 2, 3]));
        assert_eq!(lock.read().len(), 3);
    }
}
