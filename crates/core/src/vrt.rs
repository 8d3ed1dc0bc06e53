//! The visible readers table (VRT) and its layouts.
//!
//! The table is the heart of BRAVO: an array of slots, each either null or
//! the address of a reader-writer lock that currently has a fast-path
//! reader. The *layout* of that array is the knob the paper turns to trade
//! inter-lock interference against revocation-scan cost, and this module
//! puts every layout behind one abstraction, [`ReaderTable`]:
//!
//! * [`VisibleReadersTable`] — the **flat** layout: one hash-indexed array
//!   shared by all locks and threads (the paper sizes the process-global
//!   instance at 4096 slots ≈ 32 KiB of pointers). Owned flat instances are
//!   the "idealized form that has a large per-instance footprint but which
//!   is immune to inter-lock conflicts" used as the comparator in the
//!   paper's Figure 1.
//! * [`SectoredTable`] — the **sectored** (BRAVO-2D) layout from the
//!   paper's future-work list: one row per logical CPU, lock-hashed
//!   columns, so writers revoke by scanning a single column.
//!
//! Locks hold a [`TableHandle`], which names the layout once, so a fast
//! read and its release call the concrete table without a virtual call. The
//! table behind it is either process-shared (the flat global or the
//! sectored global) or owned by the lock instance.

use std::sync::{Arc, OnceLock};

use topology::ThreadId;

use crate::sync::atomic::{AtomicUsize, Ordering};

use crate::hash::{mix64, slot_index};
use crate::wait::WaitStrategy;

/// Number of slots in the process-global flat table (the paper's choice).
pub const DEFAULT_TABLE_SIZE: usize = 4096;

/// Default number of slots per row of the sectored (BRAVO-2D) layout.
pub const DEFAULT_ROW_SLOTS: usize = 64;

/// Outcome of one revocation scan: what the writer had to wait for and how
/// much of the table it visited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Revocation {
    /// Slots the scan visited.
    pub scanned_slots: usize,
    /// Fast-path readers the writer had to wait for.
    pub conflicts: u64,
}

/// A visible readers table layout, as a revoking writer and a diagnostic
/// see it.
///
/// Both layouts (flat and sectored) implement this trait, so a lock's
/// layout is chosen by its [`TableSpec`](crate::spec::TableSpec) instead of
/// by its type. Readers do not go through it: they publish into the slot
/// [`TableHandle::slot_for`] places them in, with
/// [`VisibleReadersTable::try_publish`] on the slot array both layouts
/// share.
///
/// The contract every layout upholds: such a publication, made on any
/// thread, is found by a concurrent [`revoke`](ReaderTable::revoke) for
/// the same lock address (the BRAVO safety property).
pub trait ReaderTable: Send + Sync {
    /// Short name of the layout (`"flat"`, `"sectored"`).
    fn layout(&self) -> &'static str;

    /// Total number of slots.
    fn len(&self) -> usize;

    /// Whether the table has zero slots (never true for the provided
    /// layouts).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The writer's revocation scan: waits until no slot this lock's
    /// readers can occupy holds `lock_addr`.
    fn revoke(&self, lock_addr: usize) -> Revocation {
        self.revoke_until_with(lock_addr, u64::MAX, WaitStrategy::spin())
            .expect("unbounded revocation scan cannot time out")
    }

    /// The revocation entry point the layouts implement; [`revoke`] is a
    /// spinning, unbounded shim over it. The waits between polls are
    /// dispatched through `wait` (a parking revoker is woken by the lock's
    /// fast-path readers notifying `lock_addr` as they clear their slots).
    /// Gives up once the monotonic clock passes `deadline_ns`, returning
    /// `None`; some fast readers may then still be published, and the
    /// caller must not assume write permission is safe.
    ///
    /// [`revoke`]: ReaderTable::revoke
    fn revoke_until_with(
        &self,
        lock_addr: usize,
        deadline_ns: u64,
        wait: WaitStrategy,
    ) -> Option<Revocation>;

    /// Number of currently occupied slots (racy snapshot, for tests and
    /// occupancy experiments).
    fn occupancy(&self) -> usize;

    /// Number of slots currently publishing `lock_addr` (racy snapshot).
    fn count_for(&self, lock_addr: usize) -> usize;
}

/// Two-pass drain over an already-collected set of conflicting slots.
///
/// The first sweep (done by the caller) only *collects* occupied indices;
/// this drain then re-polls the whole set each round, so a revoking writer
/// is never head-of-line blocked on the first occupied slot while readers
/// later in the scan order have long departed. Returns `false` on deadline.
///
/// The wait between polls is `wait`-dispatched: spinning (the historical
/// behaviour) or parking keyed on `lock_addr` — a parked revoker is woken
/// by the lock's fast-path `read_unlock`, which notifies the lock address
/// after clearing its slot.
fn drain_pending(
    slots: &[AtomicUsize],
    pending: &mut Vec<usize>,
    lock_addr: usize,
    deadline_ns: u64,
    wait: WaitStrategy,
) -> bool {
    let mut ready = || {
        pending.retain(|&i| slots[i].load(Ordering::SeqCst) == lock_addr);
        pending.is_empty()
    };
    if deadline_ns == u64::MAX {
        wait.wait_until(lock_addr, &mut ready);
        true
    } else {
        wait.wait_until_deadline(lock_addr, &mut ready, deadline_ns)
    }
}

/// The flat layout: `size` hash-indexed slots, each holding either null (0)
/// or the address of a lock with an active fast-path reader.
pub struct VisibleReadersTable {
    slots: Box<[AtomicUsize]>,
}

impl VisibleReadersTable {
    /// Creates a table with `size` slots. `size` is rounded up to the next
    /// power of two (the slot hash masks with `size - 1`).
    pub fn new(size: usize) -> Self {
        let size = size.max(1).next_power_of_two();
        let slots = (0..size).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        Self {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Slot index for a `(lock, thread)` pair in this table.
    pub fn slot_for(&self, lock_addr: usize, thread_id: usize) -> usize {
        slot_index(lock_addr, thread_id, self.slots.len())
    }

    /// Reads the raw contents of `slot` (0 if empty).
    pub fn peek(&self, slot: usize) -> usize {
        self.slots[slot].load(Ordering::SeqCst)
    }

    /// Attempts to publish `lock_addr` in `slot` (the fast-path reader's
    /// CAS from null). Returns `false` if the slot was already occupied.
    ///
    /// On success the operation is sequentially consistent, which provides
    /// the store-load fence the algorithm needs between publishing the slot
    /// and re-checking the lock's bias flag.
    pub fn try_publish(&self, slot: usize, lock_addr: usize) -> bool {
        debug_assert_ne!(lock_addr, 0, "cannot publish a null lock address");
        self.slots[slot]
            .compare_exchange(0, lock_addr, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
    }

    /// Frees `slot` if it holds `lock_addr`: a compare-exchange from
    /// `lock_addr` to 0 (the fast-path reader's release). Returns whether
    /// the slot was freed; a BRAVO read release may find its slot empty or
    /// held by another lock (see
    /// [`BravoLock::read_unlock`](crate::BravoLock::read_unlock)).
    pub fn clear(&self, slot: usize, lock_addr: usize) -> bool {
        // The release half pairs with the revoker's SeqCst scan, so the
        // reader's critical section happens-before the writer's. SeqCst
        // puts the clear in one total order with the release's RBias
        // re-check and the revoker's RBias clear, which lets a release skip
        // its notify while bias is on (see `BravoLock::read_unlock`); on x86
        // Release and SeqCst are the same `lock cmpxchg`. A failed exchange
        // publishes nothing: the caller releases through the underlying
        // lock.
        self.slots[slot]
            .compare_exchange(lock_addr, 0, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
    }
}

impl ReaderTable for VisibleReadersTable {
    fn layout(&self) -> &'static str {
        "flat"
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn revoke_until_with(
        &self,
        lock_addr: usize,
        deadline_ns: u64,
        wait: WaitStrategy,
    ) -> Option<Revocation> {
        // Two-pass: collect the conflicting slots first, then re-poll only
        // those (see `drain_pending`).
        let mut pending: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.peek(i) == lock_addr)
            .collect();
        let rev = Revocation {
            scanned_slots: self.slots.len(),
            conflicts: pending.len() as u64,
        };
        if drain_pending(&self.slots, &mut pending, lock_addr, deadline_ns, wait) {
            Some(rev)
        } else {
            None
        }
    }

    fn occupancy(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != 0)
            .count()
    }

    fn count_for(&self, lock_addr: usize) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == lock_addr)
            .count()
    }
}

impl std::fmt::Debug for VisibleReadersTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VisibleReadersTable")
            .field("slots", &self.len())
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

/// The sectored (BRAVO-2D) layout: one row per logical CPU, aligned to a
/// cache sector.
///
/// The flat table hashes `(thread, lock)` anywhere, which is simple but
/// lets unrelated threads land in adjacent slots (near collisions → false
/// sharing) and forces revoking writers to scan the whole table. The
/// sectored layout instead gives every CPU its own row:
///
/// * A fast-path reader picks its row with its CPU id and the *column*
///   within the row by hashing the lock address, so threads enjoy spatial
///   and temporal locality within their own row and essentially never
///   false-share with other CPUs.
/// * A revoking writer only needs to scan the lock's column — one slot per
///   row — instead of the whole table.
///
/// The trade-off is a higher *intra-thread* inter-lock collision rate (a
/// given thread has only one candidate slot per lock per row), which the
/// paper argues is rare because threads hold few read locks at once.
pub struct SectoredTable {
    storage: VisibleReadersTable,
    rows: usize,
    row_slots: usize,
}

impl SectoredTable {
    /// Creates a table with `rows` rows of `row_slots` slots each.
    /// `row_slots` is rounded up to a power of two.
    pub fn new(rows: usize, row_slots: usize) -> Self {
        let rows = rows.max(1);
        let row_slots = row_slots.max(1).next_power_of_two();
        Self {
            storage: VisibleReadersTable::new(rows * row_slots),
            rows,
            row_slots,
        }
    }

    /// Number of rows (one per logical CPU in the default configuration).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Slots per row.
    pub fn row_slots(&self) -> usize {
        self.row_slots
    }

    /// Column a lock hashes to (same for every row, which is what lets the
    /// writer restrict its scan to one column).
    pub fn column_for(&self, lock_addr: usize) -> usize {
        (mix64(lock_addr as u64) as usize) & (self.row_slots - 1)
    }

    /// Flat slot index for (cpu row, lock column).
    pub fn slot_for(&self, cpu: usize, lock_addr: usize) -> usize {
        (cpu % self.rows) * self.row_slots + self.column_for(lock_addr)
    }

    /// Number of slots a revocation visits (one per row).
    pub fn revocation_scan_len(&self) -> usize {
        self.rows
    }
}

impl ReaderTable for SectoredTable {
    fn layout(&self) -> &'static str {
        "sectored"
    }

    fn len(&self) -> usize {
        self.rows * self.row_slots
    }

    fn revoke_until_with(
        &self,
        lock_addr: usize,
        deadline_ns: u64,
        wait: WaitStrategy,
    ) -> Option<Revocation> {
        // Column scan, two-pass: collect the occupied slots of the lock's
        // column first, then re-poll only those.
        let column = self.column_for(lock_addr);
        let mut pending: Vec<usize> = (0..self.rows)
            .map(|row| row * self.row_slots + column)
            .filter(|&slot| self.storage.peek(slot) == lock_addr)
            .collect();
        let rev = Revocation {
            scanned_slots: self.rows,
            conflicts: pending.len() as u64,
        };
        if drain_pending(
            &self.storage.slots,
            &mut pending,
            lock_addr,
            deadline_ns,
            wait,
        ) {
            Some(rev)
        } else {
            None
        }
    }

    fn occupancy(&self) -> usize {
        self.storage.occupancy()
    }

    fn count_for(&self, lock_addr: usize) -> usize {
        self.storage.count_for(lock_addr)
    }
}

impl std::fmt::Debug for SectoredTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectoredTable")
            .field("rows", &self.rows)
            .field("row_slots", &self.row_slots)
            .finish()
    }
}

static GLOBAL: OnceLock<Arc<VisibleReadersTable>> = OnceLock::new();

/// Returns the process-global flat table (4096 slots, created on first
/// use) — the paper's production embodiment.
pub fn global_table() -> &'static Arc<VisibleReadersTable> {
    GLOBAL.get_or_init(|| Arc::new(VisibleReadersTable::new(DEFAULT_TABLE_SIZE)))
}

static GLOBAL_2D: OnceLock<Arc<SectoredTable>> = OnceLock::new();

/// The process-global sectored table: one row per logical CPU of the
/// simulated machine, [`DEFAULT_ROW_SLOTS`] slots per row.
pub fn global_sectored_table() -> &'static Arc<SectoredTable> {
    GLOBAL_2D.get_or_init(|| {
        Arc::new(SectoredTable::new(
            topology::logical_cpus(),
            DEFAULT_ROW_SLOTS,
        ))
    })
}

/// Which visible readers table a BRAVO composite publishes into.
///
/// Production BRAVO uses the process-shared tables (zero bytes of per-lock
/// table state); owned tables exist for the Figure 1 interference
/// experiment, for BRAVO-2D private geometries, and for unit tests that
/// need isolation.
///
/// ```
/// use bravo::vrt::{ReaderTable, TableHandle, DEFAULT_TABLE_SIZE};
///
/// // Production default: every lock shares the process-global flat table.
/// let shared = TableHandle::global();
/// assert_eq!(shared.table().layout(), "flat");
/// assert_eq!(shared.table().len(), DEFAULT_TABLE_SIZE);
///
/// // Figure 1's comparator: a table owned by one lock, immune to
/// // inter-lock interference. Sizes round up to a power of two.
/// let private = TableHandle::private(1000);
/// assert_eq!(private.table().len(), 1024);
///
/// // The sectored (BRAVO-2D) layout revokes by scanning one column, so a
/// // 4-row geometry visits 4 slots per revocation.
/// let sectored = TableHandle::sectored(4, 64);
/// assert_eq!(sectored.table().layout(), "sectored");
/// assert_eq!(sectored.table().revoke(0x1000).scanned_slots, 4);
/// ```
#[derive(Clone)]
pub enum TableHandle {
    /// The flat layout (the process-global table or a private one).
    Flat(Arc<VisibleReadersTable>),
    /// The sectored (BRAVO-2D) layout.
    Sectored(Arc<SectoredTable>),
}

impl Default for TableHandle {
    fn default() -> Self {
        TableHandle::global()
    }
}

impl TableHandle {
    /// The process-global flat table (the paper's production default).
    pub fn global() -> Self {
        TableHandle::Flat(Arc::clone(global_table()))
    }

    /// The process-global sectored table (the BRAVO-2D default).
    pub fn global_sectored() -> Self {
        TableHandle::Sectored(Arc::clone(global_sectored_table()))
    }

    /// A fresh private flat table with `size` slots.
    pub fn private(size: usize) -> Self {
        TableHandle::Flat(Arc::new(VisibleReadersTable::new(size)))
    }

    /// A fresh private sectored table (`rows × row_slots`).
    pub fn sectored(rows: usize, row_slots: usize) -> Self {
        TableHandle::Sectored(Arc::new(SectoredTable::new(rows, row_slots)))
    }

    /// Resolves the handle to the actual table.
    pub fn table(&self) -> &dyn ReaderTable {
        match self {
            TableHandle::Flat(t) => &**t,
            TableHandle::Sectored(t) => &**t,
        }
    }

    /// The slot `thread` publishes `lock_addr` into, per the layout's
    /// placement rule: thread-hashed for flat, the thread's CPU row for
    /// sectored.
    #[inline]
    pub fn slot_for(&self, lock_addr: usize, thread: ThreadId) -> usize {
        match self {
            TableHandle::Flat(t) => t.slot_for(lock_addr, thread.as_usize()),
            TableHandle::Sectored(t) => t.slot_for(thread.cpu(), lock_addr),
        }
    }

    /// The slot array both layouts publish into and clear from.
    #[inline]
    pub(crate) fn slots(&self) -> &VisibleReadersTable {
        match self {
            TableHandle::Flat(t) => t,
            TableHandle::Sectored(t) => &t.storage,
        }
    }
}

impl std::fmt::Debug for TableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.table();
        write!(f, "TableHandle({} layout, {} slots)", t.layout(), t.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::now_ns;

    #[test]
    fn sizes_round_up_to_powers_of_two() {
        assert_eq!(VisibleReadersTable::new(1000).len(), 1024);
        assert_eq!(VisibleReadersTable::new(4096).len(), 4096);
        assert_eq!(VisibleReadersTable::new(1).len(), 1);
        assert_eq!(VisibleReadersTable::new(0).len(), 1);
    }

    #[test]
    fn publish_clear_round_trip() {
        let t = VisibleReadersTable::new(64);
        let addr = 0x1000;
        let slot = t.slot_for(addr, 3);
        assert!(t.try_publish(slot, addr));
        assert_eq!(t.peek(slot), addr);
        assert_eq!(t.count_for(addr), 1);
        assert!(
            !t.try_publish(slot, 0x2000),
            "occupied slot must refuse publication"
        );
        assert!(t.clear(slot, addr));
        assert_eq!(t.peek(slot), 0);
        assert_eq!(t.occupancy(), 0);
        assert!(!t.clear(slot, addr), "an empty slot cannot be freed");
        assert!(t.try_publish(slot, 0x2000));
        assert!(!t.clear(slot, addr), "another lock's slot cannot be freed");
        assert_eq!(t.peek(slot), 0x2000);
        assert!(t.clear(slot, 0x2000));
    }

    #[test]
    fn wait_for_readers_returns_once_slots_clear() {
        let t = Arc::new(VisibleReadersTable::new(64));
        let addr = 0x4000;
        let slot = t.slot_for(addr, 0);
        assert!(t.try_publish(slot, addr));

        let t2 = Arc::clone(&t);
        let clearer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(t2.clear(slot, addr));
        });
        assert_eq!(t.revoke(addr).conflicts, 1);
        assert_eq!(t.count_for(addr), 0);
        clearer.join().unwrap();
    }

    #[test]
    fn two_pass_scan_collects_all_conflicts_before_waiting() {
        // Publish the same lock from several "threads"; every conflict must
        // be counted even though all of them are still held when the scan
        // starts (the first pass collects, the drain waits on the set).
        let t = Arc::new(VisibleReadersTable::new(256));
        let addr = 0x7000;
        let slots: Vec<usize> = (0..5)
            .map(|tid| {
                let slot = t.slot_for(addr, tid);
                assert!(t.try_publish(slot, addr));
                slot
            })
            .collect();
        let t2 = Arc::clone(&t);
        let clearer = std::thread::spawn(move || {
            // Depart in reverse scan order: a single-pass scanner would be
            // head-of-line blocked on the earliest slot the whole time.
            std::thread::sleep(std::time::Duration::from_millis(5));
            for &slot in slots.iter().rev() {
                assert!(t2.clear(slot, addr));
            }
        });
        assert_eq!(t.revoke(addr).conflicts, 5);
        clearer.join().unwrap();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn wait_ignores_other_locks() {
        let t = VisibleReadersTable::new(64);
        let other = 0x8000;
        let slot = t.slot_for(other, 1);
        assert!(t.try_publish(slot, other));
        // Must return immediately: no slot holds 0x9000.
        assert_eq!(t.revoke(0x9000).conflicts, 0);
        assert!(t.clear(slot, other));
    }

    #[test]
    fn global_table_has_default_size_and_is_shared() {
        assert_eq!(global_table().len(), DEFAULT_TABLE_SIZE);
        let a = global_table() as *const _;
        let b = global_table() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn flat_table_reader_table_contract() {
        let handle = TableHandle::private(64);
        let table = handle.table();
        assert_eq!(table.layout(), "flat");
        let addr = 0x6000;
        let slot = handle.slot_for(addr, topology::current_thread_id());
        assert!(handle.slots().try_publish(slot, addr));
        assert_eq!(table.count_for(addr), 1);
        assert!(handle.slots().clear(slot, addr));
        let rev = table.revoke(addr);
        assert_eq!(rev.conflicts, 0);
        assert_eq!(rev.scanned_slots, 64);
    }

    #[test]
    fn sectored_geometry() {
        let t = SectoredTable::new(4, 60);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.row_slots(), 64);
        assert_eq!(t.len(), 256);
        assert_eq!(t.revocation_scan_len(), 4);
    }

    #[test]
    fn same_lock_hashes_to_same_column_in_every_row() {
        let t = SectoredTable::new(8, 64);
        let addr = 0xabc0usize;
        let col = t.column_for(addr);
        for cpu in 0..8 {
            assert_eq!(t.slot_for(cpu, addr) % t.row_slots(), col);
            assert_eq!(t.slot_for(cpu, addr) / t.row_slots(), cpu);
        }
    }

    #[test]
    fn sectored_column_scan_finds_readers_in_any_row() {
        let t = SectoredTable::new(4, 16);
        let addr = 0x3330usize;
        let slot = t.slot_for(2, addr);
        assert!(t.storage.try_publish(slot, addr));
        // Clear from another thread while the main thread revokes.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                assert!(t.storage.clear(slot, addr));
            });
            let rev = t.revoke(addr);
            assert_eq!(rev.conflicts, 1);
            assert_eq!(rev.scanned_slots, 4, "column scan visits one slot per row");
        });
        assert_eq!(ReaderTable::occupancy(&t), 0);
    }

    #[test]
    fn bounded_revocation_times_out_and_recovers() {
        let t = VisibleReadersTable::new(16);
        let addr = 0xdd0;
        let slot = t.slot_for(addr, 0);
        assert!(t.try_publish(slot, addr));
        // The reader never departs within the budget.
        let deadline = now_ns() + 2_000_000; // 2 ms
        assert!(t
            .revoke_until_with(addr, deadline, WaitStrategy::spin())
            .is_none());
        assert!(t.clear(slot, addr));
        let rev = t.revoke(addr);
        assert_eq!(rev.conflicts, 0);
    }

    #[test]
    fn parked_revocation_is_woken_by_slot_clear() {
        let t = Arc::new(VisibleReadersTable::new(64));
        let addr = 0x5000;
        let slot = t.slot_for(addr, 0);
        assert!(t.try_publish(slot, addr));
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                assert!(VisibleReadersTable::clear(&t, slot, addr));
                // What BravoLock::read_unlock does in park mode after
                // clearing its slot.
                WaitStrategy::park().notify_all(addr);
            });
            let rev = t.revoke_until_with(addr, u64::MAX, WaitStrategy::park());
            assert_eq!(rev.map(|r| r.conflicts), Some(1));
        });
        assert_eq!(ReaderTable::count_for(&*t, addr), 0);
    }

    #[test]
    fn table_handle_resolution() {
        let h = TableHandle::default();
        assert_eq!(h.table().len(), DEFAULT_TABLE_SIZE);
        let p = TableHandle::private(128);
        assert_eq!(p.table().len(), 128);
        // Owned handles clone to the same table.
        let p2 = p.clone();
        assert!(std::ptr::eq(p.slots(), p2.slots()));
        assert_eq!(TableHandle::global_sectored().table().layout(), "sectored");
        assert_eq!(TableHandle::sectored(4, 16).table().len(), 64);
    }
}
