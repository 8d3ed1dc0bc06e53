//! The memtable's hash table: open addressing with linear probing over
//! flat 40-byte slots, and the one-pass parallel load that fills it.
//!
//! A slot is five words, the key and then the four value words, and a
//! table is one zeroed [`Region`] of them. Key `0` marks an empty slot, so
//! the real key 0 is kept beside the slots. A key's home slot is its hash
//! masked to the slot count; a lookup walks forward from there to the key
//! or to an empty slot. A delete shifts the entries behind the hole back
//! (backward-shift deletion), so there are no tombstones and a lookup never
//! walks further than the longest run of occupied slots. The table doubles
//! before it passes a load factor of 3/4.
//!
//! # The hash
//!
//! Each table has its own [`RandomState`] (SipHash with random keys), as a
//! std `HashMap` would, so clients that choose keys cannot aim them at one
//! run of slots. It is kept apart from [`bravo::hash::key_hash`], which is
//! fixed and also routes keys to shards by its top bits ([`key_shard`]):
//! every key of one shard of a 4-shard store shares the top two bits of
//! `key_hash`, so a home read from those bits would leave 3 of every 4
//! home slots unused.

use std::alloc::Layout;
use std::collections::hash_map::RandomState;
use std::collections::TryReserveError;
use std::hash::BuildHasher;
use std::ops::Range;

use bravo::hash::key_shard;
use bravo::sys::mem::Region;

use crate::memtable::{prepopulated_value, Value};

/// Words per slot: the key, then the value.
const SLOT_WORDS: usize = 5;
/// The key word of an empty slot.
const EMPTY: u64 = 0;
/// The fewest slots a table has.
const MIN_SLOTS: usize = 16;
/// A load places keys one window of `1 << WINDOW_BITS` slots (320 KiB of
/// table) at a time, so its writes stay in L2.
const WINDOW_BITS: u32 = 13;
const WINDOW_MASK: usize = (1 << WINDOW_BITS) - 1;

/// A table, or the key lists of its load, could not be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutOfMemory;

impl From<TryReserveError> for OutOfMemory {
    fn from(_: TryReserveError) -> Self {
        OutOfMemory
    }
}

/// The slot count a table holding `keys` keys is sized at: the smallest
/// power of two, and at least [`MIN_SLOTS`], that `keys` fill to at most
/// 3/4. `None` if no such count fits in a `usize`.
pub(crate) fn slots_for(keys: usize) -> Option<usize> {
    let least = keys.div_ceil(3).checked_mul(4)?;
    Some(least.checked_next_power_of_two()?.max(MIN_SLOTS))
}

/// A hash table from `u64` keys to [`Value`]s; see the module docs.
#[derive(Debug)]
pub(crate) struct Table {
    hasher: RandomState,
    /// `slots() * SLOT_WORDS` words; a slot whose key word is `EMPTY` is
    /// free and all zero.
    words: Region,
    /// `slots() - 1`; the slot count is a power of two.
    mask: usize,
    /// Keys held in slots (key 0 is not one of them).
    len: usize,
    /// The value of key 0, which cannot sit in a slot.
    zero: Option<Value>,
}

impl Table {
    /// An empty table of [`MIN_SLOTS`] slots. Aborts, as std's collections
    /// do, if those cannot be allocated.
    pub(crate) fn new() -> Self {
        Self::with_slots(MIN_SLOTS, RandomState::new()).unwrap_or_else(|_| abort_oom(MIN_SLOTS))
    }

    /// An empty table of `slots` (a power of two) slots, hashing with
    /// `hasher`. The slots are mapped but not yet faulted in.
    fn with_slots(slots: usize, hasher: RandomState) -> Result<Self, OutOfMemory> {
        debug_assert!(slots.is_power_of_two());
        let words = slots.checked_mul(SLOT_WORDS).ok_or(OutOfMemory)?;
        Ok(Self {
            hasher,
            words: Region::zeroed(words).map_err(|_| OutOfMemory)?,
            mask: slots - 1,
            len: 0,
            zero: None,
        })
    }

    /// Faults `slots` of the table in ahead of use ([`Region::populate`]).
    fn populate(&mut self, slots: Range<usize>) -> Result<(), OutOfMemory> {
        let words = slots.start * SLOT_WORDS..slots.end * SLOT_WORDS;
        self.words.populate(words).map_err(|_| OutOfMemory)
    }

    /// Number of slots (a power of two).
    pub(crate) fn slots(&self) -> usize {
        self.mask + 1
    }

    /// Number of keys held.
    pub(crate) fn len(&self) -> usize {
        self.len + usize::from(self.zero.is_some())
    }

    /// The slot a probe for `key` starts at.
    fn home(&self, key: u64) -> usize {
        self.hasher.hash_one(key) as usize & self.mask
    }

    fn key_at(&self, slot: usize) -> u64 {
        self.words[slot * SLOT_WORDS]
    }

    fn value_at(&self, slot: usize) -> Value {
        let at = slot * SLOT_WORDS + 1;
        let mut value = [0; 4];
        value.copy_from_slice(&self.words[at..at + 4]);
        value
    }

    fn value_at_mut(&mut self, slot: usize) -> &mut Value {
        let at = slot * SLOT_WORDS + 1;
        <&mut Value>::try_from(&mut self.words[at..at + 4]).expect("a value is four words")
    }

    /// Writes `key` and `value` into `slot`.
    fn write(&mut self, slot: usize, key: u64, value: Value) {
        let at = slot * SLOT_WORDS;
        let words = &mut self.words[at..at + SLOT_WORDS];
        words[0] = key;
        words[1..].copy_from_slice(&value);
    }

    /// The slot holding `key` (not `EMPTY`), or else the empty slot that
    /// ends its probe. The load factor keeps a slot empty, so this ends.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut slot = self.home(key);
        loop {
            match self.key_at(slot) {
                k if k == key => return Ok(slot),
                EMPTY => return Err(slot),
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Puts `key`, known to be absent and not `EMPTY`, into the first empty
    /// slot from `home` on. Does not count it or grow the table.
    fn place(&mut self, home: usize, key: u64, value: Value) {
        let mut slot = home;
        while self.key_at(slot) != EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.write(slot, key, value);
    }

    /// The value stored for `key`.
    pub(crate) fn get(&self, key: u64) -> Option<Value> {
        if key == EMPTY {
            return self.zero;
        }
        self.find(key).ok().map(|slot| self.value_at(slot))
    }

    /// The value stored for `key`, inserted as zeroes first if absent.
    pub(crate) fn entry(&mut self, key: u64) -> &mut Value {
        if key == EMPTY {
            return self.zero.get_or_insert([0; 4]);
        }
        let slot = match self.find(key) {
            Ok(slot) => slot,
            Err(mut slot) => {
                if self.len + 1 > self.slots() / 4 * 3 {
                    self.grow();
                    slot = self.find(key).expect_err("the key is still absent");
                }
                self.write(slot, key, [0; 4]);
                self.len += 1;
                slot
            }
        };
        self.value_at_mut(slot)
    }

    /// Stores `value` for `key`.
    pub(crate) fn insert(&mut self, key: u64, value: Value) {
        *self.entry(key) = value;
    }

    /// Removes `key`, returning its value if it was present.
    pub(crate) fn remove(&mut self, key: u64) -> Option<Value> {
        if key == EMPTY {
            return self.zero.take();
        }
        let mut hole = self.find(key).ok()?;
        let value = self.value_at(hole);
        // Shift back every entry after the hole, up to the next empty slot,
        // whose probe passes through the hole: one whose home is not in
        // the cyclic range (hole, slot].
        let mut slot = hole;
        loop {
            slot = (slot + 1) & self.mask;
            let key = self.key_at(slot);
            if key == EMPTY {
                break;
            }
            let from_home = slot.wrapping_sub(self.home(key)) & self.mask;
            if from_home >= slot.wrapping_sub(hole) & self.mask {
                let moved = self.value_at(slot);
                self.write(hole, key, moved);
                hole = slot;
            }
        }
        self.write(hole, EMPTY, [0; 4]);
        self.len -= 1;
        Some(value)
    }

    /// Every key and its value, key 0 first and the rest in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Value)> + '_ {
        let slots = self.words.chunks_exact(SLOT_WORDS);
        let held = slots.filter(|slot| slot[0] != EMPTY).map(|slot| {
            let mut value = [0; 4];
            value.copy_from_slice(&slot[1..]);
            (slot[0], value)
        });
        self.zero
            .map(|value| (EMPTY, value))
            .into_iter()
            .chain(held)
    }

    /// Doubles the slot count, keeping the hasher. Aborts, as std's
    /// collections do, if the bigger table cannot be allocated.
    fn grow(&mut self) {
        let slots = self.slots() * 2;
        let mut bigger = Self::with_slots(slots, self.hasher.clone())
            .and_then(|mut table| table.populate(0..slots).map(|()| table))
            .unwrap_or_else(|_| abort_oom(slots));
        for (key, value) in self.iter().filter(|&(key, _)| key != EMPTY) {
            bigger.place(bigger.home(key), key, value);
        }
        bigger.len = self.len;
        bigger.zero = self.zero;
        *self = bigger;
    }
}

/// Reports a failed table allocation the way std's collections do.
fn abort_oom(slots: usize) -> ! {
    let layout = Layout::array::<[u64; SLOT_WORDS]>(slots).unwrap_or(Layout::new::<u64>());
    std::alloc::handle_alloc_error(layout)
}

/// Builds the `shards` tables holding keys `0..n`, each key in the table
/// [`key_shard`] routes it to and holding [`prepopulated_value`], on up to
/// `threads` (≥ 1) threads, the calling thread included.
///
/// One pass, in three steps, with `0..n` split into one range per thread:
///
/// 1. Each thread counts its range's keys by shard. Each table is then
///    sized for its keys ([`slots_for`]) and mapped on the calling thread,
///    so an impossible size fails before any key is placed.
/// 2. Each thread routes its range: it hashes each key once, with its
///    shard's hasher, and appends it to the list of its home's window (one
///    per [`WINDOW_BITS`] slots of each table), packed above the home's
///    offset in the window.
/// 3. The tables are split over the threads. Each thread places its
///    tables' keys one window at a time, reading every thread's list for
///    that window. It faults each window in just before
///    ([`Region::populate`]): the kernel zeroes the window's huge page on
///    this core, so the placing writes hit the cache, not memory.
///
/// No table grows: every one keeps the slot count it was sized at. The key
/// lists take about 9 bytes a key and are allocated fallibly. Fails if a
/// table or a list cannot be allocated, or if `n` exceeds
/// `2^(64 - WINDOW_BITS)`, the most keys a packed list entry holds; a store
/// of 40-byte slots that large could not be allocated anyway.
pub(crate) fn prepopulated(
    n: u64,
    shards: usize,
    threads: usize,
) -> Result<Vec<Table>, OutOfMemory> {
    if n > 1 << (64 - WINDOW_BITS) {
        return Err(OutOfMemory);
    }
    let ranges = split(0..n, threads);
    let counts = on_threads(ranges.clone(), |range| count_by_shard(range, shards));
    let mut tables = Vec::with_capacity(shards);
    for shard in 0..shards {
        let keys: u64 = counts.iter().map(|count| count[shard]).sum();
        let slots = usize::try_from(keys)
            .ok()
            .and_then(slots_for)
            .ok_or(OutOfMemory)?;
        tables.push(Table::with_slots(slots, RandomState::new())?);
    }
    // `first[shard]` indexes the shard's first window list in each
    // thread's lists; `first[shards]` is how many lists a thread has.
    let mut first = vec![0];
    let mut total = 0;
    for table in &tables {
        total += windows(table);
        first.push(total);
    }
    let lists = on_threads(
        ranges.into_iter().zip(&counts).collect(),
        |(range, count)| route(&tables, &first, range, count),
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let per_thread = shards.div_ceil(threads);
    let runs = (0..).step_by(per_thread).zip(tables.chunks_mut(per_thread));
    let key0_shard = key_shard(0, shards);
    on_threads(runs.collect(), |(first_shard, tables)| {
        for (shard, table) in (first_shard..).zip(tables) {
            for window in 0..windows(table) {
                let base = window << WINDOW_BITS;
                table.populate(base..table.slots().min(base + WINDOW_MASK + 1))?;
                for entry in lists.iter().flat_map(|lists| &lists[first[shard] + window]) {
                    let key = entry >> WINDOW_BITS;
                    let home = base | (*entry as usize & WINDOW_MASK);
                    table.place(home, key, prepopulated_value(key));
                    table.len += 1;
                }
            }
            if n > 0 && shard == key0_shard {
                table.zero = Some(prepopulated_value(0));
            }
        }
        Ok(())
    })
    .into_iter()
    .collect::<Result<(), OutOfMemory>>()?;
    Ok(tables)
}

/// Number of placement windows in `table`.
fn windows(table: &Table) -> usize {
    (table.slots() >> WINDOW_BITS).max(1)
}

/// Step 2 of [`prepopulated`]: routes the keys of `range` but key 0 into
/// one list per window of every table, where `first[shard]` indexes the
/// shard's first list and `count[shard]` is how many of the keys go to it.
fn route(
    tables: &[Table],
    first: &[usize],
    range: Range<u64>,
    count: &[u64],
) -> Result<Vec<Vec<u64>>, OutOfMemory> {
    let mut lists = Vec::new();
    lists.try_reserve_exact(first[tables.len()])?;
    for (table, &count) in tables.iter().zip(count) {
        // A list's length is binomial around `share`; the slack is several
        // standard deviations, so a list rarely grows.
        let share = count as usize / windows(table);
        for _ in 0..windows(table) {
            let mut list = Vec::new();
            list.try_reserve_exact(share + share / 8 + 32)?;
            lists.push(list);
        }
    }
    for key in range.start.max(1)..range.end {
        let shard = key_shard(key, tables.len());
        let home = tables[shard].home(key);
        let list = &mut lists[first[shard] + (home >> WINDOW_BITS)];
        list.try_reserve(1)?;
        list.push(key << WINDOW_BITS | (home & WINDOW_MASK) as u64);
    }
    Ok(lists)
}

/// The keys of `range` counted by the shard [`key_shard`] routes them to.
fn count_by_shard(range: Range<u64>, shards: usize) -> Vec<u64> {
    let mut counts = vec![0; shards];
    if shards == 1 {
        counts[0] = range.end - range.start;
    } else {
        for key in range {
            counts[key_shard(key, shards)] += 1;
        }
    }
    counts
}

/// `range` cut into `parts` (≥ 1) consecutive ranges of near-equal length.
fn split(range: Range<u64>, parts: usize) -> Vec<Range<u64>> {
    let len = range.end - range.start;
    let parts = parts as u64;
    (0..parts)
        .map(|i| {
            let at = |i: u64| range.start + (len / parts) * i + (len % parts).min(i);
            at(i)..at(i + 1)
        })
        .collect()
}

/// Runs `f` on every item, the first on the calling thread and each other
/// on a thread of its own, and returns the results in item order. One item
/// spawns nothing.
fn on_threads<I: Send, R: Send>(items: Vec<I>, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let mut items = items.into_iter();
        let here = items.next();
        // Spawn the others first, then run the first item here.
        let others: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let mut out: Vec<R> = here.map(f).into_iter().collect();
        for other in others {
            out.push(
                other
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A 16-slot table, so a few keys already share runs and wrap around.
    fn small() -> Table {
        Table::with_slots(MIN_SLOTS, RandomState::new()).unwrap()
    }

    #[test]
    fn sizing_matches_a_three_quarter_load_factor() {
        assert_eq!(slots_for(0), Some(MIN_SLOTS));
        assert_eq!(slots_for(12), Some(16));
        assert_eq!(slots_for(13), Some(32));
        assert_eq!(slots_for(1 << 20), Some(1 << 21));
        assert_eq!(slots_for(3 << 19), Some(1 << 21));
        assert_eq!(slots_for((3 << 19) + 1), Some(1 << 22));
        assert_eq!(slots_for(usize::MAX), None);
    }

    #[test]
    fn the_table_doubles_past_three_quarters() {
        let mut table = small();
        for key in 1..=12 {
            table.insert(key, [key; 4]);
        }
        assert_eq!(table.slots(), 16);
        table.insert(13, [13; 4]);
        assert_eq!(table.slots(), 32);
        assert!((1..=13).all(|key| table.get(key) == Some([key; 4])));
    }

    #[test]
    fn one_shards_keys_spread_over_its_home_slots() {
        // Every key of shard 0 of a 4-shard store shares the top two bits
        // of `key_hash`. Were the table's home built from those bits, its
        // keys would start probes at only a quarter of the slots; SipHash
        // spreads them over all of them.
        let keys: Vec<u64> = (1..200_000).filter(|&key| key_shard(key, 4) == 0).collect();
        let slots = slots_for(keys.len()).unwrap();
        let mut table = Table::with_slots(slots, RandomState::new()).unwrap();
        for &key in &keys {
            table.insert(key, prepopulated_value(key));
        }
        let displacement = |key: u64| {
            let slot = table.find(key).expect("every inserted key is found");
            slot.wrapping_sub(table.home(key)) & table.mask
        };
        let longest = keys.iter().map(|&key| displacement(key)).max().unwrap();
        let mean =
            keys.iter().map(|&key| displacement(key)).sum::<usize>() as f64 / keys.len() as f64;
        let mut homes: Vec<usize> = keys.iter().map(|&key| table.home(key)).collect();
        homes.sort_unstable();
        homes.dedup();
        assert!(longest < 64, "longest displacement {longest}");
        assert!(mean < 0.5, "mean displacement {mean}");
        assert!(
            homes.len() > slots / 4,
            "{} home slots of {slots}",
            homes.len()
        );
    }

    /// One step of the model test: put, merge, delete or get one key.
    /// Returns what the table and the model answered.
    fn step(
        op: u8,
        key: u64,
        word: u64,
        table: &mut Table,
        model: &mut HashMap<u64, Value>,
    ) -> (Option<Value>, Option<Value>) {
        match op {
            0 => {
                table.insert(key, [word, key, 0, 0]);
                model.insert(key, [word, key, 0, 0]);
                (None, None)
            }
            1 => {
                for value in [table.entry(key), model.entry(key).or_insert([0; 4])] {
                    value[0] = value[0].wrapping_add(word);
                    value[3] += 1;
                }
                (None, None)
            }
            2 => (table.remove(key), model.remove(&key)),
            _ => (table.get(key), model.get(&key).copied()),
        }
    }

    proptest! {
        #[test]
        fn the_table_behaves_like_a_hash_map(
            ops in proptest::collection::vec((0u8..4, 0u64..24, any::<u64>()), 0..200),
        ) {
            // Keys 0..22, 0 among them, and u64::MAX: at most 23 live keys
            // in 16 or 32 slots, so runs are long, wrap around the end, and
            // deletes shift entries back across it.
            let mut table = small();
            let mut model = HashMap::new();
            for (op, key, word) in ops {
                let key = if key == 23 { u64::MAX } else { key };
                let (got, want) = step(op, key, word, &mut table, &mut model);
                prop_assert_eq!(got, want, "op {} on key {}", op, key);
                prop_assert_eq!(table.len(), model.len());
            }
            let mut scanned: Vec<_> = table.iter().collect();
            let mut expected: Vec<_> = model.into_iter().collect();
            scanned.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(scanned, expected);
        }
    }
}
