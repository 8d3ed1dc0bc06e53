//! Declarative lock construction and instrumentation: [`LockSpec`] and
//! [`LockHandle`].
//!
//! The paper's central claim is that BRAVO is a *policy layer* wrapped
//! around any reader-writer lock, tuned by two knobs it sweeps explicitly:
//! the bias policy (`N`, the inhibit window) and the visible-readers-table
//! layout (one global table vs. the sectored BRAVO-2D variant). A
//! [`LockSpec`] captures exactly that tuple — *which lock, configured how* —
//! as a value that round-trips through a compact string form, so every
//! benchmark binary can accept a uniform `--lock SPEC` flag and a scenario
//! sweep is just a list of strings:
//!
//! ```text
//! BRAVO-BA
//! BRAVO-BA?n=99
//! BRAVO-BA?bias=disabled
//! BRAVO-BA?table=private:4096
//! BRAVO-2D-BA?table=sectored:4x256
//! ```
//!
//! Grammar: `KIND[?param&param...]` with parameters
//!
//! | key | values | selects |
//! |-----|--------|---------|
//! | `n` | integer | [`BiasPolicy::InhibitUntil`] with that multiplier |
//! | `bias` | `disabled` | [`BiasPolicy::Disabled`]: bias is never enabled |
//! | `table` | `global`, `private:<slots>`, `sectored:<sectors>x<slots>` | the [`TableSpec`] |
//! | `wait` | `spin`, `park`, `futex` | the [`WaitMode`] contended waiters use (parking queues or kernel futex sleeps instead of spinning; `futex` falls back to `park` where the syscall is unavailable; a kind that blocks in a way of its own rejects any mode but `spin`) |
//! | `shards` | integer ≥ 1 | how many key-hashed data shards a spec-driven store (e.g. `kvstore::Db`) partitions itself into, each shard guarded by its own lock built from this spec; `1` (the default) keeps the single-lock layout |
//!
//! A spec is resolved into a live lock by the catalog (`rwlocks::catalog`),
//! which returns a [`LockHandle`]: the harness-facing object carrying the
//! spec, its display label, the lock itself behind the [`RawTryRwLock`]
//! interface, and the lock's own statistics channel.

use std::str::FromStr;
use std::sync::Arc;

use crate::policy::{BiasPolicy, DEFAULT_INHIBIT_MULTIPLIER};
use crate::raw::{RawTryRwLock, TryLockError};
use crate::stats::{Snapshot, StatsSink};
use crate::wait::WaitMode;

/// Layout of the visible readers table a BRAVO composite publishes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableSpec {
    /// The process-global table shared by all locks (the paper's production
    /// embodiment; zero per-lock table state).
    #[default]
    Global,
    /// A table owned by this lock instance — the idealized per-instance
    /// comparator of the paper's Figure 1, immune to inter-lock conflicts.
    Private {
        /// Number of slots (rounded up to a power of two at construction).
        slots: usize,
    },
    /// A sectored (BRAVO-2D) table owned by this lock instance: `sectors`
    /// rows of `slots` columns, writers revoke by scanning one column.
    Sectored {
        /// Number of rows (one per logical CPU in the global default).
        sectors: usize,
        /// Slots per row (rounded up to a power of two at construction).
        slots: usize,
    },
}

impl TableSpec {
    /// Whether this layout resolves to a *process-shared* table (one table
    /// for every lock built with the same spec) rather than a table owned
    /// per lock instance. The interference experiment requires a shared
    /// base layout — an owned base would be interference-free by
    /// construction.
    pub fn is_process_shared(&self) -> bool {
        matches!(self, TableSpec::Global)
    }
}

impl std::fmt::Display for TableSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableSpec::Global => f.write_str("global"),
            TableSpec::Private { slots } => write!(f, "private:{slots}"),
            TableSpec::Sectored { sectors, slots } => write!(f, "sectored:{sectors}x{slots}"),
        }
    }
}

/// A declarative description of one lock: algorithm, bias policy, table
/// layout, wait mode and store sharding.
///
/// Construct with [`LockSpec::new`] plus the `with_*` builder methods, or
/// parse the compact string form (see the [module docs](self)); `Display`
/// emits the same form back (omitting parameters at their defaults), so
/// specs round-trip and double as result-table labels.
///
/// ```
/// use bravo::spec::{LockSpec, TableSpec};
///
/// let spec: LockSpec = "BRAVO-2D-BA?n=99&table=sectored:4x256&wait=park"
///     .parse()
///     .unwrap();
/// assert_eq!(spec.kind(), "BRAVO-2D-BA");
/// assert_eq!(spec.table(), TableSpec::Sectored { sectors: 4, slots: 256 });
///
/// // Display omits defaults, so any result-table label round-trips.
/// assert_eq!(spec.to_string(), "BRAVO-2D-BA?n=99&table=sectored:4x256&wait=park");
/// assert_eq!(spec.to_string().parse::<LockSpec>().unwrap(), spec);
///
/// // Explicitly-spelled defaults collapse back to the bare kind...
/// let plain: LockSpec = "BA?n=9&wait=spin&shards=1".parse().unwrap();
/// assert_eq!(plain, LockSpec::new("BA"));
/// assert_eq!(plain.to_string(), "BA");
///
/// // ...and malformed specs are rejected, never silently ignored.
/// assert!("BA?frobnicate=1".parse::<LockSpec>().is_err());
/// assert!("BRAVO-BA?shards=0".parse::<LockSpec>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockSpec {
    kind: String,
    bias: BiasPolicy,
    table: TableSpec,
    wait: WaitMode,
    shards: usize,
}

impl LockSpec {
    /// A spec for the named algorithm with the paper-default bias policy,
    /// the global table and spinning waiters.
    ///
    /// `kind` is the catalog name (e.g. `"BRAVO-BA"`); it is validated when
    /// the spec is built into a lock, not here.
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            bias: BiasPolicy::paper_default(),
            table: TableSpec::Global,
            wait: WaitMode::Spin,
            shards: 1,
        }
    }

    /// Replaces the bias policy.
    pub fn with_bias(mut self, bias: BiasPolicy) -> Self {
        self.bias = bias;
        self
    }

    /// Replaces the table layout.
    pub fn with_table(mut self, table: TableSpec) -> Self {
        self.table = table;
        self
    }

    /// Replaces the wait mode contended waiters use.
    pub fn with_wait(mut self, wait: WaitMode) -> Self {
        self.wait = wait;
        self
    }

    /// Replaces the data-shard count a spec-driven store partitions itself
    /// into (each shard gets its own lock built from this spec). Panics on
    /// zero: a store needs at least one shard to put the data somewhere.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a spec needs at least one data shard");
        self.shards = shards;
        self
    }

    /// The algorithm name.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The bias policy.
    pub fn bias(&self) -> BiasPolicy {
        self.bias
    }

    /// The table layout.
    pub fn table(&self) -> TableSpec {
        self.table
    }

    /// The wait mode contended waiters use.
    pub fn wait(&self) -> WaitMode {
        self.wait
    }

    /// How many key-hashed data shards a spec-driven store partitions
    /// itself into (1 — the default — means the single-lock layout). This
    /// knob configures the *store around* the lock, not the lock itself:
    /// the catalog builds one independent lock per shard from the same
    /// spec.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl From<&LockSpec> for LockSpec {
    fn from(spec: &LockSpec) -> Self {
        spec.clone()
    }
}

impl std::fmt::Display for LockSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.kind)?;
        let mut sep = '?';
        let mut param = |f: &mut std::fmt::Formatter<'_>, text: String| {
            let r = write!(f, "{sep}{text}");
            sep = '&';
            r
        };
        match self.bias {
            BiasPolicy::InhibitUntil {
                n: DEFAULT_INHIBIT_MULTIPLIER,
            } => {}
            BiasPolicy::InhibitUntil { n } => param(f, format!("n={n}"))?,
            BiasPolicy::Disabled => param(f, "bias=disabled".to_string())?,
        }
        if self.table != TableSpec::Global {
            param(f, format!("table={}", self.table))?;
        }
        if self.wait != WaitMode::Spin {
            param(f, format!("wait={}", self.wait))?;
        }
        if self.shards != 1 {
            param(f, format!("shards={}", self.shards))?;
        }
        Ok(())
    }
}

/// Error parsing the compact string form of a [`LockSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    message: String,
}

impl SpecParseError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid lock spec: {}", self.message)
    }
}

impl std::error::Error for SpecParseError {}

impl FromStr for LockSpec {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, params) = match s.split_once('?') {
            Some((kind, params)) => (kind, Some(params)),
            None => (s, None),
        };
        let kind = kind.trim();
        if kind.is_empty() {
            return Err(SpecParseError::new("empty lock kind"));
        }
        if kind.contains(['&', '=', ' ']) {
            return Err(SpecParseError::new(format!(
                "lock kind '{kind}' contains a reserved character"
            )));
        }
        let mut spec = LockSpec::new(kind);
        let Some(params) = params else {
            return Ok(spec);
        };
        for param in params.split('&') {
            let Some((key, value)) = param.split_once('=') else {
                return Err(SpecParseError::new(format!(
                    "parameter '{param}' is not of the form key=value"
                )));
            };
            match key.trim() {
                "n" => {
                    let n = value.trim().parse::<u64>().map_err(|_| {
                        SpecParseError::new(format!("n must be an integer, got '{value}'"))
                    })?;
                    spec.bias = BiasPolicy::InhibitUntil { n };
                }
                "bias" => {
                    if value.trim() != "disabled" {
                        return Err(SpecParseError::new(format!(
                            "bias must be 'disabled', got '{value}'"
                        )));
                    }
                    spec.bias = BiasPolicy::Disabled;
                }
                "table" => {
                    spec.table = parse_table(value.trim())?;
                }
                "wait" => {
                    spec.wait = value.trim().parse::<WaitMode>().map_err(|_| {
                        SpecParseError::new(format!(
                            "wait must be 'spin', 'park' or 'futex', got '{value}'"
                        ))
                    })?;
                }
                "shards" => {
                    let shards = value.trim().parse::<usize>().map_err(|_| {
                        SpecParseError::new(format!("shards must be an integer, got '{value}'"))
                    })?;
                    if shards == 0 {
                        return Err(SpecParseError::new("shards must be at least 1"));
                    }
                    spec.shards = shards;
                }
                other => {
                    return Err(SpecParseError::new(format!(
                        "unknown parameter '{other}' (expected n, bias, table, wait or shards)"
                    )));
                }
            }
        }
        Ok(spec)
    }
}

fn parse_table(value: &str) -> Result<TableSpec, SpecParseError> {
    if value == "global" {
        return Ok(TableSpec::Global);
    }
    if let Some(slots) = value.strip_prefix("private:") {
        let slots = slots.parse::<usize>().map_err(|_| {
            SpecParseError::new(format!("private table size '{slots}' is not an integer"))
        })?;
        if slots == 0 {
            return Err(SpecParseError::new("private table size must be at least 1"));
        }
        return Ok(TableSpec::Private { slots });
    }
    if let Some(geometry) = value.strip_prefix("sectored:") {
        let (sectors, slots) = parse_geometry("sectored", geometry)?;
        return Ok(TableSpec::Sectored { sectors, slots });
    }
    Err(SpecParseError::new(format!(
        "table must be 'global', 'private:<slots>' or 'sectored:<sectors>x<slots>', \
         got '{value}'"
    )))
}

/// Parses a `<a>x<b>` table geometry, rejecting zero dimensions.
fn parse_geometry(layout: &str, geometry: &str) -> Result<(usize, usize), SpecParseError> {
    let Some((a, b)) = geometry.split_once('x') else {
        return Err(SpecParseError::new(format!(
            "{layout} table geometry '{geometry}' is not of the form <a>x<b>"
        )));
    };
    let a = a.parse::<usize>().map_err(|_| {
        SpecParseError::new(format!(
            "{layout} geometry component '{a}' is not an integer"
        ))
    })?;
    let b = b.parse::<usize>().map_err(|_| {
        SpecParseError::new(format!(
            "{layout} geometry component '{b}' is not an integer"
        ))
    })?;
    if a == 0 || b == 0 {
        return Err(SpecParseError::new(format!(
            "{layout} table geometry must be at least 1x1"
        )));
    }
    Ok((a, b))
}

/// Error turning a (syntactically valid) [`LockSpec`] into a live lock.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec's kind names no algorithm in the catalog.
    UnknownKind {
        /// The unrecognized kind string.
        kind: String,
        /// The catalog's valid kind names, for the error message.
        known: Vec<&'static str>,
    },
    /// The spec's table layout is not supported by this algorithm (any
    /// non-global table on a lock that is not a BRAVO composite — BRAVO
    /// composites accept every layout) or by this workload (e.g. an owned
    /// layout as the interference experiment's shared base).
    UnsupportedTable {
        /// The algorithm the spec named.
        kind: String,
        /// The offending layout.
        table: TableSpec,
    },
    /// The spec sets a bias policy but the algorithm is not a BRAVO
    /// composite, so the policy could never take effect.
    UnsupportedBias {
        /// The algorithm the spec named.
        kind: String,
    },
    /// The spec sets a wait mode but the algorithm blocks in a way of its
    /// own, so the mode could never take effect.
    UnsupportedWait {
        /// The algorithm the spec named.
        kind: String,
        /// The mode the spec set.
        wait: WaitMode,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownKind { kind, known } => {
                write!(
                    f,
                    "unknown lock kind '{kind}'; known kinds: {}",
                    known.join(", ")
                )
            }
            SpecError::UnsupportedTable { kind, table } => {
                write!(
                    f,
                    "lock kind '{kind}' does not support table layout '{table}'"
                )
            }
            SpecError::UnsupportedBias { kind } => {
                write!(
                    f,
                    "lock kind '{kind}' is not a BRAVO composite; a bias policy has no effect on it"
                )
            }
            SpecError::UnsupportedWait { kind, wait } => {
                write!(
                    f,
                    "lock kind '{kind}' blocks in a way of its own; wait={wait} has no effect on it"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A live lock built from a [`LockSpec`]: the object the benchmark harness
/// passes around.
///
/// The handle carries the spec it was built from, a display label for result
/// tables, the lock behind the [`RawTryRwLock`] interface (which every
/// cataloged algorithm implements, so every handle has an honest try path)
/// and the lock's statistics channel. Cloning is cheap (the lock is shared).
#[derive(Clone)]
pub struct LockHandle {
    spec: LockSpec,
    label: String,
    lock: Arc<dyn RawTryRwLock>,
    stats: StatsSink,
}

impl LockHandle {
    /// Wraps a lock built from `spec`, recording into `stats`.
    pub fn from_try_lock<L>(spec: LockSpec, lock: Arc<L>, stats: StatsSink) -> Self
    where
        L: RawTryRwLock + 'static,
    {
        let label = spec.to_string();
        Self {
            spec,
            label,
            lock,
            stats,
        }
    }

    /// The spec this lock was built from.
    pub fn spec(&self) -> &LockSpec {
        &self.spec
    }

    /// Returns a handle sharing this lock (and its statistics channel) but
    /// carrying a different display label.
    ///
    /// This is the labelling surface multi-client harnesses use: the
    /// `bravod` server hands each connection a relabelled clone (e.g. `BRAVO-BA@conn7`) so per-connection log lines
    /// and result rows stay distinguishable. Note the statistics are *not*
    /// split: every clone records into — and snapshots — the one shared
    /// per-lock sink.
    pub fn labeled(&self, label: impl Into<String>) -> LockHandle {
        LockHandle {
            label: label.into(),
            ..self.clone()
        }
    }

    /// The display label for result tables (the spec's compact string form).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The lock's statistics sink.
    pub fn stats(&self) -> &StatsSink {
        &self.stats
    }

    /// The lock's statistics: its own counters for a lock the catalog
    /// built (every such lock has a per-lock sink), the process totals for
    /// a handle wrapped around a [`StatsSink::Global`] sink.
    pub fn snapshot(&self) -> Snapshot {
        self.stats.snapshot()
    }

    /// Acquires shared (read) permission, blocking until granted.
    pub fn lock_shared(&self) {
        self.lock.lock_shared();
    }

    /// Releases shared permission.
    ///
    /// The thread that acquired the read must release it. A BRAVO lock
    /// re-derives its table slot from (lock, thread id), so a thread id
    /// must also never be reused while its thread holds a read.
    pub fn unlock_shared(&self) {
        self.lock.unlock_shared();
    }

    /// Acquires exclusive (write) permission, blocking until granted.
    pub fn lock_exclusive(&self) {
        self.lock.lock_exclusive();
    }

    /// Releases exclusive permission.
    pub fn unlock_exclusive(&self) {
        self.lock.unlock_exclusive();
    }

    /// Attempts to acquire shared permission without blocking.
    pub fn try_lock_shared(&self) -> Result<(), TryLockError> {
        self.lock.try_lock_shared()
    }

    /// Attempts to acquire exclusive permission without blocking
    /// indefinitely (implementations may use a short bounded wait).
    pub fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        self.lock.try_lock_exclusive()
    }
}

impl std::fmt::Debug for LockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockHandle")
            .field("label", &self.label)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{DefaultRwLock, RawRwLock};

    #[test]
    fn default_spec_prints_just_the_kind() {
        let spec = LockSpec::new("BRAVO-BA");
        assert_eq!(spec.to_string(), "BRAVO-BA");
        assert_eq!(spec.bias(), BiasPolicy::paper_default());
        assert_eq!(spec.table(), TableSpec::Global);
    }

    #[test]
    fn issue_example_parses() {
        let spec: LockSpec = "BRAVO-BA?n=9&table=sectored:4x256".parse().unwrap();
        assert_eq!(spec.kind(), "BRAVO-BA");
        assert_eq!(spec.bias(), BiasPolicy::InhibitUntil { n: 9 });
        assert_eq!(
            spec.table(),
            TableSpec::Sectored {
                sectors: 4,
                slots: 256
            }
        );
    }

    #[test]
    fn non_default_params_round_trip() {
        let specs = [
            LockSpec::new("BA"),
            LockSpec::new("BRAVO-BA").with_bias(BiasPolicy::InhibitUntil { n: 99 }),
            LockSpec::new("BRAVO-BA").with_bias(BiasPolicy::Disabled),
            LockSpec::new("BRAVO-BA").with_table(TableSpec::Private { slots: 4096 }),
            LockSpec::new("BRAVO-2D-BA").with_table(TableSpec::Sectored {
                sectors: 4,
                slots: 256,
            }),
            LockSpec::new("BA").with_wait(WaitMode::Park),
            LockSpec::new("BRAVO-BA").with_wait(WaitMode::Park),
            LockSpec::new("BRAVO-BA").with_shards(8),
            LockSpec::new("BA").with_wait(WaitMode::Park).with_shards(4),
            LockSpec::new("BA").with_wait(WaitMode::Futex),
            LockSpec::new("BRAVO-BA").with_wait(WaitMode::Futex),
            LockSpec::new("BRAVO-BA")
                .with_wait(WaitMode::Futex)
                .with_shards(8),
            LockSpec::new("BRAVO-BA")
                .with_bias(BiasPolicy::InhibitUntil { n: 3 })
                .with_table(TableSpec::Private { slots: 64 })
                .with_wait(WaitMode::Park)
                .with_shards(16),
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: LockSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, spec, "{text} did not round-trip");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for text in [
            "",
            "?n=9",
            "BA?",
            "BA?n",
            "BA?n=x",
            "BA?frobnicate=1",
            "BA?table=sectored:4",
            "BA?table=private:0",
            "BA?table=sectored:0x8",
            "BA?table=numa",
            "BA?table=numa:2x1024",
            "BA?table=numa:2",
            "BA?table=numa:0x64",
            "BA?table=numa:2x0",
            "BA?table=numa:axb",
            "BA?bias=sometimes",
            "BRAVO-BA?bias=bernoulli:100",
            "BRAVO-BA?bias=inhibit:9",
            "BA?stats=maybe",
            "BA?stats=global",
            "BA?stats=per-lock",
            "BA?wait=swim",
            "BA?wait=",
            "BA?shards=0",
            "BA?shards=x",
            "BA?shards=",
            "B A?n=9",
        ] {
            assert!(
                text.parse::<LockSpec>().is_err(),
                "'{text}' should not parse"
            );
        }
    }

    #[test]
    fn only_the_global_layout_is_process_shared() {
        assert!(TableSpec::Global.is_process_shared());
        assert!(!TableSpec::Private { slots: 64 }.is_process_shared());
        assert!(!TableSpec::Sectored {
            sectors: 4,
            slots: 64
        }
        .is_process_shared());
        // A removed layout is rejected with the layouts that remain.
        let err = "BRAVO-BA?table=numa:2x1024"
            .parse::<LockSpec>()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("'global', 'private:<slots>' or 'sectored:<sectors>x<slots>'"),
            "{err}"
        );
        let (listed, _) = err.split_once(", got").unwrap();
        assert!(!listed.contains("numa"), "{err}");
    }

    #[test]
    fn labeled_handles_share_the_lock_and_sink() {
        let spec = LockSpec::new("default-spin");
        let handle =
            LockHandle::from_try_lock(spec, Arc::new(DefaultRwLock::new()), StatsSink::per_lock());
        let conn = handle.labeled("default-spin@conn3");
        assert_eq!(conn.label(), "default-spin@conn3");
        assert_eq!(handle.label(), "default-spin");
        // Same underlying lock: an exclusive hold through one handle blocks
        // try-acquisition through the other.
        conn.lock_exclusive();
        assert!(handle.try_lock_shared().is_err());
        conn.unlock_exclusive();
        // Same statistics channel: events recorded through the relabelled
        // clone are visible through the original.
        conn.stats().record_fast_read(topology::current_thread_id());
        assert_eq!(handle.snapshot().fast_reads, 1);
    }

    #[test]
    fn explicit_defaults_parse_to_the_default_spec() {
        let spec: LockSpec = "BA?n=9&table=global&wait=spin&shards=1".parse().unwrap();
        assert_eq!(spec, LockSpec::new("BA"));
    }

    #[test]
    fn shards_knob_parses_prints_and_defaults() {
        let spec: LockSpec = "BRAVO-BA?shards=8".parse().unwrap();
        assert_eq!(spec.shards(), 8);
        assert_eq!(spec.to_string(), "BRAVO-BA?shards=8");
        // The default is a single shard and prints nothing.
        assert_eq!(LockSpec::new("BRAVO-BA").shards(), 1);
        assert_eq!(LockSpec::new("BRAVO-BA").to_string(), "BRAVO-BA");
        // Composes with the other knobs in Display order.
        let spec: LockSpec = "BRAVO-BA?n=3&wait=park&shards=4".parse().unwrap();
        assert_eq!(spec.shards(), 4);
        assert_eq!(spec.to_string(), "BRAVO-BA?n=3&wait=park&shards=4");
    }

    #[test]
    fn wait_knob_parses_and_prints() {
        let spec: LockSpec = "BRAVO-BA?wait=park".parse().unwrap();
        assert_eq!(spec.wait(), WaitMode::Park);
        assert_eq!(spec.to_string(), "BRAVO-BA?wait=park");
        let futex: LockSpec = "BA?wait=futex".parse().unwrap();
        assert_eq!(futex.wait(), WaitMode::Futex);
        assert_eq!(futex.to_string(), "BA?wait=futex");
        let spin: LockSpec = "BA?wait=spin".parse().unwrap();
        assert_eq!(spin.to_string(), "BA");
    }

    #[test]
    fn disabled_is_the_only_bias_value() {
        // `n=<n>` is the one spelling of inhibit-until, so `bias=` takes
        // only `disabled` and names nothing else when it rejects a value.
        for value in ["bernoulli:100", "inhibit:9"] {
            let err = format!("BRAVO-BA?bias={value}")
                .parse::<LockSpec>()
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid lock spec: bias must be 'disabled', got '{value}'")
            );
        }
    }

    #[test]
    fn adapt_is_an_unknown_parameter() {
        // The bias policy alone decides when bias returns: `adapt` is no
        // key, so it fails like any typo and the error lists the real keys.
        let key = "adapt";
        for value in ["on", "off"] {
            let err = format!("BRAVO-BA?{key}={value}")
                .parse::<LockSpec>()
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid lock spec: unknown parameter 'adapt' (expected n, bias, table, wait \
                 or shards)"
            );
        }
    }

    #[test]
    fn handle_delegates_and_reports_capability() {
        let handle = LockHandle::from_try_lock(
            LockSpec::new("default-spin"),
            Arc::new(DefaultRwLock::new()),
            StatsSink::per_lock(),
        );
        assert_eq!(handle.label(), "default-spin");
        handle.lock_shared();
        assert!(handle.try_lock_exclusive().is_err());
        handle.unlock_shared();
        assert!(handle.try_lock_exclusive().is_ok());
        handle.unlock_exclusive();
        handle.lock_exclusive();
        assert_eq!(handle.try_lock_shared(), Err(TryLockError::WouldBlock));
        handle.unlock_exclusive();
    }

    #[test]
    fn per_lock_handles_have_independent_snapshots() {
        let spec = LockSpec::new("default-spin");
        let a = LockHandle::from_try_lock(
            spec.clone(),
            Arc::new(DefaultRwLock::new()),
            StatsSink::per_lock(),
        );
        let b = LockHandle::from_try_lock(
            spec.clone(),
            Arc::new(DefaultRwLock::new()),
            StatsSink::per_lock(),
        );
        a.stats().record_fast_read(topology::current_thread_id());
        assert_eq!(a.snapshot().fast_reads, 1);
        assert_eq!(b.snapshot().fast_reads, 0);
    }
}
