//! The lock-discipline lint: a lexical scan of `crates/*/src` rejecting
//! patterns that bypass the catalog's waiting and instrumentation layers.
//!
//! Four rules, each with a path allowlist naming the modules that *are*
//! the sanctioned implementation site:
//!
//! * **bare-park** — `thread::park` / `park_timeout` outside `core::wait`
//!   (and the `core::sync` facade / schedcheck shims that implement it).
//!   Ad-hoc parking is how lost wakeups are born; all blocking goes through
//!   the futex eventcount's announce-snapshot-recheck protocol.
//! * **raw-spin** — `spin_loop(` / `yield_now(` outside `core::clock`'s
//!   `Backoff`. Raw spin loops bypass the `WaitStrategy` dispatch (and the
//!   scheduler's yield points under schedcheck).
//! * **raw-atomics** — `std::sync::atomic` mentioned inside a module that
//!   was migrated to the `core::sync` facade; going behind the facade's
//!   back makes the checker blind to those accesses.
//! * **raw-syscall** — `syscall(` / `SYS_futex` / `extern "C"` outside
//!   `bravo::sys`, the single audited owner of every foreign function the
//!   workspace calls. A second futex call site would dodge both the
//!   `futex_*` counters and the schedcheck virtual futex, making its
//!   wakeups invisible to the model checker; a second `extern "C"` block
//!   (an `mmap`, a `madvise`) would put `unsafe` FFI outside the audit.
//!
//! The scan is lexical by design: it reads lines, strips `//` comments, and
//! substring-matches. That catches the honest mistakes (someone pasting a
//! `std::thread::park()` wait loop) without needing a parser; reviewers
//! handle adversarial obfuscation.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One banned pattern plus the repo-relative path prefixes where it is
/// allowed (the implementation sites).
struct Rule {
    name: &'static str,
    patterns: &'static [&'static str],
    allow: &'static [&'static str],
    why: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        name: "bare-park",
        patterns: &["thread::park"],
        allow: &[
            "crates/core/src/wait.rs",
            "crates/core/src/sync.rs",
            "crates/schedcheck/",
            "crates/shims/",
        ],
        why: "blocking must go through core::wait::FutexEventCount \
              (announce-snapshot-recheck), not ad-hoc thread::park/park_timeout",
    },
    Rule {
        name: "raw-spin",
        patterns: &["spin_loop(", "yield_now("],
        allow: &[
            "crates/core/src/clock.rs",
            "crates/core/src/sync.rs",
            "crates/schedcheck/",
            "crates/shims/",
        ],
        why: "spin waits must use core::clock::Backoff / cpu_relax (WaitStrategy-aware, \
              instrumented under schedcheck), not raw spin_loop/yield_now",
    },
    Rule {
        name: "raw-atomics",
        // Only enforced inside the migrated modules, listed in MIGRATED.
        patterns: &["std::sync::atomic"],
        allow: &[],
        why: "this module was migrated to the core::sync facade; direct std::sync::atomic \
              bypasses schedcheck instrumentation",
    },
    Rule {
        name: "raw-syscall",
        patterns: &["syscall(", "SYS_futex", "extern \"C\""],
        allow: &["crates/core/src/sys.rs", "crates/schedcheck/"],
        why: "raw syscalls and foreign functions live in bravo::sys, the single audited \
              FFI seam; a second futex/epoll call site bypasses the futex_* counters and \
              the schedcheck virtual futex",
    },
];

/// Modules migrated to the `core::sync` facade; the `raw-atomics` rule
/// applies only here.
const MIGRATED: &[&str] = &[
    "crates/core/src/raw.rs",
    "crates/core/src/vrt.rs",
    "crates/core/src/wait.rs",
    "crates/core/src/lock.rs",
    "crates/core/src/policy.rs",
    "crates/rwlocks/src/mutex.rs",
    "crates/rwlocks/src/pf_q.rs",
    "crates/kvstore/src/memtable.rs",
];

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File, relative to the scanned root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (`bare-park`, `raw-spin`, `raw-atomics`, `raw-syscall`).
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub snippet: String,
    /// Why the pattern is banned.
    pub why: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.rule,
            self.snippet,
            self.why
        )
    }
}

fn is_allowed(rel: &str, allow: &[&str]) -> bool {
    allow.iter().any(|a| rel.starts_with(a))
}

/// Strips a line comment. Lexical: the first `//` outside nothing-fancy
/// wins; good enough for a discipline lint (URLs in strings lose their
/// tails, which only ever *reduces* matches).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn scan_file(root: &Path, path: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let text = fs::read_to_string(path)?;
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line);
        for rule in RULES {
            let in_scope = if rule.name == "raw-atomics" {
                MIGRATED.iter().any(|m| rel == *m)
            } else {
                !is_allowed(&rel, rule.allow)
            };
            if !in_scope {
                continue;
            }
            if rule.patterns.iter().any(|p| line.contains(p)) {
                out.push(Violation {
                    file: PathBuf::from(&rel),
                    line: idx + 1,
                    rule: rule.name,
                    snippet: raw_line.trim().to_string(),
                    why: rule.why,
                });
            }
        }
    }
    Ok(())
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            scan_file(root, &path, out)?;
        }
    }
    Ok(())
}

/// Lints every `crates/*/src` tree under `root` (the repo root). Returns
/// all violations, in path order.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for krate in crates {
        let src = krate.join("src");
        if src.is_dir() {
            walk(root, &src, &mut out)?;
        }
        // Nested layout (crates/shims/*): one level deeper.
        let mut nested: Vec<PathBuf> = fs::read_dir(&krate)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.join("src").is_dir())
            .collect();
        nested.sort();
        for sub in nested {
            walk(root, &sub.join("src"), &mut out)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_tree(name: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("schedcheck_lint_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/demo/src")).unwrap();
        root
    }

    #[test]
    fn every_migrated_path_exists() {
        // `scan_file` only matches files the walk visits, so an entry naming
        // a renamed or deleted module would silently drop out of the lint.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for path in MIGRATED {
            assert!(
                root.join(path).is_file(),
                "MIGRATED names a missing file: {path}"
            );
        }
    }

    #[test]
    fn planted_bare_park_is_rejected() {
        let root = temp_tree("park");
        fs::write(
            root.join("crates/demo/src/lib.rs"),
            "pub fn wait() {\n    std::thread::park();\n}\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "bare-park");
        assert_eq!(violations[0].line, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn planted_raw_spin_is_rejected_but_comments_are_not() {
        let root = temp_tree("spin");
        fs::write(
            root.join("crates/demo/src/lib.rs"),
            "// std::hint::spin_loop() in a comment is fine\n\
             pub fn busy() { std::hint::spin_loop(); }\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "raw-spin");
        assert_eq!(violations[0].line, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn allowlisted_sites_pass() {
        let root = temp_tree("allow");
        fs::create_dir_all(root.join("crates/core/src")).unwrap();
        fs::write(
            root.join("crates/core/src/wait.rs"),
            "pub fn park_here() { std::thread::park(); }\n",
        )
        .unwrap();
        fs::create_dir_all(root.join("crates/core/src")).unwrap();
        fs::write(
            root.join("crates/core/src/clock.rs"),
            "pub fn relax() { std::hint::spin_loop(); }\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn raw_atomics_only_fire_in_migrated_modules() {
        let root = temp_tree("atomics");
        // Unmigrated module: free to use std atomics.
        fs::write(
            root.join("crates/demo/src/lib.rs"),
            "use std::sync::atomic::AtomicUsize;\n",
        )
        .unwrap();
        // Migrated module: must go through the facade.
        fs::create_dir_all(root.join("crates/rwlocks/src")).unwrap();
        fs::write(
            root.join("crates/rwlocks/src/pf_q.rs"),
            "use std::sync::atomic::AtomicU64;\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "raw-atomics");
        assert!(violations[0].file.to_string_lossy().contains("pf_q.rs"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn planted_raw_syscall_is_rejected_outside_the_seam() {
        let root = temp_tree("syscall");
        fs::write(
            root.join("crates/demo/src/lib.rs"),
            "extern \"C\" { fn syscall(num: i64, ...) -> i64; }\n\
             pub fn nap(word: *const u32) { unsafe { syscall(202, word, 0, 0, 0) }; }\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.rule == "raw-syscall"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn the_sys_seam_is_allowed_to_invoke_syscalls() {
        let root = temp_tree("syscall_seam");
        fs::create_dir_all(root.join("crates/core/src")).unwrap();
        fs::write(
            root.join("crates/core/src/sys.rs"),
            "pub fn wake(word: *const u32) { unsafe { syscall(SYS_futex, word, 1, 1) }; }\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_foreign_function_block_is_rejected_outside_the_seam() {
        let root = temp_tree("extern");
        fs::write(
            root.join("crates/demo/src/lib.rs"),
            "extern \"C\" {\n    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;\n}\n",
        )
        .unwrap();
        fs::create_dir_all(root.join("crates/core/src")).unwrap();
        fs::write(
            root.join("crates/core/src/sys.rs"),
            "extern \"C\" {\n    fn munmap(addr: *mut u8, len: usize) -> i32;\n}\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "raw-syscall");
        assert_eq!(violations[0].line, 1);
        assert!(violations[0].file.to_string_lossy().contains("demo"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn nested_shim_layout_is_scanned_and_allowlisted() {
        let root = temp_tree("nested");
        fs::create_dir_all(root.join("crates/shims/fake/src")).unwrap();
        fs::write(
            root.join("crates/shims/fake/src/lib.rs"),
            "pub fn f() { std::thread::park(); }\n",
        )
        .unwrap();
        let violations = lint_tree(&root).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
