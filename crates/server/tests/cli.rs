//! `bravod serve` as a process: what it prints once serving, and how it
//! fails when the store cannot be loaded.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const BRAVOD: &str = env!("CARGO_BIN_EXE_bravod");

#[test]
fn serve_reports_how_long_the_load_took() {
    let mut child = Command::new(BRAVOD)
        .args(["serve", "--addr", "127.0.0.1:0", "--keys", "1000"])
        .args(["--lock", "BRAVO-BA?shards=2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bravod");
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().unwrap()).read_line(&mut line);
    child.kill().expect("kill bravod");
    child.wait().expect("reap bravod");
    read.expect("read the serving line");
    assert!(line.starts_with("bravod: serving "), "{line}");
    let seconds = line
        .trim_end()
        .strip_suffix(" s")
        .and_then(|l| l.rsplit_once("loaded in "))
        .map(|(_, s)| s.parse::<f64>());
    assert!(matches!(seconds, Some(Ok(s)) if s >= 0.0), "{line}");
}

#[test]
fn serve_exits_2_when_the_store_cannot_be_allocated() {
    let out = Command::new(BRAVOD)
        .args(["serve", "--addr", "127.0.0.1:0", "--keys"])
        .arg((1u64 << 44).to_string())
        .output()
        .expect("run bravod");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot allocate a store of"), "{stderr}");
}
