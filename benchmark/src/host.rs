//! Host fingerprint: what a reader needs to know before comparing a
//! result file with one made elsewhere.

use crate::json::Json;
use std::process::Command;

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checked-out commit, read from `.git` directly: the benchmark may
/// run in a plain copy of the tree, where there is nothing to ask.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

pub fn fingerprint() -> Json {
    let or_unknown = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        (
            "available_parallelism",
            Json::Num(available_parallelism() as f64),
        ),
        ("cpu_model", or_unknown(cpu_model())),
        ("rustc", or_unknown(rustc_version())),
        ("git_commit", or_unknown(git_commit())),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}
