//! The stamp every result carries: host, runtime threads per workload,
//! commit and seed.

use crate::Args;
use std::path::{Path, PathBuf};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runtime threads a workload runs with. The grid and the inference zoo
/// use every CPU: on a 2-vCPU shared host the zoo at one thread flipped
/// between a fast and a slow mode from run to run (quartile spread of the
/// round p50 0.38 over ten runs), at two threads it held within 0.03. The
/// serving workloads leave one CPU to the spinning open-loop driver, so
/// driver plus runtime workers never exceed `nproc`; at `nproc = 2` that is
/// one runtime thread, which executes batches inline on the driver.
pub fn threads_for(workload: &str) -> usize {
    match workload {
        "grid-cifar-vgg" | "infer-zoo" => nproc(),
        _ => nproc().saturating_sub(1).max(1),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `PERFBENCH_COMMIT` if set, else the checkout's `.git` HEAD, else
/// `"unknown"` (a plain source export has no git metadata; the source
/// fingerprint below still identifies the code).
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            std::fs::read_to_string(git.join("packed-refs"))
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(String::from))
                })
        }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    resolved
        .map(|c| c.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// FNV-1a over the path and bytes of every `.rs`/`.toml` file under
/// `crates/` plus the root manifest and lock file: identifies the code
/// under test when no git metadata is available.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.toml"));
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// One JSON line stamping the run.
pub fn stamp_line(args: &Args) -> String {
    let threads: Vec<String> = crate::WORKLOADS
        .iter()
        .map(|w| format!("{}: {}", json_str(w), threads_for(w)))
        .collect();
    format!(
        "{{\"stamp\": {{\"nproc\": {}, \"cpu\": {}, \"commit\": {}, \"source_fnv\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"runtime_threads\": {{{}}}}}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(&commit()),
        json_str(&source_fingerprint()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        threads.join(", ")
    )
}
