//! Host fingerprint for the report header, and the process's peak
//! resident set.

/// `nproc` as the standard library sees it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine worker threads: one core is left to the client thread, because
/// a generator that shares a core with a worker measures the scheduler.
pub fn engine_workers() -> usize {
    cores().saturating_sub(1).max(1)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let field = proc_field("/proc/self/status", "VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = field
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM {field:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// `(key, value)` lines identifying the host, the toolchain and the
/// code measured. `run.sh` passes the compiler version and the git
/// state through the environment; outside it they read `unknown`.
pub fn fingerprint(seed: u64, avx2: bool, train_threads: usize) -> Vec<(String, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    [
        (
            "cpu",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("nproc", cores().to_string()),
        ("avx2", avx2.to_string()),
        ("rustc", env("VSAN_BENCH_RUSTC")),
        ("git_commit", env("VSAN_BENCH_GIT_COMMIT")),
        ("git_dirty", env("VSAN_BENCH_GIT_DIRTY")),
        ("engine_workers", engine_workers().to_string()),
        ("train_threads", train_threads.to_string()),
        ("seed", seed.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}
