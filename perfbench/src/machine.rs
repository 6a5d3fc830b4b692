//! Machine fingerprint, process memory, and how much the host disturbs a
//! run.

use std::path::Path;

/// CPU model, core count, worker-pool size, codegen flags, compiler,
/// git commit (when the tree is a git checkout) and a hash of the
/// program's sources.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "cpu=\"{cpu}\" nproc={nproc} NDS_THREADS={} pool_workers={} rustflags=\"{}\" \
         rustc=\"{}\" commit={} source_fnv64={:016x}",
        std::env::var("NDS_THREADS").unwrap_or_default(),
        nds_tensor::parallel::worker_count(),
        env!("PERFBENCH_RUSTFLAGS"),
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "none".to_string()),
        source_hash()
    )
}

/// The commit `.git/HEAD` resolves to, read without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the paths and bytes of the program's sources and build
/// settings, so runs of identical code can be matched without git.
fn source_hash() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "src", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    for file in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo/config.toml",
        "perfbench/Cargo.toml",
    ] {
        files.push(Path::new(file).to_path_buf());
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    hash
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Aggregate CPU time counters from `/proc/stat`: (steal, total).
pub fn cpu_steal_total() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Measures the host steal share between `start` and `now`.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_steal_total())
    }

    /// Steal share since `start` (0 when `/proc/stat` is unreadable).
    pub fn share(&self) -> f64 {
        match (self.0, cpu_steal_total()) {
            (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            _ => 0.0,
        }
    }
}

/// Times a fixed loop that stores to memory on every step, in
/// microseconds: how fast the host runs this process right now. On the
/// shared 2-vCPU host this benchmark was built on, slowdowns that steal
/// time does not show (a busy sibling hyperthread, contended caches)
/// stretched a store-bound loop up to five times while register-only
/// loops barely moved.
pub fn probe_us() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0u64;
    for i in 0..PROBE_ITERATIONS {
        // Through an opaque reference, so every step loads and stores.
        let slot = std::hint::black_box(&mut x);
        *slot = slot.wrapping_add(i);
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// About 0.1 ms on an undisturbed core.
const PROBE_ITERATIONS: u64 = 40_000;

/// How much the host disturbed one part of a run: the steal share over
/// it and the median of the probes taken in it.
#[derive(Debug, Clone, Copy)]
pub struct Disturbance {
    pub steal: f64,
    pub probe_us: f64,
}

/// Collects a [`Disturbance`] over one part of a run.
#[derive(Debug)]
pub struct PartMeter {
    steal: StealMeter,
    probes: Vec<f64>,
}

impl PartMeter {
    pub fn start() -> PartMeter {
        PartMeter {
            steal: StealMeter::start(),
            probes: Vec::new(),
        }
    }

    pub fn probe(&mut self) {
        self.probes.push(probe_us());
    }

    pub fn finish(mut self) -> Disturbance {
        if self.probes.is_empty() {
            self.probe();
        }
        Disturbance {
            steal: self.steal.share(),
            probe_us: crate::stats::median(&self.probes),
        }
    }
}

/// The least disturbed `1/fraction` (rounded up) of `parts`, each paired
/// with a disturbance score (a steal share or a probe time; lower is
/// quieter): the parts of a run the host disturbed least.
pub fn cleanest<T>(mut parts: Vec<(f64, T)>, fraction: usize) -> Vec<T> {
    parts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = parts.len().div_ceil(fraction);
    parts.into_iter().take(keep).map(|(_, part)| part).collect()
}
