//! Process and host measurements the benchmark reads from outside the
//! program: CPU time, peak resident memory, bytes on disk, and the
//! environment stanza printed with every result.

use std::path::Path;
use std::process::Command;

/// Environment variables that silently change how the store scans or
/// commits.  A run with any of them set is refused, so two runs can never
/// differ in configuration without saying so.
const FORBIDDEN_ENV: [&str; 3] = [
    "SUBZERO_SCAN_MODE",
    "SUBZERO_SCAN_CHUNK",
    "SUBZERO_FAILPOINT",
];

/// Refuses to run under a store-configuration override.
pub fn refuse_env_overrides() -> Result<(), String> {
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            return Err(format!(
                "{name} is set: the benchmark only measures the default store configuration"
            ));
        }
    }
    Ok(())
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI; there is no libc here to ask `sysconf`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time of this process (all threads, including ones that
/// have exited) in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm field: state is index 0, utime index 11, stime index 12.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) * 1000.0 / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) if m.is_file() => m.len(),
            _ => 0,
        })
        .sum()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
pub fn commit_hash() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// FNV-1a over a stream of `u64`s: the checksum of answer cell sets.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own seeded picker for query cells and
/// synthetic lineage (independent of the program's `rand` shim).
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
