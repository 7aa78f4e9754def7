//! Odds and ends: digest, seeded PRNG, op tally, process facts.

/// FNV-1a, 64 bit — the digest pinned in `golden.json`.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.update(bytes);
        h.finish()
    }
}

/// SplitMix64: the request mix and sample indices are a function of the
/// seed alone.
pub struct Rng(u64);

/// Independent random streams drawn from one `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    SourceOrder = 1,
    TracedRows,
    MemoryTracedRows,
    RequestMix,
    HostWork,
}

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Self {
        Rng(seed ^ (stream as u64).wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Operations attempted and failed over a run: engine calls, requests and
/// equality checks alike.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed before the result.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` operations that succeeded (a failing one aborts the run
    /// through its `Err`).
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one equality check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Removes every `PEBBLE_*` variable, then points spill files (and any
/// other temp file) into `scratch` so that nothing is written outside the
/// checkout.
pub fn scrub_env(scratch: &std::path::Path) {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PEBBLE_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
    std::env::set_var("PEBBLE_SPILL_DIR", scratch);
    std::env::set_var("TMPDIR", scratch);
}

/// First line of a command's stdout, or `unknown`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
