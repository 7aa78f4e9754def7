//! # pebble-bench — harness regenerating every table and figure
//!
//! Each evaluation artifact of the paper has a corresponding binary that
//! prints the same rows/series (we reproduce *shapes*, not the authors'
//! cluster absolute numbers — see EXPERIMENTS.md):
//!
//! | artifact | binary | criterion bench |
//! |---|---|---|
//! | Fig. 6 (capture overhead, Twitter) | `fig6` | `fig6_capture_twitter` |
//! | Fig. 7 (capture overhead, DBLP) | `fig7` | `fig7_capture_dblp` |
//! | Fig. 8 (provenance size) | `fig8` | — (size, not time) |
//! | Fig. 9 (eager vs lazy querying) | `fig9` | `fig9_query` |
//! | §7.3.4 (Titian comparison) | `titian_cmp` | `titian_cmp` |
//! | Fig. 10 (usage heatmap) | `fig10_heatmap` | — |
//! | Sec. 2 (annotation counts) | `annotations` | — |
//!
//! Scale is controlled by `PEBBLE_SCALE` (default 1): the five dataset
//! steps mirror the paper's 100…500 GB as `scale·(base, 2·base, …,
//! 5·base)` items.

use std::time::{Duration, Instant};

use pebble_dataflow::ExecConfig;

/// Base item count per "100 GB" step for the Twitter dataset.
pub const TWITTER_BASE: usize = 2_000;
/// Base item count per "100 GB" step for the DBLP dataset (narrower
/// records ⇒ many more items per gigabyte, as in the paper).
pub const DBLP_BASE: usize = 6_000;

/// Reads the scale factor from `PEBBLE_SCALE` (default 1).
pub fn scale() -> usize {
    std::env::var("PEBBLE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// The five dataset sizes mirroring 100 GB … 500 GB.
pub fn steps(base: usize) -> Vec<usize> {
    (1..=5).map(|i| i * base * scale()).collect()
}

/// Executor configuration used across the harness.
pub fn exec_config() -> ExecConfig {
    ExecConfig::default()
}

/// Times `f`, returning the mean wall-clock duration over `repeats` runs
/// after one warm-up run.
pub fn time<T>(repeats: usize, mut f: impl FnMut() -> T) -> Duration {
    let _warmup = f();
    let start = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(f());
    }
    start.elapsed() / repeats as u32
}

/// Times several alternatives *interleaved* (one round = one run of each,
/// in order), which cancels allocator/page-cache warm-up drift that makes
/// sequentially-measured later alternatives look faster. The first round
/// is a discarded warm-up. Returns median durations per alternative.
pub fn time_interleaved(rounds: usize, fns: &mut [&mut dyn FnMut()]) -> Vec<Duration> {
    for f in fns.iter_mut() {
        f();
    }
    let mut samples: Vec<Vec<Duration>> = vec![Vec::with_capacity(rounds); fns.len()];
    for round in 0..rounds {
        // Alternate the visit order between rounds so that systematic
        // position effects (thermal drift, background load ramps) cancel.
        let order: Vec<usize> = if round % 2 == 0 {
            (0..fns.len()).collect()
        } else {
            (0..fns.len()).rev().collect()
        };
        for idx in order {
            let start = Instant::now();
            fns[idx]();
            samples[idx].push(start.elapsed());
        }
    }
    // Median per alternative: robust against scheduler noise spikes.
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s[s.len() / 2]
        })
        .collect()
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Percentage overhead of `b` over `a`.
pub fn overhead_pct(a: Duration, b: Duration) -> f64 {
    if a.is_zero() {
        return 0.0;
    }
    (b.as_secs_f64() / a.as_secs_f64() - 1.0) * 100.0
}

/// Replaces (or appends) one top-level `"section": value` entry of a flat
/// JSON object document, preserving every other top-level entry verbatim.
///
/// This is what lets several bench binaries fold their numbers into one
/// report file (`BENCH_N.json`) without a JSON dependency: each binary owns
/// one top-level section and rewrites only that.
pub fn merge_json_section(existing: &str, section: &str, body: &str) -> String {
    let mut entries = top_level_entries(existing);
    let body = body.trim().to_string();
    if let Some(e) = entries.iter_mut().find(|(k, _)| k == section) {
        e.1 = body;
    } else {
        entries.push((section.to_string(), body));
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        // Indent nested lines of the value by two spaces for readability.
        let v = v.replace('\n', "\n  ");
        out.push_str(&format!("  \"{k}\": {v}{sep}\n"));
    }
    out.push_str("}\n");
    out
}

/// Reads `path` (treating a missing/unreadable file as `{}`), merges
/// `section`, and writes the file back.
pub fn write_json_section(path: &str, section: &str, body: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_else(|_| "{}".to_string());
    let merged = merge_json_section(&existing, section, body);
    std::fs::write(path, &merged).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Splits the top level of a JSON object into `(key, raw value)` pairs with
/// a depth/string-aware scanner (no full JSON parser needed — values are
/// kept verbatim).
fn top_level_entries(json: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    let inner = match (json.find('{'), json.rfind('}')) {
        (Some(a), Some(b)) if a < b => &json[a + 1..b],
        _ => return entries,
    };
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Key: skip to the next quote.
        while i < bytes.len() && bytes[i] != b'"' {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        i += 1;
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'"' {
            i += if bytes[i] == b'\\' { 2 } else { 1 };
        }
        let key = inner[key_start..i].to_string();
        i += 1;
        while i < bytes.len() && bytes[i] != b':' {
            i += 1;
        }
        i += 1;
        // Value: scan until a top-level comma or the end.
        let val_start = i;
        let mut depth = 0i32;
        let mut in_str = false;
        while i < bytes.len() {
            let c = bytes[i];
            if in_str {
                if c == b'\\' {
                    i += 1;
                } else if c == b'"' {
                    in_str = false;
                }
            } else {
                match c {
                    b'"' => in_str = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        // Undo the two-space indent `merge_json_section` applied when the
        // value was last written, so repeated merges are idempotent.
        let value = inner[val_start..i].trim().replace("\n  ", "\n");
        entries.push((key, value));
        i += 1; // past the comma
    }
    entries
}

/// Formats a byte count human-readably.
pub fn human_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.2} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.2} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_scale_linearly() {
        std::env::remove_var("PEBBLE_SCALE");
        assert_eq!(steps(100), [100, 200, 300, 400, 500]);
    }

    #[test]
    fn overhead_formula() {
        let a = Duration::from_millis(100);
        let b = Duration::from_millis(170);
        assert!((overhead_pct(a, b) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn json_section_merge_replaces_and_appends() {
        let v0 = merge_json_section("{}", "a", "{\"x\": 1}");
        assert_eq!(v0, "{\n  \"a\": {\"x\": 1}\n}\n");
        let v1 = merge_json_section(&v0, "b", "[1, 2]");
        assert!(v1.contains("\"a\": {\"x\": 1},"));
        assert!(v1.contains("\"b\": [1, 2]"));
        // Replacing a section keeps the others byte-identical.
        let v2 = merge_json_section(&v1, "a", "{\"x\": 2, \"y\": \"s,{}\"}");
        assert!(v2.contains("\"x\": 2"));
        assert!(v2.contains("\"y\": \"s,{}\""));
        assert!(v2.contains("\"b\": [1, 2]"));
        assert!(!v2.contains("\"x\": 1"));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert!(human_bytes(3 << 20).contains("MiB"));
    }
}
