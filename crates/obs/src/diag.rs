//! Leveled diagnostics facade.
//!
//! Replaces the once-per-process `eprintln!` warnings that used to be
//! scattered across the engine. Messages print as `pebble: {message}` on
//! stderr — byte-identical to the historical format at the default level —
//! and are filtered by `PEBBLE_LOG=warn|info|debug` (default `warn`).
//!
//! The level is parsed once and cached in a relaxed atomic, so the disabled
//! branches of [`info`]/[`debug`] are a single load + compare; the message
//! closures are only invoked when the level admits them.
//!
//! Every record is emitted as ONE `write_all` of a fully formatted line
//! (prefix + message + newline), so concurrent connections in a serving
//! process never interleave fragments of two records — multi-tenant
//! `PEBBLE_LOG` output stays line-parseable.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::Mutex;

/// Diagnostic verbosity, least to most verbose.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unexpected-but-recoverable conditions. Always printed.
    Warn = 1,
    /// Coarse progress / configuration notes.
    Info = 2,
    /// Per-run details.
    Debug = 3,
}

static LEVEL: AtomicU8 = AtomicU8::new(0);

fn parse_level(raw: &str) -> Option<Level> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "warn" | "warning" => Some(Level::Warn),
        "info" => Some(Level::Info),
        "debug" | "trace" => Some(Level::Debug),
        _ => None,
    }
}

/// The active diagnostic level (`PEBBLE_LOG`, cached after the first call).
pub fn level() -> Level {
    match LEVEL.load(Relaxed) {
        0 => {
            let lvl = match std::env::var("PEBBLE_LOG") {
                Ok(raw) if !raw.trim().is_empty() => match parse_level(&raw) {
                    Some(l) => l,
                    None => {
                        LEVEL.store(Level::Warn as u8, Relaxed);
                        warn_once(
                            "PEBBLE_LOG",
                            &format!("ignoring invalid PEBBLE_LOG={raw:?} (want warn|info|debug)"),
                        );
                        return Level::Warn;
                    }
                },
                _ => Level::Warn,
            };
            LEVEL.store(lvl as u8, Relaxed);
            lvl
        }
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// Emits one diagnostic record line-atomically: the whole record (prefix,
/// message, trailing newline) is formatted first and handed to stderr as a
/// single `write_all`, so records from concurrent threads never interleave
/// mid-line. A failed write is silently dropped (diagnostics must never
/// take down the engine).
fn emit(message: &str) {
    let line = format!("pebble: {message}\n");
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(line.as_bytes());
}

/// Prints a warning as `pebble: {message}`. Warnings are always enabled.
pub fn warn(message: &str) {
    emit(message);
}

/// Prints an informational message when `PEBBLE_LOG` is `info` or `debug`.
/// The closure only runs when the message will be printed.
pub fn info(message: impl FnOnce() -> String) {
    if level() >= Level::Info {
        emit(&message());
    }
}

/// Prints a debug message when `PEBBLE_LOG=debug`. The closure only runs
/// when the message will be printed.
pub fn debug(message: impl FnOnce() -> String) {
    if level() >= Level::Debug {
        emit(&message());
    }
}

static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Prints a warning at most once per process for a given `key`.
///
/// Used for env-knob clamping and trace-export failures, where repeating the
/// same message every run would be noise.
pub fn warn_once(key: &str, message: &str) {
    let mut warned = WARNED.lock().unwrap_or_else(|p| p.into_inner());
    if warned.insert(key.to_string()) {
        warn(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_levels() {
        assert_eq!(parse_level("warn"), Some(Level::Warn));
        assert_eq!(parse_level(" INFO "), Some(Level::Info));
        assert_eq!(parse_level("debug"), Some(Level::Debug));
        assert_eq!(parse_level("bogus"), None);
        assert!(Level::Debug > Level::Info && Level::Info > Level::Warn);
    }
}
