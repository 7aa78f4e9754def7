//! How fast the host is right now, in units of fixed reference work.
//!
//! The box this benchmark is accepted on changes speed by 30–45 % for
//! seconds to minutes at a time (neighbours on the sibling hardware
//! threads), per vCPU. No estimator over the samples of one run removes
//! that, so every timed step of A–F sits between two probes that run a fixed
//! piece of the benchmark's own code — text scanning with small allocations,
//! a sort, a hash map, a pointer chase, a checksum — on the same thread for
//! a fixed window, and the step's time is scaled to what it would have taken
//! at the reference rate: seconds × mean(rate before, rate after) ÷
//! reference rate. The reference rate is a literal, so a value means the
//! same in every run; the engine under test never runs inside a probe, so a
//! change to the engine cannot move the scale.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::spans::Recorder;
use crate::stats::median;
use crate::util::{Rng, Stream};

/// Units per second on the seed commit's box in its usual state (2 vCPUs,
/// Xeon 2.1 GHz).
const REFERENCE: f64 = 25_000.0;
/// Length of one probe.
const WINDOW: Duration = Duration::from_millis(12);
/// Entries of the pointer-chase table. The whole reference work touches
/// under 100 KiB, so that a probe measures the host and not what the step
/// before it left in the caches.
const CHASE_ENTRIES: usize = 1 << 14;

/// The reference work and the speeds observed so far.
pub struct Host {
    text: String,
    keys: Vec<u64>,
    chase: Vec<u32>,
    bytes: Vec<u8>,
    /// Every probe's result, in order.
    observed: Vec<f64>,
    /// Wall time spent in probes, seconds.
    probe_s: f64,
}

impl Host {
    pub fn new() -> Host {
        let mut rng = Rng::new(0, Stream::HostWork);
        let mut text = String::new();
        for i in 0..48 {
            text.push_str(&format!(
                "{{\"k\": {}, \"s\": \"v{i}\"}}\n",
                rng.below(100_000)
            ));
        }
        // One cycle through every entry, in random order.
        let mut order: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        rng.shuffle(&mut order);
        let mut chase = vec![0u32; CHASE_ENTRIES];
        for (i, &from) in order.iter().enumerate() {
            chase[from as usize] = order[(i + 1) % CHASE_ENTRIES];
        }
        Host {
            text,
            keys: (0..512).map(|_| rng.next()).collect(),
            chase,
            bytes: (0..16 << 10).map(|_| rng.next() as u8).collect(),
            observed: Vec::new(),
            probe_s: 0.0,
        }
    }

    /// One unit of reference work (about 65 µs).
    fn unit(&self, salt: u64, at: &mut u32) -> u64 {
        let mut acc = 0u64;
        let mut strings = Vec::new();
        for line in self.text.lines() {
            let mut parts = line.split('"');
            let number = parts.nth(2).unwrap_or("");
            let digits: String = number.chars().filter(char::is_ascii_digit).collect();
            acc += digits.parse::<u64>().unwrap_or(0);
            if let Some(s) = parts.nth(2) {
                strings.push(s.to_string());
            }
        }
        acc += strings.len() as u64;
        let mut sorted: Vec<u64> = self
            .keys
            .iter()
            .map(|k| (k ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        sorted.sort_unstable();
        let mut groups: HashMap<u64, u64> = HashMap::new();
        for &k in &sorted[..256] {
            *groups.entry(k % 97).or_default() += k;
        }
        acc ^= sorted[17] ^ groups.len() as u64;
        for _ in 0..192 {
            *at = self.chase[*at as usize];
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        acc ^ h ^ u64::from(*at)
    }

    /// Speed of the calling thread right now relative to the reference
    /// (1 = as fast, below 1 = slower).
    pub fn speed(&mut self, rec: &mut Recorder) -> f64 {
        let (rate, seconds) = rec.time("bench.host_probe", || {
            let mut at = 0u32;
            // One unit untimed: it pulls the reference work into the caches.
            black_box(self.unit(0, &mut at));
            let start = Instant::now();
            let mut units = 0u64;
            loop {
                units += 1;
                black_box(self.unit(units, &mut at));
                let elapsed = start.elapsed();
                if elapsed >= WINDOW {
                    break units as f64 / elapsed.as_secs_f64();
                }
            }
        });
        self.probe_s += seconds;
        self.observed.push(rate / REFERENCE);
        rate / REFERENCE
    }

    /// Times `f` as one leaf span between two probes of its own; returns its
    /// seconds at the reference speed.
    pub fn timed<T>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let before = self.speed(rec);
        let (out, seconds) = rec.time(name, f);
        (out, seconds * (before + self.speed(rec)) / 2.0)
    }

    /// Wall time spent in probes so far, seconds: not part of any journey.
    pub fn probe_s(&self) -> f64 {
        self.probe_s
    }

    /// Mean speed over every probe so far.
    pub fn mean_speed(&self) -> f64 {
        assert!(!self.observed.is_empty(), "no probe yet");
        self.observed.iter().sum::<f64>() / self.observed.len() as f64
    }

    /// Median speed over every probe of the run.
    pub fn median_speed(&self) -> f64 {
        median(&self.observed)
    }
}
