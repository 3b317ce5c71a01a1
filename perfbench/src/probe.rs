//! Measurement helpers the workloads share: process CPU time, peak and
//! current thread counts from procfs, order statistics, and span
//! aggregation over the program's own telemetry trace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vdbench_telemetry::span::Trace;

/// Fresh processes sampled per run for set-up time and peak RSS.
pub const FRESH_PROCESSES: usize = 5;

/// What one fresh process of this benchmark measured.
pub struct FreshRun {
    /// Wall time from spawn to exit: start-up, one-time costs and one
    /// cold operation into a fresh store.
    pub wall_s: f64,
    /// The process's peak RSS in MB.
    pub peak_rss_mb: f64,
    /// Digest of the operation's result, for the correctness check.
    pub digest: String,
}

/// Runs one cold operation of `workload` in a fresh process of this
/// benchmark (`--rss-probe`) and returns what it measured; `None` if the
/// process failed.
pub fn fresh_run(workload: &str, seed: u64) -> Option<FreshRun> {
    use vdbench_telemetry::export::RawValue;
    let t = Instant::now();
    let out = std::process::Command::new(std::env::current_exe().ok()?)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--rss-probe",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let wall_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let doc = serde_json::from_str::<RawValue>(text.lines().last()?)
        .ok()?
        .0;
    let peak_rss_mb = match doc.get("peak_rss_mb")? {
        serde::Value::Float(mb) => *mb,
        _ => return None,
    };
    match doc.get("digest")? {
        serde::Value::Str(digest) => Some(FreshRun {
            wall_s,
            peak_rss_mb,
            digest: digest.clone(),
        }),
        _ => None,
    }
}

/// Clock ticks per second of `/proc/self/stat` times: `AT_CLKTCK` from
/// the auxiliary vector, 100 where it cannot be read.
fn clock_ticks() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte key"));
        let value = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte value"));
        if key == AT_CLKTCK && value > 0 {
            return value as f64;
        }
    }
    100.0
}

/// User plus system CPU seconds this process has used so far, all
/// threads, including threads that already exited.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th after it.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / clock_ticks()
}

/// Peak resident set size in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    vdbench_telemetry::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Returns false
/// where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Live threads of this process.
#[must_use]
pub fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Samples [`thread_count`] every millisecond on a thread of its own
/// until stopped; the sampler itself is not counted.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    /// Starts sampling.
    #[must_use]
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(thread_count().saturating_sub(1), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        ThreadSampler { stop, peak, handle }
    }

    /// Stops sampling and returns the peak thread count seen.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked");
        self.peak.load(Ordering::Relaxed)
    }
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of the samples (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` of the samples (0 when empty).
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Named sample lists: one value per repetition of a measured
/// operation, reduced to medians at the end of a run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The samples of `name` (empty when none were taken).
    #[must_use]
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples of `name`.
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// Sets each sampled metric whose name `keep` accepts to its median.
    pub fn medians_into(&self, outcome: &mut crate::Outcome, keep: impl Fn(&str) -> bool) {
        for (name, values) in &self.0 {
            if keep(name) {
                outcome.set(name, median(values));
            }
        }
    }
}

/// Per-`(category, name)` totals of the completed spans in a trace.
#[derive(Debug, Default)]
pub struct SpanTotals {
    by_name: BTreeMap<(&'static str, &'static str), (u64, f64)>,
}

impl SpanTotals {
    /// Aggregates the completed spans of `trace`.
    #[must_use]
    pub fn of(trace: &Trace) -> Self {
        let mut by_name: BTreeMap<(&'static str, &'static str), (u64, f64)> = BTreeMap::new();
        for span in trace.complete_spans() {
            let entry = by_name.entry((span.cat, span.name)).or_default();
            entry.0 += 1;
            entry.1 += span.millis();
        }
        SpanTotals { by_name }
    }

    /// Number of `cat/name` spans.
    #[must_use]
    pub fn count(&self, cat: &str, name: &str) -> u64 {
        self.get(cat, name).0
    }

    /// Summed duration of the `cat/name` spans in milliseconds.
    #[must_use]
    pub fn millis(&self, cat: &str, name: &str) -> f64 {
        self.get(cat, name).1
    }

    fn get(&self, cat: &str, name: &str) -> (u64, f64) {
        self.by_name
            .iter()
            .find(|((c, n), _)| *c == cat && *n == name)
            .map_or((0, 0.0), |(_, v)| *v)
    }
}

/// Current value of a counter on the program's telemetry registry.
#[must_use]
pub fn counter(name: &str) -> u64 {
    vdbench_telemetry::registry::global().counter(name).get()
}

/// Records spans for the duration of `f` and returns its result with the
/// trace it produced (empty when `on` is false). Spans stay in memory
/// until the closure returns.
pub fn traced<T>(on: bool, f: impl FnOnce() -> T) -> (T, Trace) {
    if !on {
        return (f(), Trace::default());
    }
    vdbench_telemetry::reset();
    vdbench_telemetry::enable();
    let out = f();
    vdbench_telemetry::disable();
    (out, vdbench_telemetry::take_trace())
}

/// Total size in bytes of the files in `dir` whose name contains
/// `needle` (all files for an empty needle).
#[must_use]
pub fn dir_bytes(dir: &std::path::Path, needle: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().contains(needle))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn procfs_readers_see_this_process() {
        assert!(thread_count() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
    }
}
