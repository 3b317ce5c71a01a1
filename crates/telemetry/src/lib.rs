//! Structured observability for the vdbench pipeline.
//!
//! The campaign engine is a deep pipeline — corpus generation, per-unit
//! detector scans, metric evaluation, Monte-Carlo attribute assessment and
//! MCDA ranking, fanned out across a worker pool — whose per-stage cost and
//! parallel schedule are invisible from artifact-level wall clocks alone.
//! This crate is the workspace's telemetry layer:
//!
//! * **Hierarchical spans** ([`span!`], [`span::SpanGuard`]): scoped
//!   begin/end events recorded lock-cheaply into per-thread buffers and
//!   stitched into a process-wide [`span::Trace`] on demand.
//! * **Metrics registry** ([`registry`]): named counters, gauges and
//!   histograms with fixed log₂ bucketing. The campaign cache's hit/miss
//!   counters live here, so `vdbench campaign --timings` and `BENCH_campaign.json`
//!   are *derived views* over the registry rather than a parallel
//!   hand-rolled instrumentation path.
//! * **Exporters** ([`export`]): a human-readable stderr summary, a
//!   structured JSON report, and the Chrome `trace_event` format
//!   (`vdbench campaign --trace-out trace.json`, loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)) showing the worker schedule.
//!
//! # Overhead contract
//!
//! Recording is **disabled by default**. A disabled [`span!`] costs one
//! relaxed atomic load and allocates nothing — argument formatting is
//! deferred behind the enabled check — so instrumented hot paths keep
//! their determinism and parallel speedups untouched. The process-wide
//! [`events_recorded`] counter backs the zero-overhead regression guard:
//! a run that never enables telemetry must finish with the counter at 0.
//! Registry counters/gauges/histograms are plain atomics and are always
//! live (they cost an atomic RMW, never an allocation).
//!
//! ```
//! vdbench_telemetry::enable();
//! {
//!     let _outer = vdbench_telemetry::span!("demo", "outer", items = 3);
//!     let _inner = vdbench_telemetry::span!("demo", "inner");
//! } // guards close in reverse order: spans nest
//! let trace = vdbench_telemetry::take_trace();
//! vdbench_telemetry::disable();
//! assert_eq!(trace.events.len(), 4); // 2 begins + 2 ends
//! assert_eq!(trace.complete_spans().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod registry;
pub mod span;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide recording switch (see the crate-level overhead contract).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Total span events ever recorded (begins + ends), across all threads.
/// Monotonic except for [`reset`]; backs the zero-overhead guard.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Turns span recording on. Cheap and idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off. Guards already open still record their end
/// event so per-thread traces stay balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether span recording is currently on — the one atomic load a
/// disabled [`span!`] pays.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of span events recorded so far (process-wide). A run that never
/// called [`enable`] reports 0 — the zero-overhead regression guard.
pub fn events_recorded() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

pub(crate) fn note_event() {
    EVENTS.fetch_add(1, Ordering::Relaxed);
}

/// Drains every thread's span buffer into one chronologically merged
/// [`span::Trace`]. Buffers of threads that have already exited are
/// included; subsequent calls only see events recorded after this one.
pub fn take_trace() -> span::Trace {
    span::drain()
}

/// Drops all buffered span events and zeroes [`events_recorded`]. The
/// metrics registry is *not* touched (use
/// [`registry::Registry::reset`] for that).
pub fn reset() {
    let _ = span::drain();
    EVENTS.store(0, Ordering::Relaxed);
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable (non-Linux
/// platforms). The kernel's high-water mark is monotonic over the process
/// lifetime, so memory curves sampled at increasing workload sizes are
/// directly comparable — the scale bench relies on this.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status)
}

/// Parses the `VmHWM:` line out of a `/proc/<pid>/status` document.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The fixed instant all span timestamps are measured from (first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's telemetry epoch.
pub(crate) fn now_nanos() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Opens a hierarchical span: `span!(category, name)` or
/// `span!(category, name, key = value, …)`.
///
/// `category` and `name` must be string literals (or `&'static str`
/// expressions); by convention the category is the short crate name
/// (`"core"`, `"detectors"`, `"stats"`, `"mcda"`, `"bench"`). Arguments
/// are `Display`-formatted **only when recording is enabled** and attach
/// to the begin event (they surface in the Chrome trace's `args` pane).
///
/// The macro evaluates to a [`span::SpanGuard`]; the span closes when the
/// guard drops. Bind it (`let _span = span!(…)`) — a bare `span!(…);`
/// statement would close immediately. Guards must be dropped on the
/// thread that opened them (they are deliberately not `Send`).
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr $(,)?) => {
        $crate::span::SpanGuard::open($cat, $name, ::std::vec::Vec::new)
    };
    ($cat:expr, $name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::span::SpanGuard::open($cat, $name, || {
            ::std::vec![$((
                ::std::string::String::from(stringify!($key)),
                ::std::format!("{}", $val),
            )),+]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn vm_hwm_parses_the_kernel_format() {
        let doc =
            "Name:\tvdbench\nVmPeak:\t  123456 kB\nVmHWM:\t   98765 kB\nVmRSS:\t   90000 kB\n";
        assert_eq!(parse_vm_hwm_kb(doc), Some(98765));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_available_on_linux() {
        let kb = peak_rss_kb().expect("procfs available");
        assert!(kb > 0);
    }
}
