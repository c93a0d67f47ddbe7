//! What one run reports: named metric values, correctness checks, the
//! deterministic counter block, the spans, and the final result line.

use std::collections::BTreeMap;
use std::fmt::{self, Debug, Write as _};

use crate::metrics;
use crate::trace::Tracer;

/// FNV-1a offset basis, the workspace's standing choice for stable hashes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a state.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a value's `Debug` rendering, streamed without building the
/// string. `Debug` prints floats round-trip exactly, so equal hashes mean
/// bit-identical values.
pub fn debug_hash<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Sink(u64);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = fnv(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(FNV_OFFSET);
    write!(sink, "{value:?}").expect("the hashing sink never fails");
    sink.0
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Correctness bookkeeping: every checked operation counts as attempted,
/// every one whose check failed as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records `ops` operations checked together: all pass when `ok`,
    /// all fail otherwise.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.record(ops, if ok { 0 } else { ops }, what)
    }

    /// Records `ops` operations of which `failed` failed their check.
    pub fn record(&mut self, ops: u64, failed: u64, what: impl FnOnce() -> String) -> bool {
        self.attempted += ops;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: check failed ({failed} of {ops}): {}", what());
        }
        failed == 0
    }
}

/// The deterministic counter block: counts and digests that are pure
/// functions of the workload's inputs, so they must repeat exactly across
/// passes, between traced and untraced passes, and at any pool width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(Vec<(String, u64)>);

impl Counters {
    pub fn put(&mut self, name: impl Into<String>, value: u64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(|| panic!("no counter {name}"), |&(_, v)| v)
    }

    /// Appends every counter of `other` under `prefix.`.
    pub fn nest(&mut self, prefix: &str, other: &Counters) {
        for (name, value) in &other.0 {
            self.put(format!("{prefix}.{name}"), *value);
        }
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    pub checks: Checks,
    pub counters: Counters,
    pub tracer: Tracer,
    /// Human-readable context lines (pass counts, sizes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// The declared metrics of the run's mode (end-to-end, or per-layer
    /// when traced) with their values, in declared order.
    ///
    /// # Panics
    ///
    /// Panics if the workload did not measure a declared metric.
    pub fn metrics(&self, trace: bool) -> Vec<(String, f64, &'static str)> {
        let declared = if trace {
            metrics::per_layer()
        } else {
            metrics::end_to_end()
        };
        declared
            .into_iter()
            .map(|(name, unit)| {
                let value = *self
                    .values
                    .get(&name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, value, unit)
            })
            .collect()
    }

    /// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the value has (`Display` for `f64` is
/// the shortest exact round-trip and never uses an exponent).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_hash_separates_values() {
        assert_eq!(debug_hash(&[1.5f64, 2.0]), debug_hash(&[1.5f64, 2.0]));
        assert_ne!(
            debug_hash(&[1.5f64, 2.0]),
            debug_hash(&[1.5f64, 2.000_000_1])
        );
    }

    #[test]
    fn checks_count_operations() {
        let mut checks = Checks::default();
        assert!(checks.check(3, true, String::new));
        assert!(!checks.record(10, 2, || "two mismatches".to_owned()));
        assert_eq!((checks.attempted, checks.failed), (13, 2));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
