//! Seeded fault injection for the crawl scheduler.
//!
//! The paper's own run met a hostile web — 14 of the top 50 reference
//! domains were dead — and real NVD consumers additionally live with
//! transient timeouts, flapping mirrors and scheduled outages. This module
//! supplies those failure shapes *deterministically*: a [`FaultPlan`] maps
//! hosts to seeded [`FaultMode`]s, and whether one attempt fails is a pure
//! function of `(mode, url, attempt number, virtual start tick, seed)` —
//! no randomness at simulation time, so the fault-aware schedule in
//! [`crate::scheduler`] stays bit-identical at any `NVD_JOBS`.
//!
//! [`RetryPolicy`] is the recovery half: per-attempt timeouts, bounded
//! retries with exponential backoff plus URL-hashed jitter (both in
//! virtual ticks, like every latency profile), and a per-host circuit
//! breaker that suspends a failing host for a cooldown and abandons it —
//! resolving the rest of its queue as
//! [`CircuitOpen`](crate::scheduler::CrawlResult::CircuitOpen) — once a
//! request exhausts its attempts while the breaker is tripped.

use std::collections::BTreeMap;

use crate::latency::jitter_hash;

/// Mixing constant shared with the latency jitter hash.
const FAULT_K: u64 = 0x517c_c1b7_2722_0a95;

/// How a faulty host misbehaves, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The host never answers: every attempt times out.
    HardDown,
    /// The host is down for the half-open virtual-tick interval
    /// `[from, until)` and healthy outside it — the flaky-then-recover
    /// shape: attempts dispatched during the outage time out, retries that
    /// back off past `until` succeed.
    Outage {
        /// First tick of the outage.
        from: u64,
        /// First tick after the outage.
        until: u64,
    },
    /// Each attempt independently times out with probability
    /// `per_mille / 1000`, decided by hashing `(url, attempt, seed)` — so
    /// a retry of the same URL is a fresh draw, but the whole sequence is
    /// reproducible.
    Transient {
        /// Failure probability in thousandths (0–1000).
        per_mille: u16,
    },
}

/// A seeded per-host fault assignment. Hosts without an entry never fail
/// at the fault layer (archive-level liveness still applies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    modes: BTreeMap<String, FaultMode>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan. `seed` feeds the [`FaultMode::Transient`] draws.
    pub const fn new(seed: u64) -> Self {
        Self {
            modes: BTreeMap::new(),
            seed,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Assigns a fault mode to one host.
    pub fn set(&mut self, host: &str, mode: FaultMode) {
        self.modes.insert(host.to_owned(), mode);
    }

    /// The fault mode of a host, if any.
    pub fn mode(&self, host: &str) -> Option<FaultMode> {
        self.modes.get(host).copied()
    }

    /// Number of hosts with an assigned fault mode.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// Whether no host has an assigned fault mode.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Whether one dispatch attempt fails under `mode` — a pure function
    /// of the URL, the (1-based) attempt number, the virtual start tick
    /// and the plan seed.
    pub fn attempt_fails(&self, mode: FaultMode, url: &str, attempt: u32, start_tick: u64) -> bool {
        match mode {
            FaultMode::HardDown => true,
            FaultMode::Outage { from, until } => from <= start_tick && start_tick < until,
            FaultMode::Transient { per_mille } => {
                fault_hash(self.seed, url, attempt) % 1000 < u64::from(per_mille)
            }
        }
    }
}

/// Timeout, retry, backoff and circuit-breaker parameters, all in virtual
/// ticks. See the module docs for the breaker semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per request before it resolves as timed out (≥ 1).
    pub max_attempts: u32,
    /// Virtual ticks a failed attempt occupies its host (and window slot).
    pub timeout_ticks: u64,
    /// Backoff before retry `k+1` starts at `base << (k-1)` ticks.
    pub backoff_base_ticks: u64,
    /// Maximum extra backoff, hashed from `(url, attempt)` — seeded jitter
    /// that de-synchronises retries without real randomness.
    pub backoff_jitter_ticks: u64,
    /// Consecutive per-host failures that trip the breaker; 0 disables it.
    pub breaker_threshold: u32,
    /// Virtual ticks a tripped host is suspended before the front request
    /// probes again.
    pub breaker_cooldown_ticks: u64,
}

impl RetryPolicy {
    /// The backoff delay inserted after failed attempt `attempt`
    /// (1-based): exponential in the attempt number, plus URL-hashed
    /// jitter. Saturates instead of overflowing.
    pub fn backoff_ticks(&self, url: &str, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self.backoff_base_ticks.saturating_mul(1u64 << exp);
        if self.backoff_jitter_ticks == 0 {
            return base;
        }
        let hash = fault_hash(0xb0ff, url, attempt);
        // `jitter + 1` only overflows at `u64::MAX`, where every hash is
        // already in range.
        let jitter = match self.backoff_jitter_ticks.checked_add(1) {
            Some(span) => hash % span,
            None => hash,
        };
        base.saturating_add(jitter)
    }
}

impl Default for RetryPolicy {
    /// 3 attempts with a 120 ms timeout, 20 ms backoff doubling per retry
    /// with up to 5 ms jitter; the breaker trips after 4 consecutive
    /// failures and cools down for 800 ms. (1 tick ≈ 1 µs.)
    fn default() -> Self {
        Self {
            max_attempts: 3,
            timeout_ticks: 120_000,
            backoff_base_ticks: 20_000,
            backoff_jitter_ticks: 5_000,
            breaker_threshold: 4,
            breaker_cooldown_ticks: 800_000,
        }
    }
}

/// Deterministic draw for transient faults and backoff jitter: the URL's
/// jitter hash remixed with a seed and the attempt number, so each retry
/// is a fresh — but reproducible — sample.
fn fault_hash(seed: u64, url: &str, attempt: u32) -> u64 {
    let mut h = jitter_hash(url.as_bytes());
    h = (h.rotate_left(5) ^ seed).wrapping_mul(FAULT_K);
    (h.rotate_left(5) ^ u64::from(attempt)).wrapping_mul(FAULT_K)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_down_always_fails() {
        let plan = FaultPlan::new(1);
        for attempt in 1..5 {
            assert!(plan.attempt_fails(FaultMode::HardDown, "https://a/x", attempt, 0));
        }
    }

    #[test]
    fn outage_window_is_half_open() {
        let plan = FaultPlan::new(1);
        let m = FaultMode::Outage {
            from: 100,
            until: 200,
        };
        assert!(!plan.attempt_fails(m, "https://a/x", 1, 99));
        assert!(plan.attempt_fails(m, "https://a/x", 1, 100));
        assert!(plan.attempt_fails(m, "https://a/x", 1, 199));
        assert!(!plan.attempt_fails(m, "https://a/x", 1, 200));
    }

    #[test]
    fn transient_draws_are_seeded_and_attempt_dependent() {
        let plan = FaultPlan::new(42);
        let m = FaultMode::Transient { per_mille: 500 };
        let draws: Vec<bool> = (1..64)
            .map(|a| plan.attempt_fails(m, "https://a/x", a, 0))
            .collect();
        let again: Vec<bool> = (1..64)
            .map(|a| plan.attempt_fails(m, "https://a/x", a, 0))
            .collect();
        assert_eq!(draws, again, "equal inputs must redraw identically");
        assert!(draws.iter().any(|&f| f), "some attempts should fail");
        assert!(!draws.iter().all(|&f| f), "some attempts should succeed");
        let other = FaultPlan::new(43);
        let reseeded: Vec<bool> = (1..64)
            .map(|a| other.attempt_fails(m, "https://a/x", a, 0))
            .collect();
        assert_ne!(draws, reseeded, "the plan seed must matter");
    }

    #[test]
    fn transient_extremes_are_certain() {
        let plan = FaultPlan::new(7);
        let never = FaultMode::Transient { per_mille: 0 };
        let always = FaultMode::Transient { per_mille: 1000 };
        for a in 1..32 {
            assert!(!plan.attempt_fails(never, "https://a/x", a, 0));
            assert!(plan.attempt_fails(always, "https://a/x", a, 0));
        }
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter() {
        let p = RetryPolicy {
            backoff_base_ticks: 100,
            backoff_jitter_ticks: 9,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff_ticks("https://a/x", 1);
        let b2 = p.backoff_ticks("https://a/x", 2);
        let b3 = p.backoff_ticks("https://a/x", 3);
        assert!((100..=109).contains(&b1), "b1 {b1}");
        assert!((200..=209).contains(&b2), "b2 {b2}");
        assert!((400..=409).contains(&b3), "b3 {b3}");
        assert_eq!(b1, p.backoff_ticks("https://a/x", 1), "jitter is pure");
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            backoff_base_ticks: u64::MAX / 2,
            backoff_jitter_ticks: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ticks("u", 40), u64::MAX);
        // Jitter on top of a saturated base, and the widest jitter span.
        let jittered = RetryPolicy {
            backoff_jitter_ticks: 9,
            ..p
        };
        assert_eq!(jittered.backoff_ticks("u", 40), u64::MAX);
        let widest = RetryPolicy {
            backoff_jitter_ticks: u64::MAX,
            ..RetryPolicy::default()
        };
        assert!(widest.backoff_ticks("u", 1) >= widest.backoff_base_ticks);
    }

    #[test]
    fn plan_tracks_hosts() {
        let mut plan = FaultPlan::new(9);
        assert!(plan.is_empty());
        plan.set("seclists.org", FaultMode::HardDown);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.mode("seclists.org"), Some(FaultMode::HardDown));
        assert_eq!(plan.mode("marc.info"), None);
        assert_eq!(plan.seed(), 9);
    }
}
