//! The deterministic request/response crawl scheduler.
//!
//! §4.1's crawl is the pipeline's last serial region, and the paper's own
//! run shows why failure- and latency-aware scheduling is part of the spec:
//! 14 of the top 50 reference domains were dead, and the rest answer at
//! wildly different speeds. This module restructures the crawl around
//! explicit request/response futures over the synthetic archive:
//!
//! * every reference URL becomes a request with an explicit lifecycle
//!   (queued → in flight → completed);
//! * requests to the same host flow through a **per-domain politeness
//!   queue** — one in flight per host, consecutive starts separated by the
//!   host's politeness gap;
//! * a **bounded in-flight window** caps concurrent requests across all
//!   hosts, like a connection pool;
//! * a **virtual clock** orders completions by simulated finish time (ties
//!   broken by request id), so the completion order is a pure function of
//!   the URL list and the latency model — bit-identical at any `NVD_JOBS`.
//!
//! Each host has a fault mode from the engine's [`FaultPlan`] (most have
//! none), and a failed attempt is retried under its [`RetryPolicy`]:
//! timeouts, exponential backoff with URL-hashed jitter, and a per-host
//! circuit breaker. Under an empty plan every request is delivered on its
//! first attempt.
//!
//! [`schedule`] computes the completion order without touching page bodies.
//! When the window cannot bind — at most one request is in flight per host,
//! so `window >= hosts` makes the cap unreachable — every host is an
//! independent chain of attempts and the schedule is computed per host
//! plus one sort, skipping the event loop entirely; batches fanning over
//! more hosts than the window run the full event-driven simulation. Both
//! paths produce the identical schedule on their shared domain
//! (unit-tested).
//!
//! [`CrawlEngine::crawl_results`] is the engine's one crawl call: it
//! replays the batch against the archive with fetch + date extraction run
//! over the `minipar` pool in request order (contiguous, cache-friendly),
//! with liveness, crawler support and the domain spec resolved once per
//! host, so the per-URL fast path is pure vector indexing. Results are
//! keyed by request id. What a fetch returns never depends on *when* it is
//! dispatched unless a fault can fire, so under an empty plan — the
//! production §4.1 path — the schedule is skipped altogether.
//!
//! The same schedule-then-complete shape is what a real async runtime or a
//! remote archive backend would slot into: only the completion replay —
//! today a deterministic simulation — would become actual I/O.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use nvd_model::prelude::Date;

use crate::archive::{host_of_url, WebArchive};
use crate::crawler::CrawlerSet;
use crate::dates::find_labelled_date;
use crate::domains::{domain_spec, DomainSpec};
use crate::faults::{FaultMode, FaultPlan, RetryPolicy};
use crate::latency::{LatencyModel, LatencyProfile};

/// Default bound on concurrent in-flight requests across all hosts. Sized
/// to cover the full builtin 50-domain registry (per-host politeness
/// already caps a batch at one in-flight request per host), while still
/// bounding synthetic batches that fan over more hosts.
pub const DEFAULT_WINDOW: usize = 64;

/// Word-at-a-time multiply–xor hasher (fxhash-style) for interning host
/// slices: the scheduler hashes every URL's host once per batch, so the
/// default SipHash would sit on the critical path.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("exact chunk"));
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        self.hash = (self.hash.rotate_left(5) ^ tail).wrapping_mul(FX_SEED);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type HostInterner<'u> = HashMap<&'u str, u32, BuildHasherDefault<FxHasher>>;

/// One scheduled fetch, in virtual time. `id` indexes the URL list the
/// schedule was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlCompletion {
    /// Index of the request's URL in the scheduled batch.
    pub id: usize,
    /// Virtual tick the request was dispatched at.
    pub started_at: u64,
    /// Virtual tick the response arrived at.
    pub finished_at: u64,
}

/// Interns each URL's host, in first-appearance order: the distinct hosts
/// plus the host id (index into the first vector) of every request.
fn intern_hosts<'u>(urls: &[&'u str]) -> (Vec<&'u str>, Vec<u32>) {
    let mut interner: HostInterner<'u> = HashMap::with_capacity_and_hasher(64, Default::default());
    let mut hosts: Vec<&'u str> = Vec::new();
    let mut request_host: Vec<u32> = Vec::with_capacity(urls.len());
    for url in urls {
        let host = host_of_url(url);
        let hid = *interner.entry(host).or_insert_with(|| {
            hosts.push(host);
            (hosts.len() - 1) as u32
        });
        request_host.push(hid);
    }
    (hosts, request_host)
}

/// How a request ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFate {
    /// The final attempt got a response; the replay decides what it says.
    Delivered,
    /// Every attempt timed out.
    TimedOut,
    /// Never dispatched: the host was abandoned with its circuit breaker
    /// open, and the queued request resolved immediately.
    CircuitOpen,
}

/// A complete crawl plan: one final completion per request (the last
/// attempt's window, or the abandonment tick for circuit-open requests),
/// per-request attempt counts and fates, and the host interning the replay
/// phase indexes by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlSchedule<'u> {
    /// Final completions, ordered by `(finished_at, id)`.
    pub completions: Vec<CrawlCompletion>,
    /// Attempts dispatched per request id (0 for circuit-open requests).
    pub attempts: Vec<u32>,
    /// Final disposition per request id.
    pub fates: Vec<RequestFate>,
    /// Virtual tick the last request resolved at.
    pub makespan: u64,
    /// Distinct hosts the batch touches, in first-appearance order.
    pub hosts: Vec<&'u str>,
    /// Interned host id (index into [`Self::hosts`]) per request.
    pub request_host: Vec<u32>,
}

/// Per-host politeness/retry/breaker state of the chain path.
struct HostState {
    prev_start: u64,
    busy_until: u64,
    dispatched: bool,
    /// Consecutive failed attempts; carries across requests, reset by any
    /// success.
    consec: u32,
    /// Set when the host was abandoned: every still-queued request
    /// resolves [`RequestFate::CircuitOpen`] at this tick.
    abandoned_at: Option<u64>,
}

impl HostState {
    fn new() -> Self {
        Self {
            prev_start: 0,
            busy_until: 0,
            dispatched: false,
            consec: 0,
            abandoned_at: None,
        }
    }
}

/// Computes the deterministic completion order for a batch.
///
/// Event-driven simulation: at each virtual tick, every eligible request is
/// dispatched (host idle, politeness gap elapsed, window not full; ties go
/// to the host that entered the batch first), then the clock jumps to the
/// next completion or politeness expiry. No real time passes.
///
/// Faults sit on top: an attempt dispatched at tick `t` fails iff
/// [`FaultPlan::attempt_fails`] says so; a failed attempt occupies its
/// host (and window slot) for [`RetryPolicy::timeout_ticks`], then the
/// request retries after exponential backoff + URL-hashed jitter, at the
/// front of its host's politeness queue. A host whose consecutive-failure
/// count reaches [`RetryPolicy::breaker_threshold`] is suspended for the
/// breaker cooldown (the front request then probes; any success closes
/// the breaker); if a request exhausts [`RetryPolicy::max_attempts`]
/// while the breaker is tripped, the host is abandoned and its remaining
/// queue resolves [`RequestFate::CircuitOpen`] on the spot — so hard-down
/// hosts cost a bounded number of timeouts instead of timing out every
/// request.
///
/// The whole schedule is a pure function of
/// `(urls, model, window, plan, policy)` — bit-identical at any
/// `NVD_JOBS`. Batches with `hosts <= window` take a per-host chain fast
/// path; both paths produce the identical schedule on their shared domain
/// (unit-tested). Virtual-clock additions saturate, so huge policy ticks
/// pin a request at `u64::MAX` instead of overflowing.
///
/// # Panics
///
/// Panics if `window == 0` or `policy.max_attempts == 0`.
pub fn schedule<'u>(
    urls: &[&'u str],
    model: &LatencyModel,
    window: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> CrawlSchedule<'u> {
    assert!(window >= 1, "schedule: in-flight window must be at least 1");
    assert!(
        policy.max_attempts >= 1,
        "schedule: retry policy needs at least one attempt"
    );

    let (hosts, request_host) = intern_hosts(urls);
    let profiles: Vec<&LatencyProfile> = hosts.iter().map(|h| model.profile(h)).collect();
    let modes: Vec<Option<FaultMode>> = hosts.iter().map(|h| plan.mode(h)).collect();

    let (completions, attempts, fates) = if hosts.len() <= window {
        schedule_chains(urls, &request_host, &profiles, &modes, plan, policy)
    } else {
        schedule_event_loop(urls, &request_host, &profiles, &modes, plan, policy, window)
    };
    let makespan = completions.last().map_or(0, |c| c.finished_at);
    CrawlSchedule {
        completions,
        attempts,
        fates,
        makespan,
        hosts,
        request_host,
    }
}

/// The chain fast path: with `window >= hosts` the window never binds, so
/// each host is an independent serial simulation of its FIFO — attempts,
/// timeouts, backoffs and breaker state never interact across hosts. A
/// healthy host reduces to the recurrence
/// `start = max(prev_start + politeness, prev_finish)`.
fn schedule_chains(
    urls: &[&str],
    request_host: &[u32],
    profiles: &[&LatencyProfile],
    modes: &[Option<FaultMode>],
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> (Vec<CrawlCompletion>, Vec<u32>, Vec<RequestFate>) {
    let host_count = profiles.len();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); host_count];
    for (i, &h) in request_host.iter().enumerate() {
        queues[h as usize].push(i);
    }

    let n = urls.len();
    let mut completions = Vec::with_capacity(n);
    let mut attempts_out = vec![0u32; n];
    let mut fates = vec![RequestFate::Delivered; n];
    for h in 0..host_count {
        let p = profiles[h];
        let mode = modes[h];
        let mut st = HostState::new();
        for &req in &queues[h] {
            if let Some(t) = st.abandoned_at {
                fates[req] = RequestFate::CircuitOpen;
                completions.push(CrawlCompletion {
                    id: req,
                    started_at: t,
                    finished_at: t,
                });
                continue;
            }
            let url = urls[req];
            let mut attempt = 0u32;
            // Earliest-start floor carrying backoff and breaker cooldown.
            let mut floor = 0u64;
            loop {
                attempt += 1;
                let mut start = if st.dispatched {
                    st.prev_start
                        .saturating_add(p.politeness_ticks)
                        .max(st.busy_until)
                } else {
                    0
                };
                start = start.max(floor);
                st.dispatched = true;
                let fails = mode.is_some_and(|m| plan.attempt_fails(m, url, attempt, start));
                if !fails {
                    let finish = start.saturating_add(p.sample(url));
                    st.prev_start = start;
                    st.busy_until = finish;
                    st.consec = 0;
                    attempts_out[req] = attempt;
                    completions.push(CrawlCompletion {
                        id: req,
                        started_at: start,
                        finished_at: finish,
                    });
                    break;
                }
                let finish = start.saturating_add(policy.timeout_ticks);
                st.prev_start = start;
                st.busy_until = finish;
                st.consec += 1;
                let tripped = policy.breaker_threshold > 0 && st.consec >= policy.breaker_threshold;
                if attempt >= policy.max_attempts {
                    attempts_out[req] = attempt;
                    fates[req] = RequestFate::TimedOut;
                    completions.push(CrawlCompletion {
                        id: req,
                        started_at: start,
                        finished_at: finish,
                    });
                    if tripped {
                        st.abandoned_at = Some(finish);
                    }
                    break;
                }
                floor = finish.saturating_add(policy.backoff_ticks(url, attempt));
                if tripped {
                    floor = floor.max(finish.saturating_add(policy.breaker_cooldown_ticks));
                }
            }
        }
    }
    completions.sort_unstable_by_key(|c| (c.finished_at, c.id));
    (completions, attempts_out, fates)
}

/// The general event loop, for batches fanning over more hosts than the
/// window admits. Failed attempts are re-queued at their host's front
/// after backoff, and abandoned hosts are drained at the trip tick.
#[allow(clippy::too_many_arguments)]
fn schedule_event_loop(
    urls: &[&str],
    request_host: &[u32],
    profiles: &[&LatencyProfile],
    modes: &[Option<FaultMode>],
    plan: &FaultPlan,
    policy: &RetryPolicy,
    window: usize,
) -> (Vec<CrawlCompletion>, Vec<u32>, Vec<RequestFate>) {
    let host_count = profiles.len();
    let n = urls.len();
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); host_count];
    for (i, &h) in request_host.iter().enumerate() {
        queues[h as usize].push_back(i);
    }

    // Hosts that are idle and have queued work, keyed by the earliest tick
    // they may dispatch at (then host id, so ties are deterministic).
    let mut ready: BTreeSet<(u64, usize)> = (0..host_count).map(|h| (0u64, h)).collect();
    let mut next_allowed = vec![0u64; host_count];
    let mut consec = vec![0u32; host_count];
    let mut in_flight: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut started = vec![0u64; n];
    let mut attempts = vec![0u32; n];
    let mut attempt_failed = vec![false; n];
    let mut fates = vec![RequestFate::Delivered; n];
    let mut completions = Vec::with_capacity(n);
    let mut clock = 0u64;

    loop {
        // Dispatch everything eligible at the current tick.
        while in_flight.len() < window {
            let Some(&(t, h)) = ready.iter().next() else {
                break;
            };
            if t > clock {
                break;
            }
            ready.remove(&(t, h));
            let req = queues[h].pop_front().expect("ready hosts have work");
            attempts[req] += 1;
            let fails =
                modes[h].is_some_and(|m| plan.attempt_fails(m, urls[req], attempts[req], clock));
            let finish = clock.saturating_add(if fails {
                policy.timeout_ticks
            } else {
                profiles[h].sample(urls[req])
            });
            started[req] = clock;
            attempt_failed[req] = fails;
            in_flight.push(Reverse((finish, req)));
            next_allowed[h] = clock.saturating_add(profiles[h].politeness_ticks);
            // One in flight per host: `h` re-enters `ready` on completion.
        }

        let Some(&Reverse((next_finish, _))) = in_flight.peek() else {
            match ready.iter().next() {
                // Nothing in flight but a politeness or backoff timer is
                // pending.
                Some(&(t, _)) => {
                    clock = t;
                    continue;
                }
                None => break, // drained
            }
        };

        // If a timer expires before the next completion and the window has
        // room, advance to it and dispatch first.
        if in_flight.len() < window {
            if let Some(&(t, _)) = ready.iter().next() {
                if t < next_finish {
                    clock = t;
                    continue;
                }
            }
        }

        let Reverse((finish, req)) = in_flight.pop().expect("peeked non-empty");
        clock = finish;
        let h = request_host[req] as usize;
        if !attempt_failed[req] {
            consec[h] = 0;
            completions.push(CrawlCompletion {
                id: req,
                started_at: started[req],
                finished_at: finish,
            });
            if !queues[h].is_empty() {
                ready.insert((next_allowed[h].max(clock), h));
            }
            continue;
        }
        consec[h] += 1;
        let tripped = policy.breaker_threshold > 0 && consec[h] >= policy.breaker_threshold;
        if attempts[req] >= policy.max_attempts {
            fates[req] = RequestFate::TimedOut;
            completions.push(CrawlCompletion {
                id: req,
                started_at: started[req],
                finished_at: finish,
            });
            if tripped {
                // Abandon the host: drain its queue as circuit-open, in
                // FIFO (= ascending id) order at the trip tick.
                while let Some(q) = queues[h].pop_front() {
                    fates[q] = RequestFate::CircuitOpen;
                    completions.push(CrawlCompletion {
                        id: q,
                        started_at: clock,
                        finished_at: clock,
                    });
                }
            } else if !queues[h].is_empty() {
                ready.insert((next_allowed[h].max(clock), h));
            }
        } else {
            // Retry in place: the failed request goes back to the front,
            // eligible after politeness, backoff and (if tripped) the
            // breaker cooldown.
            queues[h].push_front(req);
            let mut at = next_allowed[h]
                .max(clock.saturating_add(policy.backoff_ticks(urls[req], attempts[req])));
            if tripped {
                at = at.max(clock.saturating_add(policy.breaker_cooldown_ticks));
            }
            ready.insert((at, h));
        }
    }

    completions.sort_unstable_by_key(|c| (c.finished_at, c.id));
    (completions, attempts, fates)
}

/// What one scheduled fetch produced. Failure arms carry no payload — the
/// caller still holds the URL by id — so failure-heavy batches (the paper's
/// 14 dead domains) allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlResult {
    /// Page fetched; the extracted date if the crawler set covers the host.
    Fetched(Option<Date>),
    /// The host does not respond (registry-dead or `mark_dead`).
    HostUnreachable,
    /// Every attempt timed out under the engine's fault plan.
    TimedOut,
    /// The request resolved without dispatch because its host's circuit
    /// breaker was open.
    CircuitOpen,
    /// The host answers but has no page at this URL.
    NotFound,
}

/// Per-host dispatch state, resolved once per host per crawl.
struct HostInfo<'a> {
    dead: bool,
    /// `Some` iff the crawler set covers the host and the registry knows it.
    extractor: Option<&'a DomainSpec>,
}

/// The plan engines run under until [`CrawlEngine::with_faults`] replaces it.
static EMPTY_PLAN: FaultPlan = FaultPlan::new(0);

/// The batch crawl engine: schedule, then replay requests against the
/// archive with extraction fanned over `minipar`.
#[derive(Debug, Clone)]
pub struct CrawlEngine<'a> {
    archive: &'a WebArchive,
    crawlers: &'a CrawlerSet,
    window: usize,
    plan: &'a FaultPlan,
    policy: RetryPolicy,
}

impl<'a> CrawlEngine<'a> {
    /// An engine over the archive with the given crawler set, the default
    /// in-flight window, an empty fault plan and the default retry policy.
    pub fn new(archive: &'a WebArchive, crawlers: &'a CrawlerSet) -> Self {
        Self {
            archive,
            crawlers,
            window: DEFAULT_WINDOW,
            plan: &EMPTY_PLAN,
            policy: RetryPolicy::default(),
        }
    }

    /// Replaces the in-flight window bound.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "CrawlEngine: window must be at least 1");
        self.window = window;
        self
    }

    /// Replaces the fault plan and retry policy: requests on faulty hosts
    /// can then resolve [`CrawlResult::TimedOut`] or
    /// [`CrawlResult::CircuitOpen`].
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_attempts == 0`.
    pub fn with_faults(mut self, plan: &'a FaultPlan, policy: RetryPolicy) -> Self {
        assert!(
            policy.max_attempts >= 1,
            "CrawlEngine: retry policy needs at least one attempt"
        );
        self.plan = plan;
        self.policy = policy;
        self
    }

    /// The crawl plan for a batch under the engine's fault plan and retry
    /// policy, without touching page bodies.
    pub fn schedule<'u>(&self, urls: &[&'u str]) -> CrawlSchedule<'u> {
        schedule(
            urls,
            self.archive.latency(),
            self.window,
            self.plan,
            &self.policy,
        )
    }

    /// Crawls a batch and returns each request's result keyed by request id
    /// — `results[i]` answers `urls[i]`.
    ///
    /// Under an empty fault plan every request is delivered, and what a
    /// fetch returns is a pure function of the URL and the archive — the
    /// schedule decides *when* a response arrives, never what it says — so
    /// the schedule is skipped and only the engine's dispatch runs:
    /// per-host interning, memoised liveness/crawler resolution, and the
    /// pooled request-order replay. Otherwise whether an attempt fails can
    /// depend on its dispatch tick (outage windows), so the full schedule
    /// runs and each request's fate decides its result: a delivered request
    /// gets its replayed fetch, the others [`CrawlResult::TimedOut`] or
    /// [`CrawlResult::CircuitOpen`]. Either way results are bit-identical at
    /// any `NVD_JOBS` setting.
    pub fn crawl_results(&self, urls: &[&str]) -> Vec<CrawlResult> {
        if self.plan.is_empty() {
            let (hosts, request_host) = intern_hosts(urls);
            return self.replay(urls, &request_host, &self.resolve_hosts(&hosts));
        }
        let sched = self.schedule(urls);
        let fetched = self.replay(urls, &sched.request_host, &self.resolve_hosts(&sched.hosts));
        fetched
            .into_iter()
            .zip(&sched.fates)
            .map(|(result, fate)| match fate {
                RequestFate::Delivered => result,
                RequestFate::TimedOut => CrawlResult::TimedOut,
                RequestFate::CircuitOpen => CrawlResult::CircuitOpen,
            })
            .collect()
    }

    /// Resolves liveness and crawler dispatch once per host.
    fn resolve_hosts(&self, hosts: &[&str]) -> Vec<HostInfo<'a>> {
        hosts
            .iter()
            .map(|&host| HostInfo {
                dead: self.archive.is_dead(host),
                extractor: if self.crawlers.supports(host) {
                    domain_spec(host)
                } else {
                    None
                },
            })
            .collect()
    }

    /// Fetch + extract in request order — contiguous and cache-friendly,
    /// and (like the schedule) a pure function of the batch, so the fan
    /// over minipar cannot perturb results. The per-URL fast path is pure
    /// vector indexing: liveness, crawler support and the date extractor
    /// were resolved once per host, and pages on dead hosts are never
    /// looked up.
    fn replay(
        &self,
        urls: &[&str],
        request_host: &[u32],
        host_info: &[HostInfo<'_>],
    ) -> Vec<CrawlResult> {
        // Fixed-size chunks keep boundaries independent of the job count;
        // the chunk index recovers each request's absolute id, so no
        // per-request (host, url) pairs are materialised.
        const CHUNK: usize = 512;
        let parts =
            minipar::par_chunks(urls, CHUNK, |ci, part| {
                let base = ci * CHUNK;
                part.iter()
                    .enumerate()
                    .map(|(j, &url)| {
                        let info = &host_info[request_host[base + j] as usize];
                        if info.dead {
                            return CrawlResult::HostUnreachable;
                        }
                        match self.archive.page(url) {
                            None => CrawlResult::NotFound,
                            Some(page) => CrawlResult::Fetched(info.extractor.and_then(|s| {
                                find_labelled_date(&page.body, s.date_label, s.style)
                            })),
                        }
                    })
                    .collect::<Vec<CrawlResult>>()
            });
        let mut results = Vec::with_capacity(urls.len());
        for part in parts {
            results.extend_from_slice(&part);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyProfile;

    fn model(base: u64, politeness: u64) -> LatencyModel {
        LatencyModel::uniform(LatencyProfile::new(base, 0, politeness))
    }

    /// The schedule with nothing failing.
    fn healthy<'u>(urls: &[&'u str], m: &LatencyModel, window: usize) -> CrawlSchedule<'u> {
        schedule(urls, m, window, &EMPTY_PLAN, &RetryPolicy::default())
    }

    #[test]
    fn empty_batch_schedules_nothing() {
        let plan = healthy(&[], &LatencyModel::default(), 4);
        assert!(plan.completions.is_empty());
        assert_eq!(plan.makespan, 0);
        assert!(plan.hosts.is_empty());
    }

    #[test]
    fn completion_order_is_deterministic() {
        let urls: Vec<String> = (0..40)
            .map(|i| format!("https://host{}.example/p{}", i % 7, i))
            .collect();
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let m = LatencyModel::uniform(LatencyProfile::new(1_000, 5_000, 500));
        let a = healthy(&refs, &m, 4);
        let b = healthy(&refs, &m, 4);
        assert_eq!(a, b);
        assert_eq!(a.completions.len(), refs.len());
        assert!(a.attempts.iter().all(|&n| n == 1));
        assert!(a.fates.iter().all(|&f| f == RequestFate::Delivered));
        // Every id exactly once.
        let mut seen: Vec<usize> = a.completions.iter().map(|c| c.id).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..refs.len()).collect::<Vec<_>>());
        // Completion order is sorted by (finish, id).
        for w in a.completions.windows(2) {
            assert!(
                (w[0].finished_at, w[0].id) < (w[1].finished_at, w[1].id),
                "completions out of order"
            );
        }
    }

    #[test]
    fn politeness_queue_serialises_a_host() {
        let urls = [
            "https://one.example/a",
            "https://one.example/b",
            "https://one.example/c",
        ];
        let plan = healthy(&urls, &model(100, 250), 8);
        // One in flight per host, and starts spaced by politeness (250 >
        // the 100-tick service time, so the gap dominates).
        let mut by_id = plan.completions.clone();
        by_id.sort_unstable_by_key(|c| c.id);
        for w in by_id.windows(2) {
            assert!(
                w[1].started_at >= w[0].finished_at,
                "host had two requests in flight"
            );
            assert!(
                w[1].started_at - w[0].started_at >= 250,
                "politeness gap violated: {} -> {}",
                w[0].started_at,
                w[1].started_at
            );
        }
        assert_eq!(plan.makespan, 2 * 250 + 100);
    }

    #[test]
    fn window_bounds_concurrent_requests() {
        let urls: Vec<String> = (0..10)
            .map(|i| format!("https://host{i}.example/p"))
            .collect();
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let plan = healthy(&refs, &model(100, 0), 2);
        // At most 2 overlapping [start, finish) intervals at any tick.
        for c in &plan.completions {
            let overlapping = plan
                .completions
                .iter()
                .filter(|o| o.started_at <= c.started_at && c.started_at < o.finished_at)
                .count();
            assert!(overlapping <= 2, "window exceeded: {overlapping} in flight");
        }
        // 10 equal requests through a window of 2: five sequential pairs.
        assert_eq!(plan.makespan, 500);
    }

    #[test]
    fn window_overlaps_slow_hosts() {
        // One slow host and many fast ones: the slow fetch must overlap the
        // fast ones instead of serialising behind them.
        let mut m = model(10, 0);
        m.set("slow.example", LatencyProfile::new(10_000, 0, 0));
        let urls = [
            "https://slow.example/x",
            "https://fast0.example/a",
            "https://fast1.example/b",
            "https://fast2.example/c",
        ];
        let plan = healthy(&urls, &m, 4);
        assert_eq!(plan.makespan, 10_000, "slow host dominates the makespan");
        let serial: u64 = plan
            .completions
            .iter()
            .map(|c| c.finished_at - c.started_at)
            .sum();
        assert!(serial > plan.makespan, "no overlap happened");
        // Fast responses complete first even though the slow one started
        // alongside them.
        assert_eq!(plan.completions.last().unwrap().id, 0);
    }

    /// Schedules `urls` with `window` == the number of hosts, so the chain
    /// fast path runs, then reruns the event loop directly and demands the
    /// identical schedule, attempts and fates.
    fn assert_chain_equals_event_loop(
        urls: &[&str],
        m: &LatencyModel,
        window: usize,
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) {
        let fast = schedule(urls, m, window, plan, policy);
        assert_eq!(fast.hosts.len(), window, "the chain path must run");
        let profiles: Vec<&LatencyProfile> = fast.hosts.iter().map(|h| m.profile(h)).collect();
        let modes: Vec<Option<FaultMode>> = fast.hosts.iter().map(|h| plan.mode(h)).collect();
        let looped = schedule_event_loop(
            urls,
            &fast.request_host,
            &profiles,
            &modes,
            plan,
            policy,
            window,
        );
        assert_eq!(fast.completions, looped.0, "fast path diverged");
        assert_eq!(fast.attempts, looped.1, "attempt counts diverged");
        assert_eq!(fast.fates, looped.2, "fates diverged");
    }

    #[test]
    fn chain_fast_path_equals_event_loop() {
        // A jittery multi-host batch with nothing failing, scheduled at
        // window == hosts: the window can't bind, so the chain recurrence
        // and the full event loop must produce the identical schedule.
        let urls: Vec<String> = (0..60)
            .map(|i| format!("https://host{}.example/page/{i}", i % 9))
            .collect();
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let mut m = LatencyModel::uniform(LatencyProfile::new(1_000, 7_777, 900));
        m.set("host3.example", LatencyProfile::new(50_000, 0, 10));
        m.set("host4.example", LatencyProfile::new(10, 3, 40_000));
        assert_chain_equals_event_loop(&refs, &m, 9, &EMPTY_PLAN, &RetryPolicy::default());
    }

    #[test]
    fn fault_chain_fast_path_equals_event_loop() {
        // The same check under a mixed fault plan.
        let urls: Vec<String> = (0..48)
            .map(|i| format!("https://host{}.example/page/{i}", i % 6))
            .collect();
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let mut m = LatencyModel::uniform(LatencyProfile::new(1_000, 7_777, 900));
        m.set("host2.example", LatencyProfile::new(50_000, 0, 10));
        let mut plan = FaultPlan::new(99);
        plan.set("host0.example", FaultMode::HardDown);
        plan.set(
            "host1.example",
            FaultMode::Outage {
                from: 0,
                until: 400_000,
            },
        );
        plan.set("host2.example", FaultMode::Transient { per_mille: 350 });
        let policy = RetryPolicy {
            timeout_ticks: 30_000,
            backoff_base_ticks: 8_000,
            breaker_cooldown_ticks: 100_000,
            ..RetryPolicy::default()
        };
        assert_chain_equals_event_loop(&refs, &m, 6, &plan, &policy);
    }

    #[test]
    fn hard_down_host_trips_breaker_and_abandons_queue() {
        let urls: Vec<String> = (0..10)
            .map(|i| format!("https://down.example/p{i}"))
            .collect();
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let mut plan = FaultPlan::new(1);
        plan.set("down.example", FaultMode::HardDown);
        let policy = RetryPolicy::default(); // threshold 4, max_attempts 3
        let sched = schedule(&refs, &model(100, 0), 8, &plan, &policy);
        // Request 0 times out after 3 attempts (3 consecutive failures),
        // request 1's second attempt is the 5th consecutive failure — the
        // breaker trips mid-request — and exhausting it abandons the host.
        assert_eq!(sched.fates[0], RequestFate::TimedOut);
        assert_eq!(sched.attempts[0], 3);
        assert_eq!(sched.fates[1], RequestFate::TimedOut);
        for i in 2..10 {
            assert_eq!(sched.fates[i], RequestFate::CircuitOpen, "request {i}");
            assert_eq!(sched.attempts[i], 0, "request {i} should never dispatch");
        }
        // Bounded cost: 6 timeouts total, not 30.
        let dispatched: u32 = sched.attempts.iter().sum();
        assert_eq!(dispatched, 6);
    }

    #[test]
    fn huge_policy_ticks_saturate_the_virtual_clock() {
        // Backoff doubling from u64::MAX / 4 runs the clock into u64::MAX
        // within five attempts; every later addition must saturate rather
        // than overflow, on both scheduling paths.
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff_base_ticks: u64::MAX / 4,
            backoff_jitter_ticks: 0,
            breaker_threshold: 0,
            ..RetryPolicy::default()
        };
        let m = model(100, 250);
        let mut plan = FaultPlan::new(1);
        for h in 0..3 {
            plan.set(&format!("down{h}.example"), FaultMode::HardDown);
        }
        let timed_out = |s: &CrawlSchedule<'_>| {
            s.fates.iter().all(|&f| f == RequestFate::TimedOut)
                && s.attempts.iter().all(|&n| n == 5)
        };

        // Chain path: two requests on one host, window 8.
        let pair = ["https://down0.example/a", "https://down0.example/b"];
        let chained = schedule(&pair, &m, 8, &plan, &policy);
        assert!(timed_out(&chained), "{:?}", chained.fates);
        assert_eq!(chained.makespan, u64::MAX);
        let profiles = [m.profile("down0.example")];
        let modes = [plan.mode("down0.example")];
        let looped = schedule_event_loop(&pair, &[0, 0], &profiles, &modes, &plan, &policy, 8);
        assert_eq!(chained.completions, looped.0, "paths diverged");
        assert_eq!((chained.attempts, chained.fates), (looped.1, looped.2));

        // Event loop: three hosts through a window of two.
        let urls: Vec<String> = (0..6)
            .map(|i| format!("https://down{}.example/p{i}", i % 3))
            .collect();
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let windowed = schedule(&refs, &m, 2, &plan, &policy);
        assert!(timed_out(&windowed), "{:?}", windowed.fates);
        assert_eq!(windowed.makespan, u64::MAX);
        let chained = schedule(&refs, &m, 3, &plan, &policy);
        assert_eq!(
            (windowed.attempts, windowed.fates),
            (chained.attempts, chained.fates)
        );
    }

    #[test]
    fn outage_host_recovers_with_retries() {
        let urls = ["https://flaky.example/a", "https://flaky.example/b"];
        let mut plan = FaultPlan::new(1);
        // Down until tick 200_000: the first attempts time out, the backed
        // off retries land after the outage and succeed.
        plan.set(
            "flaky.example",
            FaultMode::Outage {
                from: 0,
                until: 200_000,
            },
        );
        let policy = RetryPolicy {
            max_attempts: 4,
            timeout_ticks: 90_000,
            backoff_base_ticks: 30_000,
            backoff_jitter_ticks: 0,
            breaker_threshold: 0,
            breaker_cooldown_ticks: 0,
        };
        let sched = schedule(&urls, &model(1_000, 0), 8, &plan, &policy);
        assert!(
            sched.fates.iter().all(|&f| f == RequestFate::Delivered),
            "outage should be survivable: {:?}",
            sched.fates
        );
        assert!(sched.attempts[0] > 1, "first request must have retried");
        // Both final attempts started after the outage ended.
        let mut by_id = sched.completions.clone();
        by_id.sort_unstable_by_key(|c| c.id);
        for c in &by_id {
            assert!(c.started_at >= 200_000, "dispatched inside the outage");
        }
    }

    #[test]
    fn engine_classifies_outcomes() {
        use nvd_model::prelude::Date;
        let mut archive = WebArchive::new();
        let d: Date = "2014-04-01".parse().unwrap();
        let live = archive
            .publish("seclists.org", "CVE-2014-0001", d, 2)
            .unwrap();
        let dead = archive.publish("osvdb.org", "CVE-2014-0001", d, 2).unwrap();
        archive.insert_raw("https://seclists.org/junk", "no dates here".into());
        let crawlers = CrawlerSet::builtin();
        let urls = [
            live.as_str(),
            dead.as_str(),
            "https://seclists.org/junk",
            "https://seclists.org/missing",
        ];
        let results = CrawlEngine::new(&archive, &crawlers).crawl_results(&urls);
        assert_eq!(results[0], CrawlResult::Fetched(Some(d)));
        assert_eq!(results[1], CrawlResult::HostUnreachable);
        assert_eq!(results[2], CrawlResult::Fetched(None), "malformed");
        assert_eq!(results[3], CrawlResult::NotFound);
    }

    #[test]
    fn faulty_engine_is_bit_identical_across_job_counts() {
        use nvd_model::prelude::Date;
        let mut archive = WebArchive::new();
        let d: Date = "2017-06-01".parse().unwrap();
        let mut urls = Vec::new();
        for i in 0..40 {
            let host = ["seclists.org", "www.debian.org", "marc.info", "osvdb.org"][i % 4];
            urls.push(archive.publish(host, "CVE-2017-0001", d, i as u32).unwrap());
        }
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let crawlers = CrawlerSet::builtin();
        let mut plan = FaultPlan::new(0xfa17);
        plan.set("seclists.org", FaultMode::Transient { per_mille: 400 });
        plan.set("marc.info", FaultMode::HardDown);
        plan.set(
            "www.debian.org",
            FaultMode::Outage {
                from: 10_000,
                until: 500_000,
            },
        );
        let engine = CrawlEngine::new(&archive, &crawlers)
            .with_window(3)
            .with_faults(&plan, RetryPolicy::default());
        let run = || (engine.schedule(&refs), engine.crawl_results(&refs));
        let serial = minipar::with_jobs(1, run);
        let wide = minipar::with_jobs(4, run);
        assert_eq!(serial, wide, "fault crawl diverged across job counts");
        let (sched, results) = serial;
        for (id, (fate, result)) in sched.fates.iter().zip(&results).enumerate() {
            let agrees = match fate {
                RequestFate::Delivered => {
                    !matches!(result, CrawlResult::TimedOut | CrawlResult::CircuitOpen)
                }
                RequestFate::TimedOut => *result == CrawlResult::TimedOut,
                RequestFate::CircuitOpen => *result == CrawlResult::CircuitOpen,
            };
            assert!(agrees, "request {id}: {result:?} contradicts fate {fate:?}");
        }
        assert!(
            results.contains(&CrawlResult::TimedOut),
            "hard-down host should time out"
        );
    }

    #[test]
    fn engine_is_bit_identical_across_job_counts() {
        use nvd_model::prelude::Date;
        let mut archive = WebArchive::new();
        let d: Date = "2016-05-01".parse().unwrap();
        let mut urls = Vec::new();
        for i in 0..30 {
            let host = ["seclists.org", "www.debian.org", "marc.info"][i % 3];
            urls.push(archive.publish(host, "CVE-2016-0001", d, i as u32).unwrap());
        }
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let crawlers = CrawlerSet::builtin();
        let engine = CrawlEngine::new(&archive, &crawlers).with_window(4);
        let run = || (engine.schedule(&refs), engine.crawl_results(&refs));
        let serial = minipar::with_jobs(1, run);
        let wide = minipar::with_jobs(4, run);
        assert_eq!(serial, wide, "crawl diverged across job counts");
    }
}
