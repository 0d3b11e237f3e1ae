//! Self-healing durability: error classification, bounded retry with
//! deterministic backoff, and the typed durability state machine.
//!
//! The paper's reduction makes aggressive fault recovery *safe*: derived
//! state is a pure function of the accepted op prefix (§2, §4), so any
//! durable prefix is a valid schema and the engine never needs to wedge.
//! This module turns that observation into machinery:
//!
//! - [`classify`] splits I/O failures into **transient** (worth retrying
//!   in place), **disk-full** (retryable after a checkpoint prunes old
//!   segments), and **permanent** (degrade immediately);
//! - [`RetryPolicy`] produces a bounded, *deterministic* backoff schedule
//!   (exponential with seeded jitter) — same policy ⇒ same timeline,
//!   which the proptests in `core/tests/durability_props.rs` pin down;
//! - [`DurabilityMachine`] is the typed state machine
//!   `Healthy → Retrying → Degraded → Recovered | Quarantined`: while
//!   degraded, snapshots keep serving and evolves fail fast with
//!   [`JournalError::Unavailable`] until a cooldown elapses, at which
//!   point the next append is admitted as a **probe** — success re-arms
//!   the journal ([`DurabilityState::Recovered`]), failure doubles the
//!   cooldown (capped);
//! - `guarded_commit` (crate-internal) runs one commit attempt under the
//!   machine: repair-before-probe, classified retries, ENOSPC
//!   checkpoint-GC, and exact `durability.*` accounting mirrored into
//!   [`EvolveObs`];
//! - `isolate` (crate-internal) is the single `catch_unwind` site of the durability
//!   layer: a writer panic is converted into a typed error after the
//!   machine degrades, never a poisoned lock or a half-published schema.
//!
//! Time discipline: this file is the **only** place in `crates/core`
//! allowed to read clocks or sleep (CI grep-gated). Everything else takes
//! a [`Clock`] so tests drive virtual time deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::JournalError;
use crate::json_escape;
use crate::obs::EvolveObs;

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// An injectable source of (monotonic) time for retry pacing and degraded
/// cooldowns. Production uses [`SystemClock`]; tests use [`ManualClock`]
/// so a thousand-schedule chaos sweep spends zero wall-clock time asleep.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Milliseconds since an arbitrary fixed origin. Must be monotonic.
    fn now_ms(&self) -> u64;
    /// Block (or virtually advance) for `ms` milliseconds.
    fn sleep_ms(&self, ms: u64);
}

/// Real wall-clock time (monotonic since construction).
#[derive(Debug)]
pub struct SystemClock(std::time::Instant);

impl SystemClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        SystemClock(std::time::Instant::now())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// A virtual clock: `sleep_ms` advances time instead of blocking, and
/// tests can [`advance`](ManualClock::advance) it directly. Shared via
/// `Arc` between the machine under test and the test driver.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A virtual clock starting at 0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance virtual time by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    fn sleep_ms(&self, ms: u64) {
        self.advance(ms);
    }
}

// ---------------------------------------------------------------------
// Error classification
// ---------------------------------------------------------------------

/// How the durability layer should react to an I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying in place after a short backoff (`EINTR`-family).
    Transient,
    /// The device is out of space; retryable once a checkpoint prunes
    /// obsolete segments (`ENOSPC`).
    DiskFull,
    /// Retrying cannot help (corruption, permission, dead device, …):
    /// degrade immediately.
    Permanent,
}

/// Classify an `std::io::Error` (see [`ErrorClass`]). `ENOSPC` is matched
/// both by [`std::io::ErrorKind::StorageFull`] and by the raw OS code so
/// pre-classified and OS-surfaced errors agree.
pub fn classify(e: &std::io::Error) -> ErrorClass {
    use std::io::ErrorKind as K;
    if e.raw_os_error() == Some(28) {
        return ErrorClass::DiskFull;
    }
    match e.kind() {
        K::StorageFull | K::QuotaExceeded => ErrorClass::DiskFull,
        K::Interrupted | K::TimedOut | K::WouldBlock => ErrorClass::Transient,
        _ => ErrorClass::Permanent,
    }
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Bounded retry/backoff configuration. The schedule is exponential with
/// **seeded** jitter, so it is a pure function of the policy: same policy
/// ⇒ same delays, and the total retry time is bounded by
/// [`RetryPolicy::total_budget_ms`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the initial failure (0 = fail fast).
    pub max_attempts: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Cap on the exponential delay (before jitter), in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Initial degraded cooldown: how long evolves fail fast with
    /// [`JournalError::Unavailable`] before a probe append is admitted.
    pub degraded_cooldown_ms: u64,
    /// Cap on the cooldown as consecutive probes fail (it doubles).
    pub max_cooldown_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 8,
            max_delay_ms: 200,
            jitter_seed: 0x5EED_CAFE,
            degraded_cooldown_ms: 100,
            max_cooldown_ms: 5_000,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff schedule: delay (ms) before each retry.
    /// Entry `i` is `min(base·2^i, max_delay)` plus up to 25% seeded
    /// jitter, so every entry is `≤ max_delay_ms + max_delay_ms/4`.
    pub fn backoff_schedule(&self) -> Vec<u64> {
        let mut rng = self.jitter_seed | 1; // xorshift64 must not start at 0
        (0..self.max_attempts)
            .map(|i| {
                let exp = self
                    .base_delay_ms
                    .saturating_mul(1u64 << i.min(16))
                    .min(self.max_delay_ms);
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                exp + rng % (exp / 4 + 1)
            })
            .collect()
    }

    /// Total time the schedule can spend sleeping (the exact sum of
    /// [`backoff_schedule`](Self::backoff_schedule)).
    pub fn total_budget_ms(&self) -> u64 {
        self.backoff_schedule().iter().sum()
    }
}

// ---------------------------------------------------------------------
// State machine
// ---------------------------------------------------------------------

/// The durability state of a journaled schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityState {
    /// No fault observed since open.
    Healthy,
    /// An append attempt is being retried right now.
    Retrying,
    /// Read-only: appends fail fast with [`JournalError::Unavailable`]
    /// until the cooldown elapses and a probe append is admitted.
    Degraded,
    /// Fully operational again after surviving at least one fault.
    Recovered,
    /// Recovery set aside one or more corrupt WAL segments (`*.quar`)
    /// and re-based on a fresh checkpoint; serving and accepting ops.
    Quarantined,
}

impl DurabilityState {
    /// Stable lower-case name (`healthy` / `retrying` / `degraded` /
    /// `recovered` / `quarantined`).
    pub fn as_str(self) -> &'static str {
        match self {
            DurabilityState::Healthy => "healthy",
            DurabilityState::Retrying => "retrying",
            DurabilityState::Degraded => "degraded",
            DurabilityState::Recovered => "recovered",
            DurabilityState::Quarantined => "quarantined",
        }
    }
}

impl std::fmt::Display for DurabilityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Exact event counts kept by the machine (mirrored one-for-one into the
/// `durability.*` registry counters when an observer is attached — the
/// chaos sweep asserts registry == machine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// Retry attempts performed (after initial failures).
    pub retries: u64,
    /// Commits that succeeded on a retry attempt.
    pub retry_successes: u64,
    /// Transitions into [`DurabilityState::Degraded`].
    pub degradations: u64,
    /// Probe appends admitted after a degraded cooldown.
    pub probes: u64,
    /// Successful probes (Degraded → Recovered re-arms).
    pub rearms: u64,
    /// Appends rejected fast with [`JournalError::Unavailable`].
    pub unavailable_rejections: u64,
    /// Checkpoint GCs run to reclaim space after `ENOSPC`.
    pub disk_full_gcs: u64,
    /// Writer panics caught and converted to typed errors.
    pub panics_isolated: u64,
    /// Corrupt WAL segments renamed to `*.quar` during recovery.
    pub quarantined_segments: u64,
    /// Total state transitions.
    pub transitions: u64,
}

/// Whether the machine's crate-internal `admit` gate let an append through
/// normally or as a post-cooldown probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The machine is writable; proceed normally.
    Normal,
    /// The machine is degraded but the cooldown elapsed: this append is
    /// the probe. It must repair the WAL tail before writing.
    Probe,
}

/// The typed durability state machine (see module docs). One per
/// [`JournaledSchema`](super::JournaledSchema), living under the same
/// lock as the journal so state always matches the on-disk situation.
#[derive(Debug)]
pub struct DurabilityMachine {
    state: DurabilityState,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    counters: DurabilityCounters,
    last_error: Option<String>,
    /// Cooldown the *next* degradation will use (doubles per consecutive
    /// degradation, capped; reset on success).
    cooldown_ms: u64,
    /// Clock time until which degraded appends are rejected fast.
    degraded_until: u64,
    obs: Option<Arc<EvolveObs>>,
}

impl DurabilityMachine {
    /// A healthy machine driven by `clock` under `policy`.
    pub fn new(policy: RetryPolicy, clock: Arc<dyn Clock>) -> Self {
        let cooldown_ms = policy.degraded_cooldown_ms;
        DurabilityMachine {
            state: DurabilityState::Healthy,
            policy,
            clock,
            counters: DurabilityCounters::default(),
            last_error: None,
            cooldown_ms,
            degraded_until: 0,
            obs: None,
        }
    }

    /// Mirror every counter bump and state transition into `obs`.
    pub fn attach_obs(&mut self, obs: Arc<EvolveObs>) {
        self.obs = Some(obs);
    }

    /// Swap the policy and clock in place, preserving state, counters,
    /// and the last error (tests and operators retune a live journal).
    pub fn reconfigure(&mut self, policy: RetryPolicy, clock: Arc<dyn Clock>) {
        self.cooldown_ms = policy.degraded_cooldown_ms;
        self.degraded_until = 0;
        self.policy = policy;
        self.clock = clock;
    }

    /// Current state.
    pub fn state(&self) -> DurabilityState {
        self.state
    }

    /// Exact event counts so far.
    pub fn counters(&self) -> DurabilityCounters {
        self.counters
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Milliseconds until the next probe is admitted (None unless
    /// degraded).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self.state {
            DurabilityState::Degraded => {
                Some(self.degraded_until.saturating_sub(self.clock.now_ms()))
            }
            _ => None,
        }
    }

    /// Message of the most recent failure, if the machine is not clean.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// A snapshot of state, counters, and last error for reports.
    pub fn report(&self) -> DurabilityReport {
        DurabilityReport {
            state: self.state,
            last_error: self.last_error.clone(),
            retry_after_ms: self.retry_after_ms(),
            counters: self.counters,
        }
    }

    /// Mark the machine quarantined after recovery set aside `segments`
    /// corrupt WAL files.
    pub(super) fn note_quarantine(&mut self, segments: u64) {
        self.counters.quarantined_segments += segments;
        if let Some(o) = &self.obs {
            o.on_durability_quarantine(segments);
        }
        self.transition(
            DurabilityState::Quarantined,
            "recovery quarantined corrupt segment(s)",
        );
    }

    /// Record a caught writer panic: degrade (the on-disk suffix is
    /// unknown until the next probe repairs it) and count it.
    pub(super) fn note_panic(&mut self, detail: &str) {
        self.counters.panics_isolated += 1;
        if let Some(o) = &self.obs {
            o.on_durability_panic_isolated();
        }
        self.last_error = Some(format!("writer panic: {detail}"));
        self.degrade("writer panic isolated");
    }

    /// Admission control for one append/checkpoint: `Ok(Normal)` when
    /// writable, `Ok(Probe)` when a degraded cooldown has elapsed, and
    /// `Err(Unavailable)` (counted) while the cooldown is still running.
    pub(super) fn admit(&mut self) -> Result<Admission, JournalError> {
        if self.state != DurabilityState::Degraded {
            return Ok(Admission::Normal);
        }
        if self.clock.now_ms() >= self.degraded_until {
            return Ok(Admission::Probe);
        }
        self.counters.unavailable_rejections += 1;
        if let Some(o) = &self.obs {
            o.on_durability_unavailable();
        }
        Err(self.unavailable_error())
    }

    /// The typed read-only rejection for the current degraded window.
    pub(super) fn unavailable_error(&self) -> JournalError {
        JournalError::Unavailable {
            retry_after_ms: self.retry_after_ms().unwrap_or(0),
            last_error: self.last_error.clone().unwrap_or_default(),
        }
    }

    fn transition(&mut self, to: DurabilityState, reason: &str) {
        if self.state == to {
            return;
        }
        let from = self.state;
        self.state = to;
        self.counters.transitions += 1;
        if let Some(o) = &self.obs {
            o.on_durability_transition(from.as_str(), to.as_str(), reason);
        }
    }

    fn note_error(&mut self, e: &JournalError) {
        self.last_error = Some(e.to_string());
    }

    fn degrade(&mut self, reason: &str) {
        let now = self.clock.now_ms();
        self.degraded_until = now + self.cooldown_ms;
        self.cooldown_ms = (self.cooldown_ms * 2).min(self.policy.max_cooldown_ms);
        self.counters.degradations += 1;
        if let Some(o) = &self.obs {
            o.on_durability_degraded();
        }
        self.transition(DurabilityState::Degraded, reason);
    }

    fn heal(&mut self, reason: &str) {
        self.cooldown_ms = self.policy.degraded_cooldown_ms;
        self.last_error = None;
        self.transition(DurabilityState::Recovered, reason);
    }
}

/// Human/machine-readable view of a [`DurabilityMachine`] (the CLI's
/// `doctor` and `stats` health block).
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityReport {
    /// Current state.
    pub state: DurabilityState,
    /// Most recent failure, if any.
    pub last_error: Option<String>,
    /// Milliseconds until the next probe (degraded only).
    pub retry_after_ms: Option<u64>,
    /// Exact event counts.
    pub counters: DurabilityCounters,
}

impl DurabilityReport {
    /// Render as human-readable text lines.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "durability: {}", self.state);
        if let Some(ms) = self.retry_after_ms {
            let _ = write!(out, " (retry after {ms} ms)");
        }
        let _ = writeln!(out);
        if let Some(e) = &self.last_error {
            let _ = writeln!(out, "last error: {e}");
        }
        let c = &self.counters;
        let _ = writeln!(
            out,
            "retries {} (succeeded {}), degradations {}, probes {} (re-armed {}), \
             rejected-unavailable {}, disk-full GCs {}, panics isolated {}, \
             quarantined segments {}",
            c.retries,
            c.retry_successes,
            c.degradations,
            c.probes,
            c.rearms,
            c.unavailable_rejections,
            c.disk_full_gcs,
            c.panics_isolated,
            c.quarantined_segments,
        );
        out
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let mut out = format!("{{\"state\":\"{}\"", self.state);
        match &self.last_error {
            Some(e) => out.push_str(&format!(",\"last_error\":\"{}\"", json_escape(e))),
            None => out.push_str(",\"last_error\":null"),
        }
        match self.retry_after_ms {
            Some(ms) => out.push_str(&format!(",\"retry_after_ms\":{ms}")),
            None => out.push_str(",\"retry_after_ms\":null"),
        }
        out.push_str(&format!(
            ",\"counters\":{{\"retries\":{},\"retry_successes\":{},\"degradations\":{},\
             \"probes\":{},\"rearms\":{},\"unavailable_rejections\":{},\"disk_full_gcs\":{},\
             \"panics_isolated\":{},\"quarantined_segments\":{},\"transitions\":{}}}}}",
            c.retries,
            c.retry_successes,
            c.degradations,
            c.probes,
            c.rearms,
            c.unavailable_rejections,
            c.disk_full_gcs,
            c.panics_isolated,
            c.quarantined_segments,
            c.transitions,
        ));
        out
    }
}

// ---------------------------------------------------------------------
// Guarded commit
// ---------------------------------------------------------------------

/// The commit-side operations [`guarded_commit`] drives. One value owns
/// mutable access to the journal for the whole guarded span, so the
/// attempt/repair/GC steps never fight over a borrow.
pub(super) trait HealOps {
    /// What a successful attempt yields.
    type Out;
    /// One full commit attempt (append + fsync, or checkpoint). Must be
    /// safe to re-run after [`repair`](Self::repair).
    fn attempt(&mut self) -> Result<Self::Out, JournalError>;
    /// Truncate the active WAL back to the last acknowledged frame so a
    /// re-attempt can never leave stale unacknowledged bytes ahead of the
    /// new append (durable replay must equal the published prefix).
    fn repair(&mut self) -> Result<(), JournalError>;
    /// Reclaim space after `ENOSPC` (checkpoint the published snapshot,
    /// pruning obsolete segments).
    fn gc(&mut self) -> Result<(), JournalError>;
}

/// Run one commit under the durability machine: classify failures, retry
/// transient/disk-full ones on the policy's backoff schedule (repairing
/// the tail before every re-attempt), degrade on exhaustion or permanent
/// failure, and re-arm on probe success. See the module docs for the full
/// state walk.
pub(super) fn guarded_commit<H: HealOps>(
    m: &mut DurabilityMachine,
    admission: Admission,
    ops: &mut H,
) -> Result<H::Out, JournalError> {
    let probing = admission == Admission::Probe;
    if probing {
        m.counters.probes += 1;
        if let Some(o) = &m.obs {
            o.on_durability_probe();
        }
        m.transition(DurabilityState::Retrying, "probe after cooldown");
        // The degradation may have left unacknowledged bytes in the WAL;
        // repair before the probe append so durable replay stays equal to
        // the published prefix.
        if let Err(e) = ops.repair() {
            m.note_error(&e);
            m.degrade("probe repair failed");
            return Err(m.unavailable_error());
        }
    }

    let mut err = match ops.attempt() {
        Ok(v) => {
            on_success(m, probing, false);
            return Ok(v);
        }
        Err(e) => e,
    };
    m.note_error(&err);

    if err.class() == Some(ErrorClass::Permanent) || err.class().is_none() {
        // Not an I/O failure we can retry (corruption, replay rejection,
        // schema errors never reach here). Degrade and surface it.
        m.degrade("permanent failure");
        return Err(if probing { m.unavailable_error() } else { err });
    }

    m.transition(DurabilityState::Retrying, "transient failure");
    for delay in m.policy.backoff_schedule() {
        m.counters.retries += 1;
        if let Some(o) = &m.obs {
            o.on_durability_retry();
        }
        m.clock.sleep_ms(delay);
        if err.class() == Some(ErrorClass::DiskFull) && ops.gc().is_ok() {
            m.counters.disk_full_gcs += 1;
            if let Some(o) = &m.obs {
                o.on_durability_disk_full_gc();
            }
        }
        if let Err(re) = ops.repair() {
            m.note_error(&re);
            err = re;
            if err.class() != Some(ErrorClass::Transient)
                && err.class() != Some(ErrorClass::DiskFull)
            {
                break;
            }
            continue;
        }
        match ops.attempt() {
            Ok(v) => {
                m.counters.retry_successes += 1;
                if let Some(o) = &m.obs {
                    o.on_durability_retry_success();
                }
                on_success(m, probing, true);
                return Ok(v);
            }
            Err(e2) => {
                m.note_error(&e2);
                let permanent = e2.class() != Some(ErrorClass::Transient)
                    && e2.class() != Some(ErrorClass::DiskFull);
                err = e2;
                if permanent {
                    break;
                }
            }
        }
    }

    m.degrade("retries exhausted");
    // A retryable class that ran out of attempts means "try again after
    // the cooldown" — surface the typed rejection. A permanent error that
    // broke the loop is surfaced as-is (unless this was a probe, where
    // callers always see the degraded contract).
    let retryable = matches!(
        err.class(),
        Some(ErrorClass::Transient | ErrorClass::DiskFull)
    );
    Err(if probing || retryable {
        m.unavailable_error()
    } else {
        err
    })
}

fn on_success(m: &mut DurabilityMachine, probing: bool, retried: bool) {
    match m.state {
        DurabilityState::Retrying if probing => {
            m.counters.rearms += 1;
            if let Some(o) = &m.obs {
                o.on_durability_rearm();
            }
            m.heal("probe append succeeded");
        }
        DurabilityState::Retrying => m.heal("retry succeeded"),
        DurabilityState::Quarantined => m.heal("post-quarantine append succeeded"),
        _ => {
            debug_assert!(!retried, "retry success outside Retrying state");
        }
    }
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

/// Run `f`, converting a panic into `Err(message)`. The **only**
/// `catch_unwind` in the durability layer (CI grep-gated): callers pair
/// it with [`DurabilityMachine::note_panic`] so a writer panic degrades
/// the machine instead of poisoning state or tearing a publish.
pub(super) fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => Err(panic_message(&*payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(clock: Arc<ManualClock>) -> DurabilityMachine {
        DurabilityMachine::new(RetryPolicy::default(), clock)
    }

    #[test]
    fn classify_splits_the_error_space() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            classify(&Error::new(ErrorKind::Interrupted, "x")),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&Error::new(ErrorKind::TimedOut, "x")),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&Error::new(ErrorKind::StorageFull, "x")),
            ErrorClass::DiskFull
        );
        assert_eq!(
            classify(&Error::from_raw_os_error(28)),
            ErrorClass::DiskFull
        );
        assert_eq!(
            classify(&Error::new(ErrorKind::BrokenPipe, "x")),
            ErrorClass::Permanent
        );
        assert_eq!(
            classify(&Error::new(ErrorKind::NotFound, "x")),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::default();
        let a = p.backoff_schedule();
        let b = p.backoff_schedule();
        assert_eq!(a, b, "same policy, same schedule");
        assert_eq!(a.len(), p.max_attempts as usize);
        for (i, d) in a.iter().enumerate() {
            let exp = (p.base_delay_ms << i).min(p.max_delay_ms);
            assert!(*d >= exp, "jitter only adds: {d} < {exp}");
            assert!(*d <= exp + exp / 4, "jitter capped at 25%: {d} > {exp}+25%");
        }
        let other = RetryPolicy {
            jitter_seed: 0xDEAD,
            ..p.clone()
        };
        assert_ne!(a, other.backoff_schedule(), "seed changes the jitter");
        assert_eq!(p.total_budget_ms(), a.iter().sum::<u64>());
    }

    struct Flaky {
        fail_first: usize,
        class: ErrorClass,
        attempts: usize,
        repairs: usize,
        gcs: usize,
    }

    impl Flaky {
        fn new(fail_first: usize, class: ErrorClass) -> Self {
            Flaky {
                fail_first,
                class,
                attempts: 0,
                repairs: 0,
                gcs: 0,
            }
        }
    }

    impl HealOps for Flaky {
        type Out = ();

        fn attempt(&mut self) -> Result<(), JournalError> {
            self.attempts += 1;
            if self.attempts <= self.fail_first {
                return Err(match self.class {
                    ErrorClass::Transient => JournalError::TransientIo("flaky".into()),
                    ErrorClass::DiskFull => JournalError::DiskFull("full".into()),
                    ErrorClass::Permanent => JournalError::Io("dead".into()),
                });
            }
            Ok(())
        }

        fn repair(&mut self) -> Result<(), JournalError> {
            self.repairs += 1;
            Ok(())
        }

        fn gc(&mut self) -> Result<(), JournalError> {
            self.gcs += 1;
            Ok(())
        }
    }

    #[test]
    fn transient_failures_retry_then_recover() {
        let clock = Arc::new(ManualClock::new());
        let mut m = machine(clock.clone());
        let mut ops = Flaky::new(2, ErrorClass::Transient);
        guarded_commit(&mut m, Admission::Normal, &mut ops).unwrap();
        assert_eq!(m.state(), DurabilityState::Recovered);
        let c = m.counters();
        assert_eq!(c.retries, 2);
        assert_eq!(c.retry_successes, 1);
        assert_eq!(c.degradations, 0);
        assert_eq!(ops.attempts, 3);
        assert_eq!(ops.repairs, 2, "tail repaired before each re-attempt");
        assert!(clock.now_ms() > 0, "backoff slept on the injected clock");
    }

    #[test]
    fn disk_full_runs_gc_before_each_retry() {
        let clock = Arc::new(ManualClock::new());
        let mut m = machine(clock);
        let mut ops = Flaky::new(1, ErrorClass::DiskFull);
        guarded_commit(&mut m, Admission::Normal, &mut ops).unwrap();
        assert_eq!(ops.gcs, 1);
        assert_eq!(m.counters().disk_full_gcs, 1);
        assert_eq!(m.state(), DurabilityState::Recovered);
    }

    #[test]
    fn permanent_failure_degrades_without_sleeping() {
        let clock = Arc::new(ManualClock::new());
        let mut m = machine(clock.clone());
        let mut ops = Flaky::new(usize::MAX, ErrorClass::Permanent);
        let err = guarded_commit(&mut m, Admission::Normal, &mut ops).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");
        assert_eq!(m.state(), DurabilityState::Degraded);
        assert_eq!(m.counters().retries, 0, "permanent failures never retry");
        assert_eq!(clock.now_ms(), 0, "and never sleep");
        assert_eq!(ops.attempts, 1);
    }

    #[test]
    fn exhausted_retries_degrade_and_reject_until_cooldown_probe_rearms() {
        let clock = Arc::new(ManualClock::new());
        let mut m = machine(clock.clone());
        let mut ops = Flaky::new(usize::MAX, ErrorClass::Transient);
        let err = guarded_commit(&mut m, Admission::Normal, &mut ops).unwrap_err();
        assert!(matches!(err, JournalError::Unavailable { .. }), "{err:?}");
        assert_eq!(m.state(), DurabilityState::Degraded);
        assert_eq!(m.counters().retries, m.policy().max_attempts as u64);

        // Inside the cooldown: fail fast, typed, counted.
        match m.admit() {
            Err(JournalError::Unavailable { retry_after_ms, .. }) => {
                assert!(retry_after_ms > 0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.counters().unavailable_rejections, 1);

        // After the cooldown: the next append is the probe; success
        // re-arms the machine.
        clock.advance(m.policy().max_cooldown_ms);
        let admission = m.admit().unwrap();
        assert_eq!(admission, Admission::Probe);
        let mut healthy = Flaky::new(0, ErrorClass::Transient);
        guarded_commit(&mut m, admission, &mut healthy).unwrap();
        assert_eq!(m.state(), DurabilityState::Recovered);
        assert_eq!(m.counters().probes, 1);
        assert_eq!(m.counters().rearms, 1);
        assert_eq!(healthy.repairs, 1, "probe repairs the tail first");
    }

    #[test]
    fn failed_probe_doubles_the_cooldown_up_to_the_cap() {
        let clock = Arc::new(ManualClock::new());
        let mut m = machine(clock.clone());
        let mut dead = Flaky::new(usize::MAX, ErrorClass::Permanent);
        guarded_commit(&mut m, Admission::Normal, &mut dead).unwrap_err();
        let first = m.retry_after_ms().unwrap();
        clock.advance(first);
        let admission = m.admit().unwrap();
        let err = guarded_commit(&mut m, admission, &mut dead).unwrap_err();
        assert!(matches!(err, JournalError::Unavailable { .. }), "{err:?}");
        let second = m.retry_after_ms().unwrap();
        assert!(second > first, "cooldown doubled: {first} -> {second}");
        assert!(second <= m.policy().max_cooldown_ms);
    }

    #[test]
    fn isolate_catches_and_reports_panics() {
        assert_eq!(isolate(|| 7).unwrap(), 7);
        let msg = isolate(|| panic!("boom {}", 42)).unwrap_err();
        assert!(msg.contains("boom 42"), "{msg}");
    }

    #[test]
    fn report_renders_text_and_json() {
        let clock = Arc::new(ManualClock::new());
        let mut m = machine(clock);
        let mut dead = Flaky::new(usize::MAX, ErrorClass::Permanent);
        guarded_commit(&mut m, Admission::Normal, &mut dead).unwrap_err();
        let r = m.report();
        let text = r.to_text();
        assert!(text.contains("durability: degraded"), "{text}");
        assert!(text.contains("last error:"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"state\":\"degraded\""), "{json}");
        assert!(json.contains("\"degradations\":1"), "{json}");
    }

    #[test]
    fn report_json_escapes_control_characters() {
        let r = DurabilityReport {
            state: DurabilityState::Degraded,
            last_error: Some("type name `A\u{1}` already in use".into()),
            retry_after_ms: None,
            counters: DurabilityCounters::default(),
        };
        let json = r.to_json();
        assert!(json.contains("`A\\u0001`"), "{json}");
        assert!(!json.contains("\\u{"), "not JSON: {json}");
    }
}
