//! Fault-schedule injection: a small DSL over [`JournalIo`] faults.
//!
//! [`ChaosIo`] wraps any [`JournalIo`] and injects a [`FaultPlan`], a
//! schedule of any mix of
//!
//! - **crash** — a *dying* process: the Nth mutating call fails (tearing
//!   the failing write first), then every call errors, reads included.
//!   This is the crash-point sweep's model ([`ChaosIo::crash_at`]);
//! - **fail-Nth** — the Nth mutating call fails once with a chosen
//!   [`FaultKind`] (optionally tearing the failing write first), and the
//!   process survives it, as the self-healing paths assume;
//! - **intermittent** — every `period`-th call fails, up to a budget;
//! - **slow-IO** — the Nth mutating call stalls on the injected
//!   [`Clock`] before proceeding;
//! - **panic** — the Nth mutating call panics (exercising the
//!   `catch_unwind` isolation in [`heal`](super::heal));
//! - **WAL budget** — not an I/O fault at all: the plan carries a byte
//!   budget the harness installs via
//!   [`Journal::set_wal_budget`](super::Journal::set_wal_budget),
//!   producing typed `ENOSPC`-until-checkpoint-GC pressure.
//!
//! Plans are generated deterministically from a seed
//! ([`FaultPlan::seeded`], which never schedules a crash), so the chaos
//! sweep in `workload/tests/chaos_schedule.rs` is reproducible
//! schedule-for-schedule, and [`FaultPlan::transient_only`] tells the
//! sweep which schedules must end `Recovered`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::heal::{Clock, ManualClock};
use super::io::JournalIo;

/// What kind of I/O error an injected fault surfaces (see
/// [`heal::classify`](super::heal::classify) for how each is treated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `EINTR`-family: retryable in place.
    Transient,
    /// `ENOSPC`: retryable after checkpoint GC.
    DiskFull,
    /// Unretryable: degrades the journal immediately.
    Permanent,
}

impl FaultKind {
    fn error(self, call: u64) -> io::Error {
        match self {
            FaultKind::Transient => io::Error::new(
                io::ErrorKind::Interrupted,
                format!("chaos: transient fault at call {call}"),
            ),
            FaultKind::DiskFull => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("chaos: disk full at call {call}"),
            ),
            FaultKind::Permanent => io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("chaos: permanent fault at call {call}"),
            ),
        }
    }
}

/// One scheduled fault. Mutating calls are numbered from 1 once the
/// [`ChaosIo`] is armed; reads are never counted, and only a crash fails
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Kill the process at mutating call number `nth`: write at most
    /// `torn_bytes` of the failing write/append, fail it `BrokenPipe`,
    /// and from then on fail every call, reads and listings included,
    /// without counting it.
    Crash {
        /// 1-based mutating-call number.
        nth: u64,
        /// Bytes of the failing write that still reach the file.
        torn_bytes: usize,
    },
    /// Fail mutating call number `nth` exactly once, tearing the failing
    /// write/append after `torn_bytes` bytes (0 = no partial effect).
    FailNth {
        /// 1-based mutating-call number.
        nth: u64,
        /// Error kind surfaced.
        kind: FaultKind,
        /// Bytes of the failing write that still reach the file.
        torn_bytes: usize,
    },
    /// Fail every call with `number % period == phase`, at most `budget`
    /// times.
    Intermittent {
        /// Cycle length (≥ 1).
        period: u64,
        /// Offset within the cycle (`< period`).
        phase: u64,
        /// Error kind surfaced.
        kind: FaultKind,
        /// Maximum number of failures injected.
        budget: u64,
    },
    /// Stall mutating call number `nth` for `delay_ms` on the injected
    /// clock, then proceed normally.
    SlowNth {
        /// 1-based mutating-call number.
        nth: u64,
        /// Stall length in milliseconds.
        delay_ms: u64,
    },
    /// Panic on mutating call number `nth` (the durability layer must
    /// isolate it).
    PanicNth {
        /// 1-based mutating-call number.
        nth: u64,
    },
    /// Install an active-WAL byte budget on the journal (typed `ENOSPC`
    /// until a checkpoint prunes the log). Applied by the harness, not by
    /// [`ChaosIo`].
    WalBudget {
        /// Active-WAL byte budget.
        bytes: u64,
    },
}

/// Sizing facts a chaos harness measures on a clean dry run, used to pick
/// WAL budgets that bind mid-run but always leave room to heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibration {
    /// Peak active-WAL size (bytes) observed on the fault-free run.
    pub peak_wal_bytes: u64,
    /// Size (bytes) of the largest single append batch.
    pub max_batch_bytes: u64,
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled faults, applied independently per call.
    pub specs: Vec<FaultSpec>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Generate a plan from `seed`, sized by `cal`. The seed picks one of
    /// four families — intermittent-transient, torn fail-Nth bursts,
    /// WAL-budget pressure with slow-IO, or a permanent mid-run fault —
    /// and every seventh seed adds an injected panic. Same seed and
    /// calibration ⇒ same plan.
    pub fn seeded(seed: u64, cal: &Calibration) -> FaultPlan {
        let mut s = seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(1);
        let mut next = move |bound: u64| splitmix64(&mut s) % bound.max(1);
        let mut specs = Vec::new();
        match seed % 4 {
            0 => {
                let period = 3 + next(11);
                specs.push(FaultSpec::Intermittent {
                    period,
                    phase: next(period),
                    kind: FaultKind::Transient,
                    budget: 1 + next(20),
                });
            }
            1 => {
                for _ in 0..=next(3) {
                    specs.push(FaultSpec::FailNth {
                        nth: 1 + next(500),
                        kind: FaultKind::Transient,
                        torn_bytes: next(40) as usize,
                    });
                }
            }
            2 => {
                // Budget binds mid-run (≈ half the fault-free peak) but a
                // fresh post-checkpoint WAL always has room for the
                // largest batch, so disk-full pressure is always healable.
                let floor = cal.max_batch_bytes * 4 + 256;
                specs.push(FaultSpec::WalBudget {
                    bytes: (cal.peak_wal_bytes / 2).max(floor),
                });
                specs.push(FaultSpec::SlowNth {
                    nth: 1 + next(400),
                    delay_ms: 1 + next(50),
                });
            }
            _ => {
                specs.push(FaultSpec::FailNth {
                    nth: 1 + next(500),
                    kind: FaultKind::Permanent,
                    torn_bytes: next(20) as usize,
                });
                if next(2) == 0 {
                    specs.push(FaultSpec::Intermittent {
                        period: 5 + next(9),
                        phase: 0,
                        kind: FaultKind::Transient,
                        budget: 1 + next(8),
                    });
                }
            }
        }
        if seed.is_multiple_of(7) {
            specs.push(FaultSpec::PanicNth { nth: 1 + next(400) });
        }
        FaultPlan { specs }
    }

    /// True when no scheduled fault is [`FaultKind::Permanent`] or a
    /// crash — such a schedule must never leave the journal permanently
    /// degraded.
    pub fn transient_only(&self) -> bool {
        self.specs.iter().all(|s| {
            !matches!(
                s,
                FaultSpec::Crash { .. }
                    | FaultSpec::FailNth {
                        kind: FaultKind::Permanent,
                        ..
                    }
                    | FaultSpec::Intermittent {
                        kind: FaultKind::Permanent,
                        ..
                    }
            )
        })
    }

    /// The WAL budget this plan wants installed, if any.
    pub fn wal_budget(&self) -> Option<u64> {
        self.specs.iter().find_map(|s| match s {
            FaultSpec::WalBudget { bytes } => Some(*bytes),
            _ => None,
        })
    }
}

#[derive(Debug, Default)]
struct ChaosState {
    /// Remaining failure budget per spec (indexed like `plan.specs`).
    remaining: Vec<u64>,
    /// One-shot specs already fired.
    fired: Vec<bool>,
}

/// Fault injection driven by a [`FaultPlan`]. Short of a
/// [`FaultSpec::Crash`], an injected failure affects only the scheduled
/// call — the next call proceeds normally, which is exactly the situation
/// retry/backoff exists for. Counting starts at [`ChaosIo::arm`] so
/// journal creation/recovery run clean and schedules address only the
/// steady-state run.
#[derive(Debug)]
pub struct ChaosIo {
    inner: Arc<dyn JournalIo>,
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    armed: AtomicBool,
    /// A crash fired: every later call fails.
    dead: AtomicBool,
    mutations: AtomicU64,
    injected: AtomicU64,
    state: Mutex<ChaosState>,
}

impl ChaosIo {
    /// Wrap `inner`, injecting `plan` once armed. `clock` paces slow-IO
    /// faults (virtual time under test).
    pub fn new(inner: Arc<dyn JournalIo>, plan: FaultPlan, clock: Arc<dyn Clock>) -> Self {
        let n = plan.specs.len();
        let remaining = plan
            .specs
            .iter()
            .map(|s| match s {
                FaultSpec::Intermittent { budget, .. } => *budget,
                _ => 1,
            })
            .collect();
        ChaosIo {
            inner,
            plan,
            clock,
            armed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            mutations: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            state: Mutex::new(ChaosState {
                remaining,
                fired: vec![false; n],
            }),
        }
    }

    /// Armed from the first call, kill the process at mutating call `nth`
    /// (0 = never: only count) after tearing the failing write at
    /// `torn_bytes` — see [`FaultSpec::Crash`]. A crash never sleeps, so
    /// the clock is never read.
    pub fn crash_at(inner: Arc<dyn JournalIo>, nth: u64, torn_bytes: usize) -> Self {
        let specs = vec![FaultSpec::Crash { nth, torn_bytes }];
        let io = Self::new(inner, FaultPlan { specs }, Arc::new(ManualClock::new()));
        io.arm();
        io
    }

    /// Start counting mutating calls and injecting faults.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Has a [`FaultSpec::Crash`] fired (the simulated process is dead)?
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Fail every call of a dead process.
    fn alive(&self) -> io::Result<()> {
        if self.is_dead() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected fault: process dead",
            ));
        }
        Ok(())
    }

    /// Mutating calls observed since [`arm`](Self::arm) (none after a
    /// crash).
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    /// Faults injected so far (errors and panics, not slow-IO stalls).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Evaluate the plan for one mutating call. `Some((error,
    /// torn_bytes))` means the call must fail after writing at most
    /// `torn_bytes` of its payload. Panics if a `PanicNth` matches.
    fn gate(&self) -> Option<(io::Error, usize)> {
        if let Err(e) = self.alive() {
            return Some((e, 0));
        }
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        let n = self.mutations.fetch_add(1, Ordering::SeqCst) + 1;
        let mut st = self.state.lock();
        for (i, spec) in self.plan.specs.iter().enumerate() {
            match spec {
                FaultSpec::Crash { nth, torn_bytes } if *nth == n => {
                    self.dead.store(true, Ordering::SeqCst);
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    let e = io::Error::new(io::ErrorKind::BrokenPipe, "injected fault");
                    return Some((e, *torn_bytes));
                }
                FaultSpec::FailNth {
                    nth,
                    kind,
                    torn_bytes,
                } if *nth == n && !st.fired[i] => {
                    st.fired[i] = true;
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    return Some((kind.error(n), *torn_bytes));
                }
                FaultSpec::Intermittent {
                    period,
                    phase,
                    kind,
                    ..
                } if n % (*period).max(1) == *phase && st.remaining[i] > 0 => {
                    st.remaining[i] -= 1;
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    return Some((kind.error(n), 0));
                }
                FaultSpec::SlowNth { nth, delay_ms } if *nth == n && !st.fired[i] => {
                    st.fired[i] = true;
                    self.clock.sleep_ms(*delay_ms);
                }
                FaultSpec::PanicNth { nth } if *nth == n && !st.fired[i] => {
                    st.fired[i] = true;
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    drop(st);
                    panic!("chaos: injected panic at call {n}");
                }
                _ => {}
            }
        }
        None
    }
}

impl JournalIo for ChaosIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if let Some((e, _)) = self.gate() {
            return Err(e);
        }
        self.inner.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.alive()?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if let Some((e, torn)) = self.gate() {
            let k = torn.min(data.len());
            if k > 0 {
                self.inner.write(path, &data[..k])?;
            }
            return Err(e);
        }
        self.inner.write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if let Some((e, torn)) = self.gate() {
            let k = torn.min(data.len());
            if k > 0 {
                self.inner.append(path, &data[..k])?;
            }
            return Err(e);
        }
        self.inner.append(path, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if let Some((e, _)) = self.gate() {
            return Err(e);
        }
        self.inner.truncate(path, len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        if let Some((e, _)) = self.gate() {
            return Err(e);
        }
        self.inner.fsync(path)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        if let Some((e, _)) = self.gate() {
            return Err(e);
        }
        self.inner.fsync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some((e, _)) = self.gate() {
            return Err(e);
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        if let Some((e, _)) = self.gate() {
            return Err(e);
        }
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.alive()?;
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::super::io::{atomic_write, CrashKeep, MemIo};
    use super::*;
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn chaos(plan: FaultPlan) -> (ChaosIo, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let io = ChaosIo::new(Arc::new(MemIo::new()), plan, clock.clone());
        io.arm();
        (io, clock)
    }

    #[test]
    fn fail_nth_fires_once_then_heals() {
        let (io, _) = chaos(FaultPlan {
            specs: vec![FaultSpec::FailNth {
                nth: 2,
                kind: FaultKind::Transient,
                torn_bytes: 0,
            }],
        });
        io.write(&p("/c/a"), b"1").unwrap();
        let e = io.write(&p("/c/b"), b"2").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        io.write(&p("/c/b"), b"2").unwrap();
        assert_eq!(io.injected(), 1);
    }

    #[test]
    fn torn_fail_nth_leaves_partial_bytes() {
        let mem = Arc::new(MemIo::new());
        let io = ChaosIo::new(
            mem.clone(),
            FaultPlan {
                specs: vec![FaultSpec::FailNth {
                    nth: 1,
                    kind: FaultKind::Transient,
                    torn_bytes: 3,
                }],
            },
            Arc::new(ManualClock::new()),
        );
        io.arm();
        assert!(io.append(&p("/c/w"), b"abcdef").is_err());
        assert_eq!(mem.read(&p("/c/w")).unwrap(), b"abc");
    }

    #[test]
    fn intermittent_fails_on_period_until_budget_spent() {
        let (io, _) = chaos(FaultPlan {
            specs: vec![FaultSpec::Intermittent {
                period: 3,
                phase: 0,
                kind: FaultKind::DiskFull,
                budget: 2,
            }],
        });
        let mut failures = Vec::new();
        for i in 1..=12u64 {
            if let Err(e) = io.write(&p("/c/f"), b"x") {
                assert_eq!(e.kind(), io::ErrorKind::StorageFull);
                failures.push(i);
            }
        }
        assert_eq!(failures, [3, 6], "period 3, budget 2");
    }

    #[test]
    fn slow_nth_advances_the_clock_without_failing() {
        let (io, clock) = chaos(FaultPlan {
            specs: vec![FaultSpec::SlowNth {
                nth: 1,
                delay_ms: 40,
            }],
        });
        io.write(&p("/c/s"), b"x").unwrap();
        assert_eq!(clock.now_ms(), 40);
        assert_eq!(io.injected(), 0, "stalls are not failures");
    }

    #[test]
    fn unarmed_chaos_is_transparent() {
        let clock = Arc::new(ManualClock::new());
        let io = ChaosIo::new(
            Arc::new(MemIo::new()),
            FaultPlan {
                specs: vec![FaultSpec::FailNth {
                    nth: 1,
                    kind: FaultKind::Permanent,
                    torn_bytes: 0,
                }],
            },
            clock,
        );
        io.write(&p("/c/a"), b"1").unwrap();
        assert_eq!(io.mutations(), 0);
        io.arm();
        assert!(io.write(&p("/c/b"), b"2").is_err());
    }

    #[test]
    fn crash_fails_nth_mutation_then_stays_dead() {
        let mem = Arc::new(MemIo::new());
        let io = ChaosIo::crash_at(mem.clone(), 2, 0);
        io.write(&p("/j/a"), b"1").unwrap();
        assert!(io.write(&p("/j/b"), b"2").is_err());
        assert!(io.is_dead());
        assert!(io.write(&p("/j/c"), b"3").is_err());
        assert!(io.read(&p("/j/a")).is_err(), "dead process cannot read");
        // The underlying fs kept the first write, never saw the second.
        assert_eq!(mem.read(&p("/j/a")).unwrap(), b"1");
        assert!(mem.read(&p("/j/b")).is_err());
        assert_eq!(io.mutations(), 2);
    }

    #[test]
    fn crash_torn_write_leaves_partial_bytes() {
        let mem = Arc::new(MemIo::new());
        let io = ChaosIo::crash_at(mem.clone(), 1, 3);
        assert!(io.append(&p("/j/w"), b"abcdef").is_err());
        assert_eq!(mem.read(&p("/j/w")).unwrap(), b"abc");
    }

    #[test]
    fn atomic_write_crash_never_mixes_old_and_new() {
        // At every fault point, after a crash the file is either the old
        // contents or the new contents — never a prefix or a mix.
        for fail_at in 1..=8u64 {
            for keep in [CrashKeep::Synced, CrashKeep::Torn, CrashKeep::All] {
                let mem = MemIo::new();
                mem.write(&p("/j/f"), b"old").unwrap();
                mem.fsync(&p("/j/f")).unwrap();
                mem.fsync_dir(&p("/j")).unwrap();
                let io = ChaosIo::crash_at(Arc::new(mem.clone()), fail_at, 2);
                let r = atomic_write(&io, &p("/j/f"), b"replacement");
                if fail_at > 4 {
                    assert!(r.is_ok(), "only 4 I/O calls in atomic_write");
                    continue;
                }
                assert!(r.is_err());
                mem.crash(keep);
                let got = mem.read(&p("/j/f")).unwrap();
                assert!(
                    got == b"old" || got == b"replacement",
                    "fail_at={fail_at} keep={keep:?}: got {:?}",
                    String::from_utf8_lossy(&got)
                );
            }
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_classified() {
        let cal = Calibration {
            peak_wal_bytes: 10_000,
            max_batch_bytes: 64,
        };
        let mut transient_only = 0;
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, &cal);
            let b = FaultPlan::seeded(seed, &cal);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert!(!a.specs.is_empty());
            if a.transient_only() {
                transient_only += 1;
            }
            if let Some(bytes) = a.wal_budget() {
                assert!(bytes >= cal.max_batch_bytes * 4);
            }
        }
        assert!(transient_only >= 32, "3 of 4 families are transient-only");
    }
}
