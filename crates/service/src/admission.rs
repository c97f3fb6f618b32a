//! Typed admission-control errors and the bounded retry policy.

use std::time::Duration;

use crate::job::JobSpec;
use crate::tenant::TenantId;

/// Why a submission was shed at the door.
///
/// [`QueueFull`](AdmissionError::QueueFull) and
/// [`TenantBudget`](AdmissionError::TenantBudget) are *soft*: the condition
/// is transient and a bounded retry with backoff
/// ([`JobService::submit_with_retry`](crate::JobService::submit_with_retry))
/// may get the job in. The others are hard — retrying cannot help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The shared ingest queue is at capacity.
    QueueFull {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// The configured capacity it hit.
        capacity: usize,
    },
    /// The tenant already has its full budget of jobs queued or executing.
    TenantBudget {
        /// The over-budget tenant.
        tenant: TenantId,
        /// In-flight jobs observed at rejection time.
        in_flight: usize,
        /// The tenant's configured budget.
        budget: usize,
    },
    /// No tenant with this id is registered.
    UnknownTenant(TenantId),
    /// The service is shutting down and no longer admits jobs.
    ShuttingDown,
}

impl AdmissionError {
    /// Whether the rejection is transient and worth retrying.
    pub fn is_soft(&self) -> bool {
        matches!(
            self,
            AdmissionError::QueueFull { .. } | AdmissionError::TenantBudget { .. }
        )
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { depth, capacity } => {
                write!(f, "ingest queue full ({depth}/{capacity})")
            }
            AdmissionError::TenantBudget {
                tenant,
                in_flight,
                budget,
            } => write!(
                f,
                "{tenant} in-flight budget exhausted ({in_flight}/{budget})"
            ),
            AdmissionError::UnknownTenant(tenant) => {
                write!(f, "{tenant} is not registered")
            }
            AdmissionError::ShuttingDown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A shed submission: the error plus the job handed back so the client can
/// resubmit it without rebuilding closures.
pub struct Rejected {
    /// The job, returned unconsumed.
    pub job: JobSpec,
    /// Why it was shed.
    pub error: AdmissionError,
}

impl std::fmt::Debug for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rejected")
            .field("job", &self.job)
            .field("error", &self.error)
            .finish()
    }
}

/// Bounded exponential backoff for soft rejections, with optional
/// deterministic full jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the initial submission (0 = no retries).
    pub attempts: u32,
    /// Sleep before the first retry; doubles each further attempt.
    pub backoff: Duration,
    /// Ceiling on any single sleep.
    pub max_backoff: Duration,
    /// Non-zero enables *full jitter*: the sleep before retry `attempt`
    /// becomes a deterministic pseudo-uniform draw from `[0, exp]` where
    /// `exp` is the capped exponential delay. The draw depends only on
    /// `(jitter_seed, attempt)` — no wall clock, no global RNG — so a replay
    /// with the same seed sleeps the same schedule. `0` (the default) keeps
    /// the exact exponential schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(1),
            jitter_seed: 0,
        }
    }
}

/// SplitMix64 — the same finaliser the core fault plan uses; good enough to
/// decorrelate consecutive attempts from a single seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Enable deterministic full jitter with this seed (see
    /// [`jitter_seed`](RetryPolicy::jitter_seed)).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The sleep before retry `attempt` (0-based): `backoff << attempt`,
    /// capped at `max_backoff`; with a non-zero
    /// [`jitter_seed`](RetryPolicy::jitter_seed), a deterministic uniform
    /// draw from `[0, that]`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff);
        if self.jitter_seed == 0 {
            return exp;
        }
        let span = exp.as_nanos() as u64;
        if span == 0 {
            return exp;
        }
        let draw = splitmix64(self.jitter_seed.wrapping_add(u64::from(attempt)));
        Duration::from_nanos(draw % (span + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softness_classification() {
        assert!(AdmissionError::QueueFull {
            depth: 4,
            capacity: 4
        }
        .is_soft());
        assert!(AdmissionError::TenantBudget {
            tenant: TenantId(1),
            in_flight: 8,
            budget: 8
        }
        .is_soft());
        assert!(!AdmissionError::UnknownTenant(TenantId(9)).is_soft());
        assert!(!AdmissionError::ShuttingDown.is_soft());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            attempts: 8,
            backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(450),
            jitter_seed: 0,
        };
        assert_eq!(policy.delay(0), Duration::from_micros(100));
        assert_eq!(policy.delay(1), Duration::from_micros(200));
        assert_eq!(policy.delay(2), Duration::from_micros(400));
        assert_eq!(policy.delay(3), Duration::from_micros(450));
        assert_eq!(policy.delay(31), Duration::from_micros(450));
        assert_eq!(policy.delay(40), Duration::from_micros(450));
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let base = RetryPolicy {
            attempts: 8,
            backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(450),
            jitter_seed: 0,
        };
        let jittered = base.clone().with_jitter_seed(0xDEAD_BEEF);
        let replay = base.clone().with_jitter_seed(0xDEAD_BEEF);
        let mut saw_distinct = false;
        for attempt in 0..8 {
            let d = jittered.delay(attempt);
            // Same seed, same attempt => same sleep.
            assert_eq!(d, replay.delay(attempt));
            // Full jitter never exceeds the exponential envelope.
            assert!(d <= base.delay(attempt), "attempt {attempt}: {d:?}");
            if d != base.delay(attempt) {
                saw_distinct = true;
            }
        }
        assert!(saw_distinct, "jitter never moved any delay");
        // A different seed reshuffles the schedule.
        let other = base.with_jitter_seed(0xFACE_FEED);
        assert!((0..8).any(|a| other.delay(a) != jittered.delay(a)));
    }
}
