//! Owner-side snapshot refresh: when to re-freeze, and how to back off.
//!
//! `ServerHandle::refresh_with` swaps an incrementally re-frozen
//! snapshot under traffic; [`crate::ServerHandle::refresh_if_due`]
//! decides *when*. Engines are deliberately not `Send`, so the server
//! never holds one and runs no refresh thread: the thread that owns the
//! engine calls `refresh_if_due` from the loop where it already
//! mutates, passing the drift its
//! [`DeltaTracker`](gdm_core::DeltaTracker) recorded
//! ([`gdm_engines::GraphEngine::pending_changes`]) and a build closure
//! (typically [`gdm_engines::GraphEngine::refreeze`]). The call
//! publishes the drift for `HEALTH` and re-freezes once the drift
//! crosses a change-count or staleness threshold. A failed rebuild
//! never takes the server down: the old snapshot keeps serving, later
//! calls skip the build for an exponentially growing backoff, and
//! `HEALTH` reports `degraded` until a rebuild lands.

use std::time::Duration;

/// When [`crate::ServerHandle::refresh_if_due`] re-freezes, and how
/// long it waits after a re-freeze fails.
#[derive(Debug, Clone, Copy)]
pub struct RefreshPolicy {
    /// Re-freeze once this many changes are pending, regardless of
    /// snapshot age.
    pub min_changes: u64,
    /// Re-freeze once *any* change is pending and the serving snapshot
    /// is older than this.
    pub max_staleness: Duration,
    /// Pause after the first failed rebuild; doubles per consecutive
    /// failure.
    pub failure_backoff: Duration,
    /// Ceiling on the failure backoff.
    pub max_backoff: Duration,
}

impl Default for RefreshPolicy {
    /// Re-freeze at 1 000 pending changes or 2 s of staleness; failures
    /// back off 100 ms → 5 s.
    fn default() -> Self {
        RefreshPolicy {
            min_changes: 1_000,
            max_staleness: Duration::from_secs(2),
            failure_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
        }
    }
}

impl RefreshPolicy {
    /// Whether `pending` changes against a snapshot `age` old call for
    /// a re-freeze. `u64::MAX` (the tracker degraded to a full rebuild)
    /// is due like any large count.
    pub fn is_due(&self, pending: u64, age: Duration) -> bool {
        pending >= self.min_changes.max(1) || (pending > 0 && age >= self.max_staleness)
    }

    /// The pause after the `failures`-th consecutive failed rebuild:
    /// `failure_backoff` doubled per earlier failure, capped at
    /// `max_backoff`.
    pub fn backoff(&self, failures: u64) -> Duration {
        let doublings = failures.saturating_sub(1).min(31) as u32;
        self.failure_backoff
            .saturating_mul(1 << doublings)
            .min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_up_to_the_ceiling() {
        let policy = RefreshPolicy {
            failure_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(100),
            ..RefreshPolicy::default()
        };
        let ms = |n| policy.backoff(n).as_millis();
        assert_eq!([ms(1), ms(2), ms(3), ms(4)], [30, 60, 100, 100]);
        assert_eq!(ms(u64::MAX), 100);
    }
}
