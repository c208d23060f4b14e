//! The restart-and-catch-up recovery policy (DESIGN.md §11).
//!
//! The fault layer can kill a process mid-operation; this module names
//! *what happens next*. Production queue services do not shrug at a dead
//! worker — a supervisor re-dispatches its remaining work to a survivor.
//! Under the simulator that idiom stays deterministic: the kill posts a
//! death notice on the [`crate::SimPlatform::death_board`], the
//! designated survivor observes it with ordinary charged loads, replays
//! the victim's unfinished share, and stamps the handoff with
//! [`crate::SimPlatform::mark_recovered`] — all of it a pure function of
//! the seed, so every recovery (and its time-to-recover) replays
//! byte-identically.

/// Which survivor absorbs a killed process's remaining work share.
///
/// The policy is deliberately minimal: one designated survivor, known
/// before the run starts, so the recovery schedule is deterministic and
/// the asymmetry under test stays clean — for a non-blocking queue the
/// designated survivor completes the victim's share (recovery cost ≈ the
/// residual share); for a lock-based queue it wedges on the dead
/// process's lock and the watchdog flags it instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// The pid that absorbs every victim's remaining share.
    pub survivor: usize,
}

impl RecoveryPolicy {
    /// A policy where `survivor` absorbs every victim's remaining share.
    pub fn designated(survivor: usize) -> RecoveryPolicy {
        RecoveryPolicy { survivor }
    }

    /// Whether `pid` is the designated survivor.
    pub fn is_survivor(self, pid: usize) -> bool {
        self.survivor == pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designated_survivor_round_trips() {
        let policy = RecoveryPolicy::designated(2);
        assert!(policy.is_survivor(2));
        assert!(!policy.is_survivor(0));
        assert_eq!(policy, RecoveryPolicy { survivor: 2 });
    }
}
