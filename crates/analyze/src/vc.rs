//! Vector clocks over dynamically created thread epochs.
//!
//! The race detector assigns each observed thread a small `u64` epoch id.
//! One OS thread runs many region children — hot-team workers serve
//! region after region, and the forking thread runs child 0 — so the
//! detector re-maps `ThreadId`s on every `ChildStart`. A clock is a
//! sparse map from epoch id to that thread's logical time; everything
//! the FastTrack family needs reduces to `join` and the `dominates`
//! comparison.

use std::collections::HashMap;

/// A sparse vector clock: absent components are zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    entries: HashMap<u64, u32>,
}

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// This clock's component for thread `tid` (0 if never seen).
    pub fn get(&self, tid: u64) -> u32 {
        self.entries.get(&tid).copied().unwrap_or(0)
    }

    /// Set one component.
    pub fn set(&mut self, tid: u64, clock: u32) {
        self.entries.insert(tid, clock);
    }

    /// Advance thread `tid`'s own component by one.
    pub fn tick(&mut self, tid: u64) {
        *self.entries.entry(tid).or_insert(0) += 1;
    }

    /// Pointwise maximum: afterwards `self` happens-after both inputs.
    pub fn join(&mut self, other: &VectorClock) {
        for (&tid, &clock) in &other.entries {
            let mine = self.entries.entry(tid).or_insert(0);
            if *mine < clock {
                *mine = clock;
            }
        }
    }

    /// `true` iff `self[t] >= other[t]` for every component `t` — i.e.
    /// everything `other` knew about happened before `self`'s frontier.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other
            .entries
            .iter()
            .all(|(&tid, &clock)| self.get(tid) >= clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_clock_dominates_nothing_but_zero() {
        let zero = VectorClock::new();
        let mut one = VectorClock::new();
        one.tick(1);
        assert!(zero.dominates(&zero));
        assert!(one.dominates(&zero));
        assert!(!zero.dominates(&one));
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(1, 5);
        a.set(2, 1);
        let mut b = VectorClock::new();
        b.set(2, 3);
        b.set(3, 7);
        a.join(&b);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 3);
        assert_eq!(a.get(3), 7);
        assert!(a.dominates(&b));
    }

    #[test]
    fn concurrent_clocks_do_not_dominate() {
        let mut a = VectorClock::new();
        a.tick(1);
        let mut b = VectorClock::new();
        b.tick(2);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }
}
