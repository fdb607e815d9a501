//! Failure detection and recovery: the ULFM-flavoured half of chaos.
//!
//! Ranks in this runtime are threads, so a "crash" is cooperative: a
//! rank whose fault schedule fires calls [`Comm::crash`], which
//! registers it in the world's shared [`DeadSet`] and wakes every
//! blocked receiver so peers observe [`MpcError::PeerGone`] promptly
//! instead of timing out. Survivors then either route around the dead
//! rank ([`Comm::is_alive`], [`Comm::failed_ranks`]) or rebuild a
//! smaller communicator with [`Comm::shrink`] — the `MPIX_Comm_shrink`
//! analog — and continue degraded.
//!
//! For transient message loss, [`Comm::send_reliable`] layers
//! at-least-once delivery on top of the lossy user plane: the first
//! transmission is subject to fault injection; retransmissions ride the
//! reliable control plane with capped exponential backoff + jitter.
//! Because the injector is consulted exactly once per logical message,
//! retry timing can never perturb the deterministic fault history.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

use pdc_chaos::FaultInjector;

use crate::comm::{encode, Comm, SendOutcome};
use crate::envelope::{Source, Tag};
use crate::error::{MpcError, Result};
use crate::mailbox::Latch;

/// The world's shared failure detector state: which world ranks have
/// crashed. Every rank reads the same set, so survivor lists — and
/// therefore [`Comm::shrink`] results — agree without communication.
#[derive(Debug, Default)]
pub struct DeadSet {
    ranks: Mutex<BTreeSet<usize>>,
}

impl DeadSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a world rank as dead. Returns `true` the first time.
    pub fn mark(&self, world_rank: usize) -> bool {
        self.ranks.lock().insert(world_rank)
    }

    /// Is this world rank dead?
    pub fn contains(&self, world_rank: usize) -> bool {
        self.ranks.lock().contains(&world_rank)
    }

    /// Sorted snapshot of dead world ranks.
    pub fn snapshot(&self) -> Vec<usize> {
        self.ranks.lock().iter().copied().collect()
    }

    /// Number of dead ranks.
    pub fn len(&self) -> usize {
        self.ranks.lock().len()
    }

    /// True when no rank has died.
    pub fn is_empty(&self) -> bool {
        self.ranks.lock().is_empty()
    }
}

/// FNV-1a over the parent communicator id and the survivor list: every
/// survivor computes the same id without communicating. The high bit is
/// reserved so shrink ids can never collide with the sequential
/// allocator used by [`Comm::split`].
fn shrink_comm_id(parent: u64, survivors: &[usize]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
    };
    eat(parent);
    for &s in survivors {
        eat(s as u64);
    }
    h | (1 << 63)
}

impl Comm {
    /// The fault injector this world runs under, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fabric.injector.clone()
    }

    /// Advance this rank's compute-step counter against the fault
    /// schedule. When the schedule says this rank crashes now, the rank
    /// is registered dead (see [`Comm::crash`]) and `Err(Crashed)` is
    /// returned — the workload should unwind cooperatively. A world
    /// without an injector never crashes.
    pub fn chaos_step(&self) -> Result<()> {
        if let Some(inj) = &self.fabric.injector {
            if inj.compute_step(self.world_rank(self.rank)) {
                self.crash();
                return Err(MpcError::Crashed { rank: self.rank });
            }
        }
        Ok(())
    }

    /// Declare this rank dead: register it in the world's [`DeadSet`]
    /// and wake every blocked receiver so peers observe `PeerGone`
    /// promptly. Idempotent.
    pub fn crash(&self) {
        let me = self.world_rank(self.rank);
        if self.fabric.dead.mark(me) {
            pdc_trace::instant("chaos", "rank_crashed", vec![("rank", me.into())]);
            match &self.fabric.route {
                crate::world::Route::Threads(mailboxes) => {
                    for mb in mailboxes {
                        mb.interrupt();
                    }
                }
                crate::world::Route::Wire { local, transport } => {
                    // Peers' DeadSets live in other processes: announce
                    // the (cooperative) crash so their detectors need
                    // not wait out a heartbeat timeout. A rank killed
                    // for real never reaches this path.
                    transport.announce_crash();
                    local.interrupt();
                }
            }
        }
    }

    /// Is this group rank still alive?
    pub fn is_alive(&self, rank: usize) -> bool {
        rank < self.size() && !self.fabric.dead.contains(self.world_rank(rank))
    }

    /// Group ranks of this communicator that have died, sorted.
    pub fn failed_ranks(&self) -> Vec<usize> {
        (0..self.size()).filter(|&r| !self.is_alive(r)).collect()
    }

    /// True if any member of this communicator has died.
    pub fn any_failed(&self) -> bool {
        !self.failed_ranks().is_empty()
    }

    /// At-least-once delivery of `value` — `send` hardened against the
    /// lossy user plane. The first transmission is fault-injected like
    /// any send; if the receiver has not matched it within the ack
    /// window, the message is retransmitted on the reliable control
    /// plane with capped exponential backoff and deterministic jitter.
    ///
    /// Blocks until the receiver matches some copy (so callers must not
    /// use it where `ssend` would deadlock). Duplicate deliveries are
    /// possible — receivers needing exactly-once must deduplicate, as
    /// the drug-design master does by task index.
    ///
    /// Errors: [`MpcError::PeerGone`] if `dest` dies,
    /// [`MpcError::DeliveryFailed`] if the retry budget is exhausted.
    pub fn send_reliable<T: Serialize>(&self, dest: usize, tag: Tag, value: &T) -> Result<()> {
        if tag < 0 {
            return Err(MpcError::ReservedTag(tag));
        }
        let bytes = encode(value);
        let policy = self.fabric.retry;
        let log = self.fabric.injector.as_ref().map(|i| i.log());
        let seed = self
            .fabric
            .injector
            .as_ref()
            .map(|i| i.plan().seed)
            .unwrap_or(0);
        let stream = ((self.world_rank(self.rank) as u64) << 40)
            ^ ((self.world_rank(dest) as u64) << 20)
            ^ (tag as u64);
        // The window comes from the policy (see `RetryPolicy::ack_window`
        // for the determinism rationale), floored at the backoff cap so a
        // policy tuned for long backoffs never retransmits early.
        let ack_window = policy.ack_window.max(policy.cap);
        let mut pending_drops = 0u64;
        for attempt in 0..policy.max_attempts {
            if !self.is_alive(dest) {
                return Err(MpcError::PeerGone { rank: dest });
            }
            if attempt > 0 {
                if let Some(log) = &log {
                    log.retry();
                }
                std::thread::sleep(policy.backoff(seed, stream, attempt));
            }
            let latch = Arc::new(Latch::with_spin(self.fabric.spin));
            // Attempt 0 goes through fault injection; retransmissions are
            // exempt (the control plane is reliable), so the injector is
            // consulted exactly once per logical message.
            let outcome = self.send_bytes_inner(
                dest,
                tag,
                bytes.clone(),
                Some(Arc::clone(&latch)),
                attempt > 0,
            )?;
            if outcome == SendOutcome::InjectedDrop {
                pending_drops += 1;
                continue; // nothing deposited; no ack can come
            }
            if latch.wait_on(Some(ack_window), self.lead(Source::Rank(dest))) {
                if let Some(log) = &log {
                    log.drops_recovered(pending_drops);
                }
                return Ok(());
            }
        }
        Err(MpcError::DeliveryFailed {
            dest,
            attempts: policy.max_attempts,
        })
    }

    /// Rebuild a communicator containing only the surviving ranks — the
    /// ULFM `MPIX_Comm_shrink` analog. Every survivor calls this after
    /// observing a failure; because survivors share the [`DeadSet`] and
    /// the new communicator id is a pure function of the parent id and
    /// the survivor list, all survivors agree without exchanging a
    /// single message. Ranks are renumbered densely, preserving order.
    ///
    /// Errors with [`MpcError::Crashed`] if the caller itself is dead.
    pub fn shrink(&self) -> Result<Comm> {
        let me = self.world_rank(self.rank);
        if self.fabric.dead.contains(me) {
            return Err(MpcError::Crashed { rank: self.rank });
        }
        let survivors: Vec<usize> = (0..self.size())
            .map(|r| self.world_rank(r))
            .filter(|&w| !self.fabric.dead.contains(w))
            .collect();
        let comm_id = shrink_comm_id(self.comm_id, &survivors);
        let rank = survivors
            .iter()
            .position(|&w| w == me)
            .expect("caller is a survivor");
        if let Some(inj) = &self.fabric.injector {
            inj.log().shrink();
        }
        let mut span = pdc_trace::span("chaos", "shrink");
        span.arg("from", self.size());
        span.arg("to", survivors.len());
        Ok(Comm {
            fabric: Arc::clone(&self.fabric),
            comm_id,
            group: Arc::new(survivors),
            rank,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_set_marks_once() {
        let d = DeadSet::new();
        assert!(d.is_empty());
        assert!(d.mark(3));
        assert!(!d.mark(3), "second mark is a no-op");
        assert!(d.contains(3));
        assert!(!d.contains(1));
        d.mark(1);
        assert_eq!(d.snapshot(), vec![1, 3]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn shrink_id_is_deterministic_and_flagged() {
        let a = shrink_comm_id(0, &[0, 1, 3]);
        let b = shrink_comm_id(0, &[0, 1, 3]);
        assert_eq!(a, b);
        assert_ne!(a, shrink_comm_id(0, &[0, 1, 2]));
        assert_ne!(a, shrink_comm_id(7, &[0, 1, 3]));
        assert_eq!(a >> 63, 1, "high bit reserved for shrink ids");
    }
}
