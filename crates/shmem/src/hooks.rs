//! Analysis instrumentation hooks.
//!
//! The runtime's synchronization primitives ([`crate::sync`]), thread
//! teams ([`crate::Team`]), and shared cells ([`crate::sync::Tracked`],
//! [`crate::sync::AtomicCounter`]) emit a [`SyncEvent`] at every
//! synchronization-relevant operation: fork/join edges, lock acquire and
//! release, barrier arrival and departure, and individual shared-memory
//! accesses. A registered [`SyncObserver`] — in practice the vector-clock
//! race detector in `pdc-analyze` — consumes the stream and reconstructs
//! the happens-before order.
//!
//! **Off by default**, with a single relaxed atomic load on the fast
//! path. An observer is scoped to the run that installs it:
//! [`observe`] puts it in a thread-local slot for the duration of one
//! closure, and every parallel region forked from inside hands it to its
//! team threads, so nested regions report to it too. Code that runs at
//! the same time on other threads — another test's `Team`, say — never
//! reaches it. Events are emitted synchronously on the acting thread,
//! which gives the observer two ordering guarantees the detectors rely
//! on:
//!
//! * per-thread program order is preserved, and
//! * a lock's `Release` event is fully delivered before the lock is
//!   actually released (the emit happens before the store that frees the
//!   lock word), so the next `Acquire` observer call is totally ordered
//!   after it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identity of a lock, barrier, or shared cell: its address. Stable for
/// the object's lifetime, which is all the detectors need (shadow state
/// is per analysis session, and sessions outliving an object merely keep
/// a little extra state).
pub type ObjId = usize;

/// How a shared cell was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Plain (non-atomic, in the modelled program) read.
    Read,
    /// Plain write.
    Write,
    /// Atomic load.
    AtomicRead,
    /// Atomic store.
    AtomicWrite,
    /// Atomic read-modify-write.
    AtomicRmw,
}

impl AccessKind {
    /// Whether this access mutates the cell.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            AccessKind::Write | AccessKind::AtomicWrite | AccessKind::AtomicRmw
        )
    }

    /// Whether the modelled program performs this access atomically.
    pub fn is_atomic(self) -> bool {
        !matches!(self, AccessKind::Read | AccessKind::Write)
    }

    /// Lowercase label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::AtomicRead => "atomic read",
            AccessKind::AtomicWrite => "atomic write",
            AccessKind::AtomicRmw => "atomic rmw",
        }
    }
}

/// A source location captured at the instrumented call site
/// (via `#[track_caller]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// Source file (as given by `std::panic::Location`).
    pub file: &'static str,
    /// 1-based line.
    pub line: u32,
}

impl Site {
    /// The caller's location. Must itself be called from a
    /// `#[track_caller]` chain to be meaningful.
    #[track_caller]
    pub fn caller() -> Self {
        let loc = std::panic::Location::caller();
        Self {
            file: loc.file(),
            line: loc.line(),
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// One synchronization-relevant event, emitted on the acting thread.
#[derive(Debug, Clone, Copy)]
pub enum SyncEvent {
    /// A parallel region is about to fork `children` threads. Emitted on
    /// the forking (parent) thread, before any child starts.
    Fork {
        /// Unique region token tying `Fork`/`ChildStart`/`ChildEnd`/`Join`
        /// together.
        token: u64,
        /// Number of children the region forks.
        children: usize,
    },
    /// First event of a forked child thread.
    ChildStart {
        /// The region token.
        token: u64,
        /// The child's team-thread id.
        child_index: usize,
    },
    /// Last event of a forked child thread (before it exits).
    ChildEnd {
        /// The region token.
        token: u64,
        /// The child's team-thread id.
        child_index: usize,
    },
    /// The parent has joined every child of the region.
    Join {
        /// The region token.
        token: u64,
    },
    /// A mutual-exclusion lock (spin lock, ticket lock, rwlock writer,
    /// named critical section) was acquired.
    Acquire {
        /// The lock's identity.
        lock: ObjId,
    },
    /// The lock is about to be released.
    Release {
        /// The lock's identity.
        lock: ObjId,
    },
    /// A read-side (shared) rwlock acquisition.
    AcquireShared {
        /// The lock's identity.
        lock: ObjId,
    },
    /// A read-side guard is about to be released.
    ReleaseShared {
        /// The lock's identity.
        lock: ObjId,
    },
    /// The thread arrived at a team barrier (emitted before waiting).
    BarrierArrive {
        /// The barrier's identity.
        barrier: ObjId,
        /// Member count of the barrier.
        members: usize,
    },
    /// The thread was released from the barrier.
    BarrierLeave {
        /// The barrier's identity.
        barrier: ObjId,
    },
    /// A shared cell was accessed.
    Access {
        /// The cell's identity.
        cell: ObjId,
        /// Human label for the cell kind (`"AtomicCounter"`, …).
        what: &'static str,
        /// Read/write, atomic or plain.
        kind: AccessKind,
        /// Source location of the access.
        site: Site,
    },
}

/// Consumer of the event stream. Implementations must be cheap and
/// re-entrant-free: events are delivered synchronously from the acting
/// thread, potentially from many threads at once.
pub trait SyncObserver: Send + Sync {
    /// Handle one event.
    fn on_event(&self, event: &SyncEvent);
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
/// Live [`observe`] scopes on any thread: zero keeps [`emit`] to one load.
/// `Relaxed` suffices: the count publishes no data, and a thread with an
/// observer installed made its own increment, which its later loads see.
static SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static OBSERVER: RefCell<Option<Arc<dyn SyncObserver>>> = const { RefCell::new(None) };
}

/// Run `f` with `observer` receiving every event this thread emits, and
/// every event of the parallel regions `f` forks (nested ones included).
/// The previous observer comes back when `f` returns or unwinds.
pub fn observe<R>(observer: Arc<dyn SyncObserver>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn SyncObserver>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OBSERVER.with(|slot| *slot.borrow_mut() = self.0.take());
            SCOPES.fetch_sub(1, Ordering::Relaxed);
        }
    }
    SCOPES.fetch_add(1, Ordering::Relaxed);
    let _restore = Restore(OBSERVER.with(|slot| slot.borrow_mut().replace(observer)));
    f()
}

/// The observer of the calling thread's [`observe`] scope, if any; a
/// region hands it to its team threads.
pub(crate) fn current() -> Option<Arc<dyn SyncObserver>> {
    if SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    OBSERVER.with(|slot| slot.borrow().clone())
}

/// Fresh fork token (process-global, never reused).
pub(crate) fn next_token() -> u64 {
    NEXT_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// Deliver one event to the observer, if any.
#[inline]
pub(crate) fn emit(event: &SyncEvent) {
    if SCOPES.load(Ordering::Relaxed) == 0 {
        return;
    }
    emit_slow(event);
}

#[cold]
fn emit_slow(event: &SyncEvent) {
    OBSERVER.with(|slot| {
        if let Some(obs) = &*slot.borrow() {
            obs.on_event(event);
        }
    });
}

/// Address-based identity helper.
#[inline]
pub(crate) fn obj_id<T: ?Sized>(ptr: *const T) -> ObjId {
    ptr as *const () as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Recorder(Mutex<Vec<String>>);
    impl SyncObserver for Recorder {
        fn on_event(&self, event: &SyncEvent) {
            self.0.lock().unwrap().push(format!("{event:?}"));
        }
    }

    fn seen(rec: &Recorder) -> Vec<String> {
        rec.0.lock().unwrap().clone()
    }

    #[test]
    fn observer_receives_events_only_inside_its_scope() {
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        emit(&SyncEvent::Join { token: 0 }); // no scope: dropped
        observe(rec.clone(), || emit(&SyncEvent::Join { token: 1 }));
        emit(&SyncEvent::Join { token: 2 }); // scope closed: dropped
        let seen = seen(&rec);
        assert_eq!(seen.len(), 1);
        assert!(seen[0].contains("token: 1"));
    }

    #[test]
    fn other_threads_do_not_reach_the_observer() {
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        observe(rec.clone(), || {
            std::thread::scope(|s| {
                s.spawn(|| emit(&SyncEvent::Join { token: 7 }));
            });
        });
        assert!(seen(&rec).is_empty());
    }

    #[test]
    fn observe_restores_the_previous_observer_after_a_panic() {
        let outer = Arc::new(Recorder(Mutex::new(Vec::new())));
        let inner = Arc::new(Recorder(Mutex::new(Vec::new())));
        observe(outer.clone(), || {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                observe(inner.clone(), || {
                    emit(&SyncEvent::Join { token: 1 });
                    panic!("observed code failed");
                })
            }));
            assert!(unwound.is_err());
            emit(&SyncEvent::Join { token: 2 });
        });
        assert!(current().is_none());
        assert_eq!(seen(&inner).len(), 1);
        let outer = seen(&outer);
        assert_eq!(outer.len(), 1);
        assert!(outer[0].contains("token: 2"));
    }

    #[test]
    fn tokens_are_unique() {
        let a = next_token();
        let b = next_token();
        assert_ne!(a, b);
    }

    #[test]
    fn site_captures_caller() {
        let site = Site::caller();
        assert!(site.file.ends_with("hooks.rs"));
        assert!(site.line > 0);
    }
}
