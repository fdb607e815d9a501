//! Thread teams and fork-join parallel regions.
//!
//! [`Team`] is the `#pragma omp parallel` analog: [`Team::parallel`] forks
//! a team of threads, runs the region body in each, and joins them all —
//! the fork-join pattern taught by the very first OpenMP patternlet.
//!
//! The team is *hot*, as in a real OpenMP runtime: the calling thread runs
//! team thread 0 (the encountering thread becomes the master), and threads
//! `1..n` are persistent workers taken from one process-wide cache of
//! parked threads, spawned only when it runs short and returned after the
//! join. Nested and concurrent regions simply take more workers. Region
//! bodies may borrow from the enclosing stack frame, as an OpenMP region
//! sees the enclosing scope's shared variables: a region neither returns
//! nor resumes a panic until every worker is done with it. The caller's
//! analysis observer ([`crate::hooks::observe`]) goes with each job, so
//! a worker reports to it for that job only.
//!
//! Each worker hands off through a spin-then-park [`WaitCell`] (the
//! worker waits on it for a job, the caller for the join) that lives in
//! the persistent worker, so a region allocates nothing that another
//! thread frees (DESIGN.md §7 has the measured reason).

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::hooks::{self, SyncEvent, SyncObserver};
use crate::sync::{spin_budget, Barrier, BarrierKind, WaitCell};

/// A team configuration: how many threads a parallel region forks and
/// which barrier implementation synchronizes them.
#[derive(Debug, Clone)]
pub struct Team {
    num_threads: usize,
    barrier_kind: BarrierKind,
}

impl Default for Team {
    /// A team sized to the host's available parallelism.
    fn default() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }
}

impl Team {
    /// A team of exactly `num_threads` threads (`>= 1`).
    ///
    /// Like `OMP_NUM_THREADS`, this may exceed the host's core count; the
    /// region then runs oversubscribed (correct, but without speedup) —
    /// the same regime as MPI patternlets on the paper's one-core Colab VM.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "a team needs at least one thread");
        Self {
            num_threads,
            barrier_kind: BarrierKind::default(),
        }
    }

    /// Select the barrier implementation (see [`BarrierKind`]).
    pub fn with_barrier(mut self, kind: BarrierKind) -> Self {
        self.barrier_kind = kind;
        self
    }

    /// Number of threads this team forks.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `body` in parallel on every team thread (fork-join).
    ///
    /// The body receives a [`ThreadCtx`] exposing the thread id, team
    /// size, the team barrier, and named critical sections.
    pub fn parallel<F>(&self, body: F)
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.parallel_map(|ctx| body(ctx));
    }

    /// Panic-isolating [`Team::parallel`]: a panicking worker poisons
    /// the region with a typed [`TeamError`] instead of aborting the
    /// whole process — the shmem analogue of a rank crash that the
    /// world survives. Every thread still runs to completion (or
    /// panic); the first panic by thread id is reported.
    pub fn try_parallel<F>(&self, body: F) -> Result<(), TeamError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.try_parallel_map(|ctx| body(ctx)).map(|_| ())
    }

    /// Panic-isolating [`Team::parallel_map`]: returns every thread's
    /// value, or [`TeamError::WorkerPanicked`] naming the first
    /// panicking thread (lowest id) and its panic message.
    ///
    /// **Caveat**: a worker that panics between two [`ThreadCtx::barrier`]
    /// calls leaves its teammates waiting at the next barrier; use
    /// barrier-free bodies (or the master-checks pattern) with this API.
    pub fn try_parallel_map<F, T>(&self, body: F) -> Result<Vec<T>, TeamError>
    where
        F: Fn(&ThreadCtx) -> T + Sync,
        T: Send,
    {
        self.fork_join(&WORKERS, "try_parallel", body)
            .map_err(|(thread, payload)| TeamError::WorkerPanicked {
                thread,
                message: panic_message(&*payload),
            })
    }

    /// Run `body` on every team thread and collect each thread's return
    /// value, ordered by thread id.
    ///
    /// A panic in any thread propagates out of the region (the lowest
    /// panicking thread's original payload), like OpenMP aborting the
    /// whole team on an uncaught exception.
    pub fn parallel_map<F, T>(&self, body: F) -> Vec<T>
    where
        F: Fn(&ThreadCtx) -> T + Sync,
        T: Send,
    {
        match self.fork_join(&WORKERS, "parallel", body) {
            Ok(results) => results,
            Err((_, payload)) => std::panic::resume_unwind(payload),
        }
    }

    /// The one fork-join path behind every region: run `body` as team
    /// thread 0 on the caller and as threads `1..n` on workers from
    /// `cache`, then return each thread's value in thread order, or the
    /// lowest panicking thread's id and panic payload.
    fn fork_join<F, T>(
        &self,
        cache: &WorkerCache,
        span_name: &'static str,
        body: F,
    ) -> Result<Vec<T>, (usize, Box<dyn Any + Send>)>
    where
        F: Fn(&ThreadCtx) -> T + Sync,
        T: Send,
    {
        let n = self.num_threads;
        let mut region = pdc_trace::span("shmem", span_name);
        region.arg("threads", n);
        let shared = RegionShared {
            barrier: self.barrier_kind.build(n),
            criticals: CriticalRegistry::default(),
        };
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let token = hooks::next_token();
        let observer = hooks::current();
        let child = |id: usize| {
            hooks::emit(&SyncEvent::ChildStart {
                token,
                child_index: id,
            });
            let mut worker = pdc_trace::span("shmem", "worker");
            worker.arg("thread", id);
            let ctx = ThreadCtx {
                id,
                num_threads: shared.barrier.members(),
                shared: &shared,
            };
            // AssertUnwindSafe: a panicking thread's slot holds only the
            // payload and the whole region reports the panic, so no state
            // from the interrupted body is ever observed.
            let outcome = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            if outcome.is_err() {
                pdc_trace::counter("shmem", "worker_panics", 1);
            }
            *slots[id].lock() = Some(outcome);
            // Close the span and flush: the join waits for this call, not
            // for the thread's exit, so a post-join drain() sees only
            // flushed events.
            drop(worker);
            pdc_trace::flush_thread();
            hooks::emit(&SyncEvent::ChildEnd {
                token,
                child_index: id,
            });
        };
        let spin = spin_budget(n);
        // Declared after everything `child` borrows, so dropped first.
        let mut crew = Crew::hire(cache, n - 1, spin);
        hooks::emit(&SyncEvent::Fork { token, children: n });
        let run: &(dyn Fn(usize) + Sync) = &child;
        // SAFETY: the workers are `'static` threads, but `run` borrows
        // this frame (`child`, and through it `body`, `shared`, `slots`).
        // Only workers in `crew` receive it, and `Crew`'s `Drop` — reached
        // before any of those borrows end, on return and on unwind alike —
        // blocks until no worker is busy. A worker clears `busy` only after
        // its call to `run` has returned, and never uses the job again.
        // Bodies run under `catch_unwind`, so a panic cannot skip the wait.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        for (i, (worker, posted)) in crew.workers.iter_mut().enumerate() {
            let job = Job {
                run,
                index: i + 1,
                observer: observer.clone(),
            };
            *posted = worker.post(job, spin);
        }
        child(0);
        drop(crew);
        hooks::emit(&SyncEvent::Join { token });
        pdc_trace::counter("shmem", "parallel_regions", 1);
        // Collecting stops at the first (lowest-id) panic.
        slots
            .into_iter()
            .enumerate()
            .map(|(id, slot)| {
                let outcome = slot.into_inner().expect("every team thread ran its body");
                outcome.map_err(|payload| (id, payload))
            })
            .collect()
    }
}

/// One worker's share of a region: child `index` of the region whose
/// child runner is `run`, reporting to the region caller's `observer`.
struct Job {
    run: &'static (dyn Fn(usize) + Sync),
    index: usize,
    observer: Option<Arc<dyn SyncObserver>>,
}

/// A persistent team thread. The whole hand-off lives here rather than
/// in a per-region object, so a region allocates nothing that the other
/// side frees.
struct Worker {
    hands: WaitCell<Hands>,
}

/// The hand-off state of a [`Worker`].
struct Hands {
    job: Option<Job>,
    /// Set by `post`, cleared once the job's call has returned.
    busy: bool,
    /// Spin budget of the region that posted last; the worker's wait for
    /// its next job spins as long.
    spin: Duration,
}

impl Worker {
    /// Start a worker thread whose first wait for a job spins for `spin`.
    fn spawn(spin: Duration) -> Arc<Worker> {
        let worker = Arc::new(Worker {
            hands: WaitCell::new(Hands {
                job: None,
                busy: false,
                spin,
            }),
        });
        let me = Arc::clone(&worker);
        std::thread::Builder::new()
            .name("pdc-team".to_owned())
            .spawn(move || me.serve(spin))
            .expect("spawn team worker");
        worker
    }

    /// Hand `job` to this idle worker; returns the version for [`Worker::join`].
    fn post(&self, job: Job, spin: Duration) -> u64 {
        let mut hands = self.hands.lock();
        hands.job = Some(job);
        hands.busy = true;
        hands.spin = spin;
        hands.notify()
    }

    /// Block until the job posted at version `posted` has returned; the
    /// post's lock hold saw the worker busy, so the wait spins at once.
    fn join(&self, posted: u64, spin: Duration) {
        self.hands
            .wait_after(posted, spin, None, |hands| (!hands.busy).then_some(()));
    }

    /// The worker thread: run posted jobs forever.
    fn serve(&self, spin: Duration) {
        let take = |hands: &mut Hands| Some((hands.job.take()?, hands.spin));
        let mut next = self.hands.wait_until(spin, None, take);
        loop {
            let (job, spin) = next.expect("an untimed wait ends with a job");
            // The child runner catches its body's panics; this keeps the
            // worker, and so the join, alive should instrumentation panic
            // too (the region then finds the child's slot empty).
            let _ = catch_unwind(AssertUnwindSafe(|| match job.observer {
                Some(observer) => hooks::observe(observer, || (job.run)(job.index)),
                None => (job.run)(job.index),
            }));
            let mut hands = self.hands.lock();
            hands.busy = false;
            // This hold saw no job: the next is posted only after the join.
            let done = hands.notify();
            next = self.hands.wait_after(done, spin, None, take);
        }
    }
}

/// Parked workers not in any region.
type WorkerCache = Mutex<Vec<Arc<Worker>>>;

/// The process-wide worker cache behind every [`Team`].
static WORKERS: WorkerCache = Mutex::new(Vec::new());

/// The workers of one region. Dropping it waits until none is busy and
/// returns them to their cache.
struct Crew<'c> {
    cache: &'c WorkerCache,
    /// Each worker with the version its job was posted at.
    workers: Vec<(Arc<Worker>, u64)>,
    spin: Duration,
}

impl<'c> Crew<'c> {
    /// Take `n` idle workers from `cache`, spawning any shortfall.
    fn hire(cache: &'c WorkerCache, n: usize, spin: Duration) -> Self {
        let mut workers = Vec::with_capacity(n);
        let mut idle = cache.lock();
        let keep = idle.len().saturating_sub(n);
        workers.extend(idle.drain(keep..).map(|worker| (worker, 0)));
        drop(idle);
        while workers.len() < n {
            workers.push((Worker::spawn(spin), 0));
        }
        Crew {
            cache,
            workers,
            spin,
        }
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        for (worker, posted) in &self.workers {
            worker.join(*posted, self.spin);
        }
        let workers = self.workers.drain(..).map(|(worker, _)| worker);
        self.cache.lock().extend(workers);
    }
}

/// Typed failure of a panic-isolating parallel region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeamError {
    /// A worker thread panicked; the region was poisoned and no results
    /// are returned. The first panicking thread (by id) is reported.
    WorkerPanicked {
        /// Thread id of the (first) panicking worker.
        thread: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for TeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeamError::WorkerPanicked { thread, message } => {
                write!(f, "team thread {thread} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for TeamError {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// State shared by every thread of one parallel region.
struct RegionShared {
    barrier: Box<dyn Barrier>,
    criticals: CriticalRegistry,
}

/// Named critical-section registry: all uses of the same name across the
/// region share one lock, and the unnamed critical (`""`) is one global
/// lock — matching OpenMP's `#pragma omp critical [(name)]` semantics.
#[derive(Default)]
struct CriticalRegistry {
    locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl CriticalRegistry {
    fn get(&self, name: &str) -> Arc<Mutex<()>> {
        let mut map = self.locks.lock();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
    }
}

/// Per-thread view of a parallel region.
pub struct ThreadCtx<'a> {
    id: usize,
    num_threads: usize,
    shared: &'a RegionShared,
}

impl ThreadCtx<'_> {
    /// This thread's id within the team (`0..num_threads`), the
    /// `omp_get_thread_num()` analog.
    pub fn thread_num(&self) -> usize {
        self.id
    }

    /// Team size — `omp_get_num_threads()`.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// True on thread 0 — the `#pragma omp master` test.
    pub fn is_master(&self) -> bool {
        self.id == 0
    }

    /// Run `f` only on the master thread; other threads skip it without
    /// waiting (OpenMP `master` has no implied barrier).
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        if self.is_master() {
            Some(f())
        } else {
            None
        }
    }

    /// Wait until every team thread reaches this barrier
    /// (`#pragma omp barrier`). Returns `true` on exactly one thread.
    ///
    /// With tracing enabled, each thread records one `barrier_wait` span
    /// covering its arrival-to-release interval; the summary exporter
    /// turns those into the per-barrier wait-time histogram.
    pub fn barrier(&self) -> bool {
        // span_hist: the wait also lands in the `barrier_wait` duration
        // histogram, so straggler-induced waits get p50/p90/p99.
        let mut wait = pdc_trace::span_hist("shmem", "barrier_wait");
        wait.arg("thread", self.id);
        let barrier_id = hooks::obj_id(&*self.shared.barrier as *const dyn Barrier);
        hooks::emit(&SyncEvent::BarrierArrive {
            barrier: barrier_id,
            members: self.shared.barrier.members(),
        });
        let leader = self.shared.barrier.wait();
        hooks::emit(&SyncEvent::BarrierLeave {
            barrier: barrier_id,
        });
        leader
    }

    /// Run `f` under the named critical section
    /// (`#pragma omp critical(name)`). All occurrences of one name are
    /// mutually exclusive; pass `""` for the unnamed critical.
    pub fn critical<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let lock = self.shared.criticals.get(name);
        let lock_id = hooks::obj_id(Arc::as_ptr(&lock));
        let guard = lock.lock();
        hooks::emit(&SyncEvent::Acquire { lock: lock_id });
        let result = f();
        // Emit before dropping the guard so the observer orders this
        // Release ahead of the next holder's Acquire.
        hooks::emit(&SyncEvent::Release { lock: lock_id });
        drop(guard);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Serializes the tests whose regions panic, so the one that counts
    /// `worker_panics` sees only its own.
    fn serialize_panics() -> std::sync::MutexGuard<'static, ()> {
        static PANICS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        PANICS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn every_thread_runs_once() {
        let team = Team::new(6);
        let hits = AtomicUsize::new(0);
        team.parallel(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn thread_ids_are_distinct_and_dense() {
        let team = Team::new(5);
        let mut ids = team.parallel_map(|ctx| ctx.thread_num());
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_map_preserves_thread_order() {
        let team = Team::new(4);
        let squares = team.parallel_map(|ctx| ctx.thread_num() * ctx.thread_num());
        assert_eq!(squares, vec![0, 1, 4, 9]);
    }

    #[test]
    fn num_threads_visible_in_region() {
        let team = Team::new(3);
        let sizes = team.parallel_map(|ctx| ctx.num_threads());
        assert_eq!(sizes, vec![3, 3, 3]);
    }

    #[test]
    fn master_runs_only_on_thread_zero() {
        let team = Team::new(4);
        let ran = team.parallel_map(|ctx| ctx.master(|| ctx.thread_num()).is_some());
        assert_eq!(ran, vec![true, false, false, false]);
    }

    #[test]
    fn critical_serializes_updates() {
        let team = Team::new(8);
        let mut total = 0usize;
        {
            let total = parking_lot::Mutex::new(&mut total);
            team.parallel(|ctx| {
                for _ in 0..1_000 {
                    ctx.critical("sum", || {
                        **total.lock() += 1;
                    });
                }
            });
        }
        assert_eq!(total, 8_000);
    }

    #[test]
    fn different_critical_names_do_not_serialize_each_other() {
        // Two named criticals must use two distinct locks: a thread holding
        // "a" must not block a thread entering "b". We verify both names
        // can be held simultaneously.
        let team = Team::new(2);
        let in_a = AtomicUsize::new(0);
        let overlap_seen = AtomicUsize::new(0);
        team.parallel(|ctx| {
            if ctx.thread_num() == 0 {
                ctx.critical("a", || {
                    in_a.store(1, Ordering::SeqCst);
                    // Give thread 1 a window to enter "b" while we hold "a".
                    for _ in 0..1_000 {
                        std::thread::yield_now();
                    }
                    in_a.store(0, Ordering::SeqCst);
                });
            } else {
                for _ in 0..1_000 {
                    ctx.critical("b", || {
                        if in_a.load(Ordering::SeqCst) == 1 {
                            overlap_seen.store(1, Ordering::SeqCst);
                        }
                    });
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(
            overlap_seen.load(Ordering::SeqCst),
            1,
            "named criticals 'a' and 'b' never overlapped; they appear to share a lock"
        );
    }

    #[test]
    fn barrier_separates_phases() {
        let team = Team::new(4);
        let phase1 = AtomicUsize::new(0);
        team.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // All four phase-1 increments must be visible after the barrier.
            assert_eq!(phase1.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn region_body_can_borrow_stack_data() {
        let team = Team::new(3);
        let input = [10, 20, 30];
        let doubled = team.parallel_map(|ctx| input[ctx.thread_num()] * 2);
        assert_eq!(doubled, vec![20, 40, 60]);
    }

    #[test]
    fn oversubscription_works() {
        // 16 threads on (possibly) 1 core: correctness must not depend on
        // real parallelism.
        let team = Team::new(16);
        let ids = team.parallel_map(|ctx| ctx.thread_num());
        assert_eq!(ids.len(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_team_rejected() {
        Team::new(0);
    }

    #[test]
    fn blocking_barrier_team() {
        let team = Team::new(4).with_barrier(BarrierKind::Blocking);
        let count = AtomicUsize::new(0);
        team.parallel(|ctx| {
            count.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(count.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn try_parallel_isolates_worker_panic() {
        let _serial = serialize_panics();
        let team = Team::new(4);
        let err = team
            .try_parallel_map(|ctx| {
                if ctx.thread_num() == 2 {
                    panic!("injected worker fault");
                }
                ctx.thread_num()
            })
            .unwrap_err();
        assert_eq!(
            err,
            TeamError::WorkerPanicked {
                thread: 2,
                message: "injected worker fault".to_owned()
            }
        );
        // The team object survives and runs cleanly afterwards.
        let ok = team.try_parallel_map(|ctx| ctx.thread_num()).unwrap();
        assert_eq!(ok, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_parallel_reports_lowest_panicking_thread() {
        let _serial = serialize_panics();
        let team = Team::new(3);
        let err = team.try_parallel(|_| panic!("all down")).unwrap_err();
        assert!(matches!(err, TeamError::WorkerPanicked { thread: 0, .. }));
    }

    #[test]
    fn try_parallel_ok_path_matches_parallel_map() {
        let team = Team::new(4);
        let got = team.try_parallel_map(|ctx| ctx.thread_num() * 3).unwrap();
        assert_eq!(got, vec![0, 3, 6, 9]);
    }

    #[test]
    fn panic_in_region_propagates() {
        let _serial = serialize_panics();
        let team = Team::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.parallel(|ctx| {
                if ctx.thread_num() == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
    }

    mod hot_team {
        use super::super::*;
        use super::serialize_panics;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::mpsc;
        use std::thread::ThreadId;

        #[test]
        fn thread_zero_is_the_caller() {
            let me = std::thread::current().id();
            let ids: Vec<ThreadId> = Team::new(3).parallel_map(|_| std::thread::current().id());
            assert_eq!(ids[0], me);
            assert!(ids[1] != me && ids[2] != me && ids[1] != ids[2]);
        }

        #[test]
        fn nested_regions_take_more_workers() {
            let inner = Team::new(2);
            let got = Team::new(2).parallel_map(|outer| {
                let here = std::thread::current().id();
                inner.parallel_map(|ctx| {
                    let on_outer_thread = std::thread::current().id() == here;
                    (outer.thread_num(), ctx.thread_num(), on_outer_thread)
                })
            });
            assert_eq!(
                got,
                vec![
                    vec![(0, 0, true), (0, 1, false)],
                    vec![(1, 0, true), (1, 1, false)],
                ]
            );
        }

        #[test]
        fn concurrent_regions_lose_no_wakeups() {
            // 8 callers × 2000 regions on 2-thread teams. Random pauses of
            // 0–200 µs on either side end waits both while the other side
            // still spins and after it has parked; a lost wake-up hangs a
            // region, so the callers run under a watchdog.
            const CALLERS: usize = 8;
            const REGIONS: usize = 2000;
            let (tx, rx) = mpsc::channel();
            for caller in 0..CALLERS {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let team = Team::new(2);
                    let mut lcg = 0x9E37_79B9_7F4A_7C15u64 ^ caller as u64;
                    let pause = |lcg: u64| {
                        if (lcg >> 60) == 0 {
                            std::thread::sleep(Duration::from_micros((lcg >> 32) % 200));
                        }
                    };
                    let mut sum = 0;
                    for r in 0..REGIONS {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        pause(lcg);
                        let seed = lcg;
                        let ids = team.parallel_map(|ctx| {
                            pause(seed.rotate_left(ctx.thread_num() as u32 * 17));
                            ctx.thread_num() + r
                        });
                        sum += ids.iter().sum::<usize>();
                    }
                    let _ = tx.send(sum);
                });
            }
            let expect = (0..REGIONS).map(|r| 2 * r + 1).sum::<usize>();
            for _ in 0..CALLERS {
                let sum = rx
                    .recv_timeout(Duration::from_secs(120))
                    .expect("a region stalled: a wake-up was lost");
                assert_eq!(sum, expect);
            }
        }

        #[test]
        fn survives_a_panic_without_growing_the_cache() {
            let _serial = serialize_panics();
            let cache = WorkerCache::default();
            let team = Team::new(2);
            let err = team
                .fork_join(&cache, "try_parallel", |ctx| {
                    if ctx.thread_num() == 1 {
                        panic!("worker down");
                    }
                })
                .unwrap_err();
            assert_eq!(err.0, 1);
            assert_eq!(cache.lock().len(), 1);
            for r in 0..100 {
                let got = team.fork_join(&cache, "try_parallel", |ctx| ctx.thread_num() + r);
                assert_eq!(got.ok(), Some(vec![r, r + 1]));
            }
            assert_eq!(cache.lock().len(), 1, "the panicked worker was replaced");
        }

        #[test]
        fn the_join_waits_for_a_slow_worker() {
            // The worker writes to the caller's stack long after thread 0
            // is done: a region that returned before its workers finished
            // would read the slot unwritten.
            let slot = AtomicU64::new(0);
            Team::new(2).parallel(|ctx| {
                if ctx.thread_num() == 1 {
                    std::thread::sleep(Duration::from_millis(50));
                    slot.store(42, Ordering::Relaxed);
                }
            });
            assert_eq!(slot.load(Ordering::Relaxed), 42);
        }

        #[test]
        fn grandchildren_report_to_the_outer_observer() {
            let starts = Arc::new(Mutex::new(Vec::new()));
            struct Starts(Arc<Mutex<Vec<usize>>>);
            impl SyncObserver for Starts {
                fn on_event(&self, event: &SyncEvent) {
                    if let SyncEvent::ChildStart { child_index, .. } = event {
                        self.0.lock().push(*child_index);
                    }
                }
            }
            hooks::observe(Arc::new(Starts(Arc::clone(&starts))), || {
                Team::new(2).parallel(|_| Team::new(2).parallel(|_| ()));
            });
            // One outer region and two inner ones, each of two threads:
            // the inner regions' workers are the outer region's
            // grandchildren.
            let mut starts = starts.lock().clone();
            starts.sort_unstable();
            assert_eq!(starts, vec![0, 0, 0, 1, 1, 1]);
        }

        #[test]
        fn a_worker_forgets_the_observer_of_its_last_region() {
            #[derive(Default)]
            struct Count(std::sync::atomic::AtomicUsize);
            impl SyncObserver for Count {
                fn on_event(&self, _: &SyncEvent) {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
            let cache = WorkerCache::default();
            let team = Team::new(2);
            let count = Arc::new(Count::default());
            hooks::observe(count.clone(), || {
                team.fork_join(&cache, "parallel", |ctx| ctx.barrier())
                    .unwrap();
            });
            let observed = count.0.load(Ordering::Relaxed);
            assert!(observed > 0);
            // The same parked worker serves the next, unobserved region.
            assert_eq!(cache.lock().len(), 1);
            team.fork_join(&cache, "parallel", |ctx| ctx.barrier())
                .unwrap();
            assert_eq!(cache.lock().len(), 1);
            assert_eq!(count.0.load(Ordering::Relaxed), observed);
        }

        #[test]
        fn counts_one_worker_panic_per_panicking_thread() {
            let _serial = serialize_panics();
            let team = Team::new(4);
            let (result, events) = pdc_trace::with_tracing(|| {
                team.try_parallel(|ctx| {
                    if ctx.thread_num() % 2 == 1 {
                        panic!("odd thread down");
                    }
                })
            });
            assert!(matches!(
                result,
                Err(TeamError::WorkerPanicked { thread: 1, .. })
            ));
            let panics = pdc_trace::export::counter_total(&events, "shmem", "worker_panics");
            assert_eq!(panics, 2);
        }
    }
}
