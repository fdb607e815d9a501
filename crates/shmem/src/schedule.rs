//! Loop iteration scheduling — the `schedule(...)` clause.
//!
//! The parallel-loop patternlets contrast "equal chunks" (static) with
//! "chunks of 1" (static,1 — round-robin) and the module's drug-design
//! exemplar motivates dynamic scheduling for irregular iteration costs.
//! All three OpenMP schedules are implemented:
//!
//! * [`Schedule::Static`] — iterations pre-partitioned into fixed chunks
//!   dealt round-robin; zero runtime coordination.
//! * [`Schedule::Dynamic`] — threads grab the next chunk from a shared
//!   atomic cursor; balances irregular work at the cost of contention.
//! * [`Schedule::Guided`] — like dynamic, but chunk size decays with the
//!   remaining work (remaining / nthreads, floored at `min_chunk`).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An iteration-scheduling policy for [`crate::parallel_for()`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Pre-partitioned chunks dealt round-robin to threads.
    /// `chunk = None` means one contiguous block per thread ("equal
    /// chunks"); `chunk = Some(1)` is the "chunks of 1" patternlet.
    Static {
        /// Chunk size; `None` divides the range into `nthreads` blocks.
        chunk: Option<usize>,
    },
    /// Threads repeatedly claim the next `chunk` iterations from a shared
    /// cursor.
    Dynamic {
        /// Claim granularity (≥ 1).
        chunk: usize,
    },
    /// Dynamic with decaying chunk size, never below `min_chunk`.
    Guided {
        /// Smallest chunk a thread may claim (≥ 1).
        min_chunk: usize,
    },
}

impl Default for Schedule {
    /// OpenMP's default: static with equal chunks.
    fn default() -> Self {
        Schedule::Static { chunk: None }
    }
}

impl Schedule {
    /// The "chunks of 1" round-robin schedule from the patternlets.
    pub fn round_robin() -> Self {
        Schedule::Static { chunk: Some(1) }
    }

    /// Static label for trace events: the schedule family without its
    /// chunk parameter (`"static"` / `"dynamic"` / `"guided"`).
    pub fn kind_label(&self) -> &'static str {
        match self {
            Schedule::Static { .. } => "static",
            Schedule::Dynamic { .. } => "dynamic",
            Schedule::Guided { .. } => "guided",
        }
    }

    /// Human-readable name used in bench reports.
    pub fn name(&self) -> String {
        match self {
            Schedule::Static { chunk: None } => "static".into(),
            Schedule::Static { chunk: Some(c) } => format!("static,{c}"),
            Schedule::Dynamic { chunk } => format!("dynamic,{chunk}"),
            Schedule::Guided { min_chunk } => format!("guided,{min_chunk}"),
        }
    }

    /// The static chunks assigned to `thread` of `nthreads` for the range
    /// `0..len`, as sub-ranges in ascending order.
    ///
    /// Panics if called on a non-static schedule (dynamic assignment is
    /// inherently a runtime property; use [`DynamicCursor`]).
    #[allow(clippy::single_range_in_vec_init)] // one block per thread IS a 1-elem list
    pub fn static_chunks(&self, len: usize, thread: usize, nthreads: usize) -> Vec<Range<usize>> {
        assert!(nthreads >= 1 && thread < nthreads);
        match *self {
            Schedule::Static { chunk: None } => {
                // Balanced contiguous blocks: the first `len % nthreads`
                // threads get one extra iteration.
                let base = len / nthreads;
                let extra = len % nthreads;
                let mine = base + usize::from(thread < extra);
                let start = thread * base + thread.min(extra);
                if mine == 0 {
                    vec![]
                } else {
                    vec![start..start + mine]
                }
            }
            Schedule::Static { chunk: Some(c) } => {
                assert!(c >= 1, "static chunk must be >= 1");
                let mut out = Vec::new();
                let mut start = thread * c;
                while start < len {
                    out.push(start..(start + c).min(len));
                    start += nthreads * c;
                }
                out
            }
            _ => panic!("static_chunks called on dynamic/guided schedule"),
        }
    }
}

/// The guided rule: the next chunk out of `remaining` iterations shared
/// by `parts` claimants is `remaining / parts`, floored at `min_chunk` and
/// capped at `remaining`. Chunks start large, so claims are few, and
/// shrink toward `min_chunk` at the tail, so the last claims balance the
/// load. [`Schedule::Guided`] claims with it, and so does the drug-design
/// exemplar's message-passing deal.
pub fn guided_chunk(remaining: usize, parts: usize, min_chunk: usize) -> usize {
    (remaining / parts.max(1)).max(min_chunk).min(remaining)
}

/// Shared work cursor implementing dynamic and guided chunk claiming.
pub struct DynamicCursor {
    next: AtomicUsize,
    len: usize,
    nthreads: usize,
    schedule: Schedule,
}

impl DynamicCursor {
    /// A cursor over `0..len` for `nthreads` threads under `schedule`
    /// (which must be `Dynamic` or `Guided`).
    pub fn new(len: usize, nthreads: usize, schedule: Schedule) -> Self {
        match schedule {
            Schedule::Dynamic { chunk } => assert!(chunk >= 1, "dynamic chunk must be >= 1"),
            Schedule::Guided { min_chunk } => {
                assert!(min_chunk >= 1, "guided min_chunk must be >= 1")
            }
            Schedule::Static { .. } => panic!("DynamicCursor requires a dynamic/guided schedule"),
        }
        Self {
            next: AtomicUsize::new(0),
            len,
            nthreads: nthreads.max(1),
            schedule,
        }
    }

    /// Claim the next chunk, or `None` when the range is exhausted.
    pub fn claim(&self) -> Option<Range<usize>> {
        loop {
            let start = self.next.load(Ordering::Relaxed);
            if start >= self.len {
                return None;
            }
            let remaining = self.len - start;
            let want = match self.schedule {
                Schedule::Dynamic { chunk } => chunk.min(remaining),
                Schedule::Guided { min_chunk } => guided_chunk(remaining, self.nthreads, min_chunk),
                Schedule::Static { .. } => unreachable!(),
            };
            let end = start + want;
            if self
                .next
                .compare_exchange_weak(start, end, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(start..end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_static(s: Schedule, len: usize, nthreads: usize) -> Vec<usize> {
        let mut all = Vec::new();
        for t in 0..nthreads {
            for r in s.static_chunks(len, t, nthreads) {
                all.extend(r);
            }
        }
        all.sort_unstable();
        all
    }

    #[test]
    fn static_equal_chunks_cover_exactly_once() {
        for &(len, nt) in &[(10, 3), (0, 4), (7, 7), (5, 8), (100, 4), (1, 1)] {
            let got = collect_static(Schedule::Static { chunk: None }, len, nt);
            assert_eq!(got, (0..len).collect::<Vec<_>>(), "len={len} nt={nt}");
        }
    }

    #[test]
    fn static_equal_chunks_are_balanced() {
        // 10 iterations over 3 threads: 4/3/3.
        let sizes: Vec<usize> = (0..3)
            .map(|t| {
                Schedule::Static { chunk: None }
                    .static_chunks(10, t, 3)
                    .iter()
                    .map(|r| r.len())
                    .sum()
            })
            .collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn static_chunked_cover_exactly_once() {
        for &(len, nt, c) in &[(10, 3, 1), (10, 3, 2), (17, 4, 3), (4, 8, 2), (0, 2, 5)] {
            let got = collect_static(Schedule::Static { chunk: Some(c) }, len, nt);
            assert_eq!(got, (0..len).collect::<Vec<_>>(), "len={len} nt={nt} c={c}");
        }
    }

    #[test]
    fn round_robin_deals_like_cards() {
        // "chunks of 1" with 3 threads: thread 1 gets 1, 4, 7, ...
        let chunks = Schedule::round_robin().static_chunks(9, 1, 3);
        let idxs: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(idxs, vec![1, 4, 7]);
    }

    #[test]
    fn dynamic_cursor_covers_exactly_once() {
        let cur = DynamicCursor::new(101, 4, Schedule::Dynamic { chunk: 7 });
        let mut all = Vec::new();
        while let Some(r) = cur.claim() {
            all.extend(r);
        }
        assert_eq!(all, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_cursor_concurrent_cover() {
        use std::sync::Arc;
        let cur = Arc::new(DynamicCursor::new(
            10_000,
            8,
            Schedule::Dynamic { chunk: 3 },
        ));
        let seen = Arc::new(parking_lot::Mutex::new(vec![0u8; 10_000]));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cur = Arc::clone(&cur);
                let seen = Arc::clone(&seen);
                s.spawn(move || {
                    while let Some(r) = cur.claim() {
                        let mut v = seen.lock();
                        for i in r {
                            v[i] += 1;
                        }
                    }
                });
            }
        });
        assert!(
            seen.lock().iter().all(|&c| c == 1),
            "every index claimed exactly once"
        );
    }

    #[test]
    fn guided_chunks_decay() {
        let cur = DynamicCursor::new(1000, 4, Schedule::Guided { min_chunk: 5 });
        let mut sizes = Vec::new();
        while let Some(r) = cur.claim() {
            sizes.push(r.len());
        }
        // First claim is remaining/nthreads = 250; sizes never increase
        // beyond the previous claim and never drop below min_chunk except
        // possibly the final remainder.
        assert_eq!(sizes[0], 250);
        for w in sizes.windows(2) {
            assert!(
                w[1] <= w[0],
                "guided sizes must be non-increasing: {sizes:?}"
            );
        }
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 1000);
        for &s in &sizes[..sizes.len() - 1] {
            assert!(s >= 5);
        }
    }

    #[test]
    fn guided_chunk_halves_toward_the_floor() {
        assert_eq!(guided_chunk(1500, 2, 1), 750);
        assert_eq!(guided_chunk(3, 2, 1), 1);
        assert_eq!(guided_chunk(1, 4, 1), 1);
        assert_eq!(guided_chunk(3, 4, 5), 3, "never more than remains");
        assert_eq!(guided_chunk(0, 2, 1), 0);
    }

    #[test]
    fn schedule_names() {
        assert_eq!(Schedule::default().name(), "static");
        assert_eq!(Schedule::round_robin().name(), "static,1");
        assert_eq!(Schedule::Dynamic { chunk: 4 }.name(), "dynamic,4");
        assert_eq!(Schedule::Guided { min_chunk: 2 }.name(), "guided,2");
    }

    #[test]
    #[should_panic(expected = "dynamic/guided")]
    fn cursor_rejects_static() {
        DynamicCursor::new(10, 2, Schedule::default());
    }

    #[test]
    #[should_panic(expected = "static_chunks called on dynamic")]
    fn static_chunks_rejects_dynamic() {
        Schedule::Dynamic { chunk: 1 }.static_chunks(10, 0, 2);
    }
}
