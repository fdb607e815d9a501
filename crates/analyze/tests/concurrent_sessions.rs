//! Analysis harnesses see only the run they wrap, whatever else runs in
//! the process at the same time.
//!
//! Each test keeps a second thread looping a patternlet or a world *without*
//! analysis, and waits inside the analyzed closure until that thread has
//! completed a whole iteration, so the two always overlap. The verdicts
//! must be the ones the analyzed code earns on its own.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pdc_analyze::{with_comm_records, with_race_analysis, Diagnostic};
use pdc_mpc::World;
use pdc_patternlets::registry;

const CLEAN_RUNGS: [&str; 4] = ["sm.critical", "sm.atomic", "sm.locks", "sm.reduction"];

/// Run `work` in a loop on another thread while `f` runs on this one.
/// `f` gets an `overlap` callback that returns once the other thread has
/// run `work` from start to end since the call.
fn alongside<R>(work: impl Fn() + Sync, f: impl FnOnce(&dyn Fn()) -> R) -> R {
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    /// Stops the loop even when `f` panics, so the scope can join it.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                work();
                done.fetch_add(1, Ordering::SeqCst);
            }
        });
        let _stop = Stop(&stop);
        let overlap = || {
            // The iteration running now may have started before the call;
            // the one after it has not.
            let until = done.load(Ordering::SeqCst) + 2;
            while done.load(Ordering::SeqCst) < until {
                std::thread::yield_now();
            }
        };
        f(&overlap)
    })
}

fn rendered(diags: &[Diagnostic]) -> Vec<String> {
    diags.iter().map(|d| d.to_string()).collect()
}

#[test]
fn clean_rungs_stay_clean_while_another_team_races() {
    let racy = registry::find("sm.race").expect("sm.race is in the catalog");
    alongside(
        || {
            racy.run(2);
        },
        |overlap| {
            for id in CLEAN_RUNGS {
                let p = registry::find(id).expect("ladder rung is in the catalog");
                let (_, diags) = with_race_analysis(|| {
                    p.run(2);
                    overlap();
                });
                assert!(
                    diags.is_empty(),
                    "{id} was flagged while sm.race ran on another thread: {:?}",
                    rendered(&diags)
                );
            }
        },
    );
}

#[test]
fn the_race_is_still_found_while_clean_rungs_run_alongside() {
    let racy = registry::find("sm.race").expect("sm.race is in the catalog");
    alongside(
        || {
            for id in CLEAN_RUNGS {
                registry::find(id).expect("ladder rung").run(2);
            }
        },
        |overlap| {
            let (_, diags) = with_race_analysis(|| {
                racy.run(2);
                overlap();
            });
            assert_eq!(diags.len(), 2, "{:?}", rendered(&diags));
            for d in &diags {
                assert_eq!(d.code, "race.data-race");
                assert!(d.sites.iter().all(|s| s.contains("races.rs:")), "{d}");
            }
        },
    );
}

#[test]
fn comm_records_hold_only_the_harness_run() {
    alongside(
        || {
            World::new(2).run(|comm| {
                // Sent but never received.
                if comm.rank() == 0 {
                    comm.send(1, 9, &42u64).expect("send");
                }
            });
        },
        |overlap| {
            let (_, runs, diags) = with_comm_records(|| {
                World::new(2).run(|comm| {
                    let other = 1 - comm.rank();
                    comm.send(other, 0, &comm.rank()).expect("send");
                    let got: usize = comm.recv(other, 0).expect("recv");
                    assert_eq!(got, other);
                });
                overlap();
            });
            assert_eq!(runs.len(), 1, "only the harness's own world is recorded");
            assert_eq!(runs[0].np, 2);
            assert_eq!(runs[0].ops.len(), 4, "one send and one receive per rank");
            assert!(diags.is_empty(), "{:?}", rendered(&diags));
        },
    );
}
