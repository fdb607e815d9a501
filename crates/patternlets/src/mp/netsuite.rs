//! The Module B patternlet catalog as a suite that runs over an
//! *attached* communicator — in particular a `pdc-net` TCP transport
//! where each rank is a real OS process.
//!
//! Each patternlet's body is written once, beside its catalog record in
//! the sibling modules, as a `fn(&Comm) -> Vec<String>`. The catalog
//! runners run it on a fresh thread-mode [`pdc_mpc::World`]; a wire-mode
//! rank cannot spawn a world — it *is* one rank of an existing one — so
//! here each body is paired with a whole-suite checker over the gathered
//! per-rank output in a [`NetPatternlet`]. [`run_suite`] drives all
//! fifteen in notebook order with a barrier between consecutive
//! patternlets (so tag reuse across patternlets can never cross-match)
//! and verifies the combined output at rank 0.

use pdc_mpc::Comm;

use super::worker::{LOOP_REPS, MW_TASKS};
use super::{basics, collectives, p2p, worker};

/// One patternlet in comm-borrowing form.
pub struct NetPatternlet {
    /// Catalog id — matches the corresponding [`crate::Patternlet`].
    pub id: &'static str,
    /// Per-rank body: produce this rank's output lines.
    pub body: fn(&Comm) -> Vec<String>,
    /// Whole-suite check over per-rank lines in rank order, given the
    /// world size. Returns a description of the first violation.
    pub check: fn(usize, &[Vec<String>]) -> Result<(), String>,
}

fn fail(id: &str, why: impl std::fmt::Display) -> String {
    format!("{id}: {why}")
}

fn expect_line(
    id: &str,
    per_rank: &[Vec<String>],
    rank: usize,
    idx: usize,
    want: &str,
) -> Result<(), String> {
    let got = per_rank
        .get(rank)
        .and_then(|lines| lines.get(idx))
        .ok_or_else(|| fail(id, format!("rank {rank} produced no line {idx}")))?;
    if got != want {
        return Err(fail(
            id,
            format!("rank {rank} line {idx}: {got:?} != {want:?}"),
        ));
    }
    Ok(())
}

fn spmd_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    for (r, lines) in per_rank.iter().enumerate().take(np) {
        let want = format!("Greetings from process {r} of {np} on ");
        let got = lines
            .first()
            .ok_or_else(|| fail("mp.spmd", format!("rank {r} silent")))?;
        if !got.starts_with(&want) {
            return Err(fail("mp.spmd", format!("rank {r}: {got:?}")));
        }
    }
    Ok(())
}

fn ordered_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    for r in 0..np {
        expect_line(
            "mp.ordered",
            per_rank,
            r,
            0,
            &format!("Process {r} reporting in order"),
        )?;
    }
    Ok(())
}

fn sendrecv_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    expect_line(
        "mp.sendrecv",
        per_rank,
        0,
        0,
        &format!("Process 0 sent {} messages", np - 1),
    )?;
    for r in 1..np {
        expect_line(
            "mp.sendrecv",
            per_rank,
            r,
            0,
            &format!("Process {r} got: Hello, process {r}"),
        )?;
    }
    Ok(())
}

fn ring_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    let sum: u64 = (1..np as u64).sum();
    expect_line(
        "mp.ring",
        per_rank,
        0,
        0,
        &format!("Process 0 final token: {sum}"),
    )
}

fn exchange_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    for r in 0..np {
        let partner = r ^ 1;
        let want = if partner >= np {
            format!("Process {r} has no partner")
        } else {
            format!("Process {r} received {}", partner * 100)
        };
        expect_line("mp.exchange", per_rank, r, 0, &want)?;
    }
    Ok(())
}

fn deadlock_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    for (r, lines) in per_rank.iter().enumerate().take(2.min(np)) {
        if !lines.first().is_some_and(|l| l.contains("DEADLOCK")) {
            return Err(fail(
                "mp.deadlock",
                format!("rank {r} saw no deadlock: {lines:?}"),
            ));
        }
        let hi = format!("fixed, got 'hi from {}'", 1 - r);
        if !lines.get(1).is_some_and(|l| l.contains(&hi)) {
            return Err(fail(
                "mp.deadlock",
                format!("rank {r} never fixed it: {lines:?}"),
            ));
        }
    }
    Ok(())
}

fn masterworker_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    expect_line(
        "mp.masterworker",
        per_rank,
        0,
        0,
        &format!("Master dealt {MW_TASKS} tasks to {} workers", np - 1),
    )?;
    // Union of the per-worker task lists must be 0..MW_TASKS exactly.
    let mut all: Vec<i64> = Vec::new();
    for lines in &per_rank[1..np] {
        let line = lines
            .first()
            .ok_or_else(|| fail("mp.masterworker", "silent worker"))?;
        let inside = line
            .split('[')
            .nth(1)
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| fail("mp.masterworker", format!("unparseable: {line:?}")))?;
        if !inside.is_empty() {
            for part in inside.split(", ") {
                all.push(
                    part.parse::<i64>()
                        .map_err(|_| fail("mp.masterworker", format!("bad task id {part:?}")))?,
                );
            }
        }
    }
    all.sort_unstable();
    if all != (0..MW_TASKS).collect::<Vec<_>>() {
        return Err(fail("mp.masterworker", format!("task union {all:?}")));
    }
    Ok(())
}

fn loop_iterations(id: &str, per_rank: &[Vec<String>]) -> Result<Vec<usize>, String> {
    let mut iters = Vec::new();
    for lines in per_rank {
        for line in lines {
            let n = line
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| fail(id, format!("unparseable: {line:?}")))?;
            iters.push(n);
        }
    }
    Ok(iters)
}

fn equal_chunks_check(_np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    // Rank-ordered flatten covers 0..REPS contiguously.
    let iters = loop_iterations("mp.loop.equal", per_rank)?;
    if iters != (0..LOOP_REPS).collect::<Vec<_>>() {
        return Err(fail("mp.loop.equal", format!("iterations {iters:?}")));
    }
    Ok(())
}

fn chunks_of_one_check(_np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    // Strided deal: sorted union covers 0..REPS exactly once.
    let mut iters = loop_iterations("mp.loop.chunks1", per_rank)?;
    iters.sort_unstable();
    if iters != (0..LOOP_REPS).collect::<Vec<_>>() {
        return Err(fail("mp.loop.chunks1", format!("iterations {iters:?}")));
    }
    Ok(())
}

fn broadcast_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    for r in 0..np {
        expect_line(
            "mp.broadcast",
            per_rank,
            r,
            0,
            &format!("Process {r} has (\"config.txt\", 42)"),
        )?;
    }
    Ok(())
}

fn scatter_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    for r in 0..np {
        expect_line(
            "mp.scatter",
            per_rank,
            r,
            0,
            &format!("Process {r} got [{}, {}]", r * 10, r * 10 + 1),
        )?;
    }
    Ok(())
}

fn gather_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    let squares: Vec<usize> = (0..np).map(|r| r * r).collect();
    expect_line(
        "mp.gather",
        per_rank,
        0,
        0,
        &format!("Gathered {squares:?}"),
    )
}

fn allgather_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    let everything: Vec<usize> = (0..np).map(|r| r + 100).collect();
    for r in 0..np {
        expect_line(
            "mp.allgather",
            per_rank,
            r,
            0,
            &format!("Process {r} sees {everything:?}"),
        )?;
    }
    Ok(())
}

fn reduce_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    let sum: u64 = (1..=np as u64).sum();
    expect_line(
        "mp.reduce",
        per_rank,
        0,
        0,
        &format!("sum = {sum}, max = {np}"),
    )
}

fn scan_check(np: usize, per_rank: &[Vec<String>]) -> Result<(), String> {
    let mut running = 0u64;
    for r in 0..np {
        running += r as u64 + 1;
        expect_line(
            "mp.scan",
            per_rank,
            r,
            0,
            &format!("Process {r}: running total {running}"),
        )?;
    }
    Ok(())
}

/// The full Module B catalog in comm-borrowing form, notebook order —
/// the same fifteen ids as [`super::ALL`].
pub static NET_SUITE: &[NetPatternlet] = &[
    NetPatternlet {
        id: "mp.spmd",
        body: basics::spmd_body,
        check: spmd_check,
    },
    NetPatternlet {
        id: "mp.ordered",
        body: basics::ordered_body,
        check: ordered_check,
    },
    NetPatternlet {
        id: "mp.sendrecv",
        body: p2p::sendrecv_body,
        check: sendrecv_check,
    },
    NetPatternlet {
        id: "mp.ring",
        body: p2p::ring_body,
        check: ring_check,
    },
    NetPatternlet {
        id: "mp.exchange",
        body: p2p::exchange_body,
        check: exchange_check,
    },
    NetPatternlet {
        id: "mp.deadlock",
        body: p2p::deadlock_body,
        check: deadlock_check,
    },
    NetPatternlet {
        id: "mp.masterworker",
        body: worker::masterworker_body,
        check: masterworker_check,
    },
    NetPatternlet {
        id: "mp.loop.equal",
        body: worker::equal_chunks_body,
        check: equal_chunks_check,
    },
    NetPatternlet {
        id: "mp.loop.chunks1",
        body: worker::chunks_of_one_body,
        check: chunks_of_one_check,
    },
    NetPatternlet {
        id: "mp.broadcast",
        body: collectives::broadcast_body,
        check: broadcast_check,
    },
    NetPatternlet {
        id: "mp.scatter",
        body: collectives::scatter_body,
        check: scatter_check,
    },
    NetPatternlet {
        id: "mp.gather",
        body: collectives::gather_body,
        check: gather_check,
    },
    NetPatternlet {
        id: "mp.allgather",
        body: collectives::allgather_body,
        check: allgather_check,
    },
    NetPatternlet {
        id: "mp.reduce",
        body: collectives::reduce_body,
        check: reduce_check,
    },
    NetPatternlet {
        id: "mp.scan",
        body: collectives::scan_body,
        check: scan_check,
    },
];

/// Run the whole suite on a borrowed communicator.
///
/// Every rank calls this with its `Comm`. Between patternlets all ranks
/// barrier (patternlets reuse tags; the barrier guarantees patternlet
/// *k*'s traffic is fully consumed before *k+1*'s begins), then each
/// rank's lines are gathered to rank 0 in rank order and checked.
///
/// Rank 0 returns one `"<id>: ok (<n> lines)"` summary per patternlet
/// (or the first check failure as `Err`); other ranks return an empty
/// list on success. A communication failure anywhere surfaces as `Err`.
pub fn run_suite(comm: &Comm) -> Result<Vec<String>, String> {
    let mut summaries = Vec::new();
    for p in NET_SUITE {
        let lines = (p.body)(comm);
        let gathered = comm
            .gather(0, lines)
            .map_err(|e| fail(p.id, format!("gather failed: {e}")))?;
        if let Some(per_rank) = gathered {
            (p.check)(comm.size(), &per_rank)?;
            let total: usize = per_rank.iter().map(Vec::len).sum();
            summaries.push(format!("{}: ok ({total} lines)", p.id));
        }
        comm.barrier()
            .map_err(|e| fail(p.id, format!("barrier failed: {e}")))?;
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mpc::World;

    /// Master-worker's deal depends on which worker asks first, so only
    /// the master's line and each worker's rank prefix are comparable
    /// line by line; the task union is left to `masterworker_check`.
    fn comparable(id: &str, lines: &[String]) -> Vec<String> {
        match id {
            "mp.spmd" => {
                let mut sorted = lines.to_vec();
                sorted.sort();
                sorted
            }
            "mp.masterworker" => lines
                .iter()
                .map(|l| l.split(" completed").next().unwrap_or(l).to_owned())
                .collect(),
            _ => lines.to_vec(),
        }
    }

    #[test]
    fn ids_match_the_catalog_exactly() {
        let suite: Vec<&str> = NET_SUITE.iter().map(|p| p.id).collect();
        let catalog: Vec<&str> = super::super::ALL.iter().map(|p| p.id).collect();
        assert_eq!(suite, catalog, "NET_SUITE must mirror mp::ALL in order");

        // Each catalog runner prints what its suite body prints.
        for (p, net) in super::super::ALL.iter().zip(NET_SUITE) {
            for np in [2, 4] {
                let world = match p.id {
                    "mp.spmd" => World::new(np).with_hostname("d6ff4f902ed6"),
                    "mp.deadlock" => World::new(2),
                    _ => World::new(np),
                };
                let per_rank = world.run(|c| (net.body)(&c));
                (net.check)(per_rank.len(), &per_rank).unwrap();
                let flat: Vec<String> = per_rank.into_iter().flatten().collect();
                assert_eq!(
                    comparable(p.id, &p.run(np).lines),
                    comparable(p.id, &flat),
                    "{} at np = {np}",
                    p.id
                );
            }
        }
    }

    #[test]
    fn suite_passes_on_a_thread_world_of_4() {
        let results = World::new(4).run(|comm| run_suite(&comm));
        let summaries = results[0].as_ref().expect("suite clean");
        assert_eq!(summaries.len(), NET_SUITE.len());
        assert!(
            summaries.iter().all(|s| s.contains(": ok (")),
            "{summaries:?}"
        );
        for result in &results[1..] {
            assert_eq!(result.as_ref().unwrap().len(), 0);
        }
    }

    #[test]
    fn suite_passes_on_a_thread_world_of_2() {
        let results = World::new(2).run(|comm| run_suite(&comm));
        assert!(results[0].is_ok(), "{:?}", results[0]);
    }

    #[test]
    fn checks_reject_tampered_output() {
        // Sanity that the checkers actually check: a wrong gather line.
        let per_rank = vec![
            vec!["Gathered [0, 1, 4, 8]".to_owned()],
            vec![],
            vec![],
            vec![],
        ];
        let err = gather_check(4, &per_rank).unwrap_err();
        assert!(err.contains("mp.gather"), "{err}");
    }
}
