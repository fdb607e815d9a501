//! Task- and data-decomposition patternlets: master-worker and the two
//! rank-based loop splits.

use pdc_mpc::{Comm, Source, TagSel};

use crate::{Paradigm, Pattern, Patternlet};

/// `mp.masterworker` — a dynamic work queue: the master hands tasks to
/// whichever worker asks next.
pub static MASTER_WORKER: Patternlet = Patternlet {
    id: "mp.masterworker",
    name: "Master-worker",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::TaskDecomposition,
    teaches: "The master deals tasks on demand, balancing load when task costs vary.",
    source: r#"if id == 0:                           # master
    for task in range(numTasks):
        worker, _ = comm.recv(source=MPI.ANY_SOURCE)  # "ready"
        comm.send(task, dest=worker)
    for w in range(1, numProcesses):                  # poison pills
        worker, _ = comm.recv(source=MPI.ANY_SOURCE)
        comm.send(-1, dest=worker)
else:                                  # worker
    while True:
        comm.send(id, dest=0)          # "I'm ready"
        task = comm.recv(source=0)
        if task < 0: break
        work_on(task)"#,
    runner: |n| super::run_ranks(n, masterworker_body),
};

/// Tasks the master deals in `mp.masterworker`.
pub(super) const MW_TASKS: i64 = 12;

pub(super) fn masterworker_body(comm: &Comm) -> Vec<String> {
    assert!(comm.size() >= 2, "master-worker needs at least one worker");
    if comm.rank() == 0 {
        // Master: deal MW_TASKS tasks, then one poison pill per worker.
        for task in 0..MW_TASKS {
            let (worker, _st) = comm
                .recv_status::<usize>(Source::Any, TagSel::Tag(0))
                .unwrap();
            comm.send(worker, 1, &task).unwrap();
        }
        for _ in 1..comm.size() {
            let (worker, _st) = comm
                .recv_status::<usize>(Source::Any, TagSel::Tag(0))
                .unwrap();
            comm.send(worker, 1, &-1i64).unwrap();
        }
        vec![format!(
            "Master dealt {MW_TASKS} tasks to {} workers",
            comm.size() - 1
        )]
    } else {
        let mut done = Vec::new();
        loop {
            comm.send(0, 0, &comm.rank()).unwrap();
            let task: i64 = comm.recv(0, 1).unwrap();
            if task < 0 {
                break;
            }
            done.push(task);
        }
        vec![format!(
            "Worker {} completed {} tasks: {done:?}",
            comm.rank(),
            done.len()
        )]
    }
}

/// `mp.loop.equal` — rank-based contiguous slices (the MPI flavour of
/// "equal chunks").
pub static EQUAL_CHUNKS: Patternlet = Patternlet {
    id: "mp.loop.equal",
    name: "Parallel loop, equal chunks (ranks)",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::DataDecomposition,
    teaches: "Each rank derives its own contiguous slice from (rank, size) — no messages needed.",
    source: r#"REPS = 8
chunk = REPS // numProcesses
start = id * chunk
end   = REPS if id == numProcesses-1 else start + chunk
for i in range(start, end):
    print("Process {} is performing iteration {}".format(id, i))"#,
    runner: |n| super::run_ranks(n, equal_chunks_body),
};

/// Loop iterations the two loop-split patternlets deal out.
pub(super) const LOOP_REPS: usize = 8;

pub(super) fn equal_chunks_body(comm: &Comm) -> Vec<String> {
    let chunk = LOOP_REPS / comm.size();
    let start = comm.rank() * chunk;
    let end = if comm.rank() == comm.size() - 1 {
        LOOP_REPS
    } else {
        start + chunk
    };
    (start..end)
        .map(|i| format!("Process {} is performing iteration {i}", comm.rank()))
        .collect()
}

/// `mp.loop.chunks1` — round-robin by rank stride.
pub static CHUNKS_OF_ONE: Patternlet = Patternlet {
    id: "mp.loop.chunks1",
    name: "Parallel loop, chunks of 1 (ranks)",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::DataDecomposition,
    teaches: "Striding by size deals iterations round-robin across ranks.",
    source: r#"REPS = 8
for i in range(id, REPS, numProcesses):
    print("Process {} is performing iteration {}".format(id, i))"#,
    runner: |n| super::run_ranks(n, chunks_of_one_body),
};

pub(super) fn chunks_of_one_body(comm: &Comm) -> Vec<String> {
    (comm.rank()..LOOP_REPS)
        .step_by(comm.size())
        .map(|i| format!("Process {} is performing iteration {i}", comm.rank()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_worker_completes_all_tasks() {
        let out = MASTER_WORKER.run(4);
        assert_eq!(out.lines[0], "Master dealt 12 tasks to 3 workers");
        // Parse per-worker task lists; union must be 0..12 exactly once.
        let mut all: Vec<i64> = Vec::new();
        for line in &out.lines[1..] {
            let inside = line.split('[').nth(1).unwrap().trim_end_matches(']');
            if !inside.is_empty() {
                all.extend(inside.split(", ").map(|s| s.parse::<i64>().unwrap()));
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn master_worker_two_procs() {
        let out = MASTER_WORKER.run(2);
        assert!(out.lines[1].contains("completed 12 tasks"));
    }

    #[test]
    fn equal_chunks_cover_range_contiguously() {
        let out = EQUAL_CHUNKS.run(4);
        let iters: Vec<usize> = out
            .lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(iters, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(out.lines[0].starts_with("Process 0"));
        assert!(out.lines[7].starts_with("Process 3"));
    }

    #[test]
    fn equal_chunks_last_rank_takes_remainder() {
        let out = EQUAL_CHUNKS.run(3);
        // chunk = 2; rank 2 takes 4..8.
        let rank2: Vec<&String> = out
            .lines
            .iter()
            .filter(|l| l.starts_with("Process 2"))
            .collect();
        assert_eq!(rank2.len(), 4);
    }

    #[test]
    fn chunks_of_one_strided() {
        let out = CHUNKS_OF_ONE.run(4);
        // Rank r does iterations r, r+4.
        assert!(out
            .lines
            .contains(&"Process 1 is performing iteration 5".to_owned()));
        assert_eq!(out.lines.len(), 8);
    }
}
