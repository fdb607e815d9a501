//! Collective-communication patternlets: broadcast, scatter, gather,
//! allgather, reduce, scan.

use pdc_mpc::{ops, Comm};

use crate::{Paradigm, Pattern, Patternlet};

/// `mp.broadcast` — one value, everywhere.
pub static BROADCAST: Patternlet = Patternlet {
    id: "mp.broadcast",
    name: "Broadcast",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::CollectiveCommunication,
    teaches: "bcast sends one value from the root to every process in one call.",
    source: r#"if id == 0:
    data = ["config.txt", 42]
else:
    data = None
data = comm.bcast(data, root=0)
print("Process {} has {}".format(id, data))"#,
    runner: |n| super::run_ranks(n, broadcast_body),
};

pub(super) fn broadcast_body(comm: &Comm) -> Vec<String> {
    let data = (comm.rank() == 0).then(|| ("config.txt".to_owned(), 42u32));
    let data = comm.bcast(0, data).unwrap();
    vec![format!(
        "Process {} has (\"{}\", {})",
        comm.rank(),
        data.0,
        data.1
    )]
}

/// `mp.scatter` — slices of an array, one per process.
pub static SCATTER: Patternlet = Patternlet {
    id: "mp.scatter",
    name: "Scatter",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::CollectiveCommunication,
    teaches: "scatter splits the root's list, delivering piece i to rank i.",
    source: r#"if id == 0:
    pieces = [[i*10, i*10+1] for i in range(numProcesses)]
else:
    pieces = None
mine = comm.scatter(pieces, root=0)
print("Process {} got {}".format(id, mine))"#,
    runner: |n| super::run_ranks(n, scatter_body),
};

pub(super) fn scatter_body(comm: &Comm) -> Vec<String> {
    let pieces =
        (comm.rank() == 0).then(|| (0..comm.size()).map(|i| vec![i * 10, i * 10 + 1]).collect());
    let mine: Vec<usize> = comm.scatter(0, pieces).unwrap();
    vec![format!("Process {} got {mine:?}", comm.rank())]
}

/// `mp.gather` — per-process results collected at the root.
pub static GATHER: Patternlet = Patternlet {
    id: "mp.gather",
    name: "Gather",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::CollectiveCommunication,
    teaches: "gather collects one value from every rank into a list at the root, in rank order.",
    source: r#"square = id * id
squares = comm.gather(square, root=0)
if id == 0:
    print("Gathered {}".format(squares))"#,
    runner: |n| super::run_ranks(n, gather_body),
};

pub(super) fn gather_body(comm: &Comm) -> Vec<String> {
    let square = comm.rank() * comm.rank();
    match comm.gather(0, square).unwrap() {
        Some(all) => vec![format!("Gathered {all:?}")],
        None => vec![format!("Process {} contributed {square}", comm.rank())],
    }
}

/// `mp.allgather` — everyone gets everyone's contribution.
pub static ALLGATHER: Patternlet = Patternlet {
    id: "mp.allgather",
    name: "All-gather",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::CollectiveCommunication,
    teaches: "allgather is gather + broadcast: every process ends with the full list.",
    source: r#"contribution = id + 100
everything = comm.allgather(contribution)
print("Process {} sees {}".format(id, everything))"#,
    runner: |n| super::run_ranks(n, allgather_body),
};

pub(super) fn allgather_body(comm: &Comm) -> Vec<String> {
    let everything = comm.allgather(comm.rank() + 100).unwrap();
    vec![format!("Process {} sees {everything:?}", comm.rank())]
}

/// `mp.reduce` — combine everyone's value at the root.
pub static REDUCE: Patternlet = Patternlet {
    id: "mp.reduce",
    name: "Reduce",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::Reduction,
    teaches: "reduce combines one value per rank with an operator (sum, max, …) at the root.",
    source: r#"localValue = id + 1
total = comm.reduce(localValue, op=MPI.SUM, root=0)
biggest = comm.reduce(localValue, op=MPI.MAX, root=0)
if id == 0:
    print("sum = {}, max = {}".format(total, biggest))"#,
    runner: |n| super::run_ranks(n, reduce_body),
};

pub(super) fn reduce_body(comm: &Comm) -> Vec<String> {
    let local = comm.rank() as u64 + 1;
    let total = comm.reduce(0, local, ops::sum).unwrap();
    let biggest = comm.reduce(0, local, ops::max).unwrap();
    match (total, biggest) {
        (Some(t), Some(b)) => vec![format!("sum = {t}, max = {b}")],
        _ => vec![format!("Process {} contributed {local}", comm.rank())],
    }
}

/// `mp.scan` — inclusive prefix reduction across ranks.
pub static SCAN: Patternlet = Patternlet {
    id: "mp.scan",
    name: "Scan (prefix reduction)",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::CollectiveCommunication,
    teaches: "scan gives rank r the reduction of ranks 0..=r — running totals across processes.",
    source: r#"localValue = id + 1
runningTotal = comm.scan(localValue, op=MPI.SUM)
print("Process {}: running total {}".format(id, runningTotal))"#,
    runner: |n| super::run_ranks(n, scan_body),
};

pub(super) fn scan_body(comm: &Comm) -> Vec<String> {
    let total = comm.scan(comm.rank() as u64 + 1, ops::sum).unwrap();
    vec![format!("Process {}: running total {total}", comm.rank())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_everyone_has_the_value() {
        let out = BROADCAST.run(4);
        for (r, line) in out.lines.iter().enumerate() {
            assert_eq!(line, &format!("Process {r} has (\"config.txt\", 42)"));
        }
    }

    #[test]
    fn scatter_rank_slices() {
        let out = SCATTER.run(3);
        assert_eq!(out.lines[0], "Process 0 got [0, 1]");
        assert_eq!(out.lines[1], "Process 1 got [10, 11]");
        assert_eq!(out.lines[2], "Process 2 got [20, 21]");
    }

    #[test]
    fn gather_squares_in_rank_order() {
        let out = GATHER.run(4);
        assert_eq!(out.lines[0], "Gathered [0, 1, 4, 9]");
    }

    #[test]
    fn allgather_everyone_sees_all() {
        let out = ALLGATHER.run(3);
        for (r, line) in out.lines.iter().enumerate() {
            assert_eq!(line, &format!("Process {r} sees [100, 101, 102]"));
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        let out = REDUCE.run(4);
        assert_eq!(out.lines[0], "sum = 10, max = 4");
        assert!(out.lines[3].contains("contributed 4"));
    }

    #[test]
    fn collectives_degenerate_to_one_process() {
        assert_eq!(BROADCAST.run(1).lines.len(), 1);
        assert_eq!(GATHER.run(1).lines[0], "Gathered [0]");
        assert_eq!(REDUCE.run(1).lines[0], "sum = 1, max = 1");
    }
}

#[cfg(test)]
mod scan_tests {
    use super::*;

    #[test]
    fn scan_running_totals() {
        let out = SCAN.run(5);
        // Prefix sums of 1..=5: 1, 3, 6, 10, 15.
        for (r, want) in [1u64, 3, 6, 10, 15].iter().enumerate() {
            assert_eq!(out.lines[r], format!("Process {r}: running total {want}"));
        }
    }
}
