//! MPI-style communication analysis over `pdc-mpc`'s per-rank operation
//! logs, plus an offline mode over `pdc-trace` JSONL exports.
//!
//! Four analyses run over each [`RunRecord`]:
//!
//! * **Collective mismatch** — every rank that participates in a
//!   communicator must enter the same collectives in the same order.
//!   `rank 0: bcast` vs `rank 1: barrier` is the classic student bug.
//! * **Unmatched sends** — user messages (non-negative tags) that were
//!   delivered to a mailbox but never received by anyone.
//! * **Deadlock cycles** — a wait-for graph built from failed receives
//!   that named a specific source; a cycle means every rank on it was
//!   waiting for the next one (`recv before send` in both directions).
//! * **Unmatched receives** — failed user receives not explained by a
//!   cycle (waiting on a message nobody sent).
//!
//! Internal collective traffic (negative tags) is excluded from the
//! point-to-point analyses: a mismatched collective already reports as
//! a mismatch and must not double-report as a fake deadlock.

use std::collections::{BTreeMap, BTreeSet};

use pdc_mpc::analysis::{OpKind, RunRecord};
use pdc_mpc::Tag;

use crate::{canonicalize, Detector, Diagnostic, Severity};

/// Analyze every recorded run; diagnostics come back in canonical order.
pub fn analyze_runs(runs: &[RunRecord]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for run in runs {
        analyze_one(run, &mut diags);
    }
    canonicalize(diags)
}

fn analyze_one(run: &RunRecord, diags: &mut Vec<Diagnostic>) {
    collective_mismatches(run, diags);
    unmatched_sends(run, diags);
    wait_cycles(run, diags);
}

/// Per-communicator, per-rank ordered collective-name sequences.
fn collective_sequences(run: &RunRecord) -> BTreeMap<u64, BTreeMap<usize, Vec<&'static str>>> {
    let mut by_comm: BTreeMap<u64, BTreeMap<usize, Vec<&'static str>>> = BTreeMap::new();
    for rank in 0..run.np {
        for op in run.rank_ops(rank) {
            if let OpKind::Collective { op: name, comm } = op.kind {
                by_comm
                    .entry(comm)
                    .or_default()
                    .entry(rank)
                    .or_default()
                    .push(name);
            }
        }
    }
    by_comm
}

fn collective_mismatches(run: &RunRecord, diags: &mut Vec<Diagnostic>) {
    for (comm, by_rank) in collective_sequences(run) {
        let mut reference: Option<(usize, &Vec<&'static str>)> = None;
        let mut divergent = false;
        for (rank, seq) in &by_rank {
            match reference {
                None => reference = Some((*rank, seq)),
                Some((_, ref_seq)) if ref_seq != seq => {
                    divergent = true;
                    break;
                }
                Some(_) => {}
            }
        }
        if !divergent {
            continue;
        }
        let detail: Vec<String> = by_rank
            .iter()
            .map(|(rank, seq)| format!("rank {rank}: [{}]", seq.join(", ")))
            .collect();
        diags.push(Diagnostic::new(
            Detector::Comm,
            "comm.collective-mismatch",
            Severity::Error,
            format!(
                "run {}: ranks disagree on the collective sequence for communicator {comm}: {}",
                run.run,
                detail.join("; "),
            ),
            vec![],
        ));
    }
}

fn unmatched_sends(run: &RunRecord, diags: &mut Vec<Diagnostic>) {
    // Multiset of delivered user sends minus multiset of user receives,
    // keyed by (src, dst, tag).
    let mut balance: BTreeMap<(usize, usize, Tag), i64> = BTreeMap::new();
    for op in &run.ops {
        match op.kind {
            OpKind::Send {
                dst,
                tag,
                user: true,
                copies,
                ..
            } if copies > 0 => *balance.entry((op.rank, dst, tag)).or_default() += 1,
            OpKind::RecvDone {
                src,
                tag,
                user: true,
            } => *balance.entry((src, op.rank, tag)).or_default() -= 1,
            _ => {}
        }
    }
    for ((src, dst, tag), count) in balance {
        if count <= 0 {
            continue;
        }
        diags.push(Diagnostic::new(
            Detector::Comm,
            "comm.unmatched-send",
            Severity::Warning,
            format!(
                "run {}: {count} message(s) from rank {src} to rank {dst} (tag {tag}) \
                 were sent but never received",
                run.run,
            ),
            vec![],
        ));
    }
}

/// A failed user receive that named a specific source.
struct FailedWait {
    waiter: usize,
    on: usize,
    tag: Option<Tag>,
    reason: &'static str,
}

fn wait_cycles(run: &RunRecord, diags: &mut Vec<Diagnostic>) {
    let mut waits: Vec<FailedWait> = Vec::new();
    let mut anonymous: Vec<(usize, &'static str)> = Vec::new();
    for op in &run.ops {
        if let OpKind::RecvFailed {
            src,
            tag,
            user: true,
            reason,
        } = op.kind
        {
            match src {
                Some(on) => waits.push(FailedWait {
                    waiter: op.rank,
                    on,
                    tag,
                    reason,
                }),
                None => anonymous.push((op.rank, reason)),
            }
        }
    }

    // Wait-for edges (deduplicated): waiter -> rank it was receiving from.
    let mut edges: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for w in &waits {
        edges.entry(w.waiter).or_default().insert(w.on);
    }

    let cycles = find_cycles(&edges);
    let mut in_cycle: BTreeSet<usize> = BTreeSet::new();
    for cycle in &cycles {
        in_cycle.extend(cycle.iter().copied());
        let mut path: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
        path.push(cycle[0].to_string());
        diags.push(Diagnostic::new(
            Detector::Comm,
            "comm.deadlock-cycle",
            Severity::Error,
            format!(
                "run {}: wait-for cycle {} — each rank is blocked receiving from the next \
                 (receive posted before the matching send)",
                run.run,
                path.join(" -> "),
            ),
            vec![],
        ));
    }

    // Failed waits not explained by any cycle: somebody just never sent.
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for w in &waits {
        if in_cycle.contains(&w.waiter) || !reported.insert((w.waiter, w.on)) {
            continue;
        }
        let tag = w
            .tag
            .map(|t| format!("tag {t}"))
            .unwrap_or_else(|| "any tag".to_owned());
        diags.push(Diagnostic::new(
            Detector::Comm,
            "comm.unmatched-recv",
            Severity::Warning,
            format!(
                "run {}: rank {} waited for a message from rank {} ({tag}) that never \
                 arrived ({})",
                run.run, w.waiter, w.on, w.reason,
            ),
            vec![],
        ));
    }
    let mut reported_anon: BTreeSet<usize> = BTreeSet::new();
    for (rank, reason) in anonymous {
        if !reported_anon.insert(rank) {
            continue;
        }
        diags.push(Diagnostic::new(
            Detector::Comm,
            "comm.unmatched-recv",
            Severity::Warning,
            format!(
                "run {}: rank {rank} waited for a message from any rank that never \
                 arrived ({reason})",
                run.run,
            ),
            vec![],
        ));
    }
}

/// Simple elementary-cycle search over the (tiny) wait-for graph.
/// Cycles are canonicalized to start at their minimum rank and
/// deduplicated.
fn find_cycles(edges: &BTreeMap<usize, BTreeSet<usize>>) -> Vec<Vec<usize>> {
    let mut cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
    for &start in edges.keys() {
        let mut path = vec![start];
        dfs(start, start, edges, &mut path, &mut cycles);
    }
    cycles.into_iter().collect()
}

fn dfs(
    start: usize,
    at: usize,
    edges: &BTreeMap<usize, BTreeSet<usize>>,
    path: &mut Vec<usize>,
    cycles: &mut BTreeSet<Vec<usize>>,
) {
    let Some(nexts) = edges.get(&at) else {
        return;
    };
    for &next in nexts {
        if next == start {
            // Canonicalize: rotate so the minimum rank leads.
            let min_pos = path
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| **r)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut canon = path[min_pos..].to_vec();
            canon.extend_from_slice(&path[..min_pos]);
            cycles.insert(canon);
        } else if !path.contains(&next) && next > start {
            // Only explore nodes above `start`: every cycle is found
            // from its minimum node exactly once.
            path.push(next);
            dfs(start, next, edges, path, cycles);
            path.pop();
        }
    }
}

// ----------------------------------------------------------------------
// Offline mode: analyze a pdc-trace JSONL export.
// ----------------------------------------------------------------------

use crate::traceio::{self, LineKind};

/// Analyze a `pdc-trace` JSONL export offline.
///
/// The trace records successful sends/receives (as `mpc` spans with
/// `src`/`dst`/`tag` args) and every collective entry (as a span named
/// after the collective, with a `rank` arg) — enough for the unmatched-
/// send and collective-mismatch analyses. A trace may hold many
/// `World::run`s back to back; each opens a `world_run` span, and
/// because worlds run sequentially the spans' start timestamps
/// partition the stream, so every run is analyzed on its own (a size-2
/// world must not be compared against the size-64 world traced after
/// it). Failed receives leave no arguments in the trace, so wait-for
/// cycles are only available online; that asymmetry is why
/// `reproduce --analyze` runs the online analyzer.
///
/// Parsing, pid-aware run segmentation (a merged multi-process stream
/// is *one* distributed run, not sequential runs), and collective-name
/// recognition are shared with `pdc-insight` via [`crate::traceio`].
pub fn analyze_jsonl(jsonl: &str) -> Vec<Diagnostic> {
    let lines = traceio::parse_jsonl(jsonl);

    // (ts_ns, src, dst, tag, +1 send / -1 recv)
    let mut p2p: Vec<(u64, usize, usize, Tag, i64)> = Vec::new();
    // (ts_ns, rank, name) so each rank's collectives sort into program
    // order — a rank is one thread, so its timestamps are monotone.
    let mut collectives: Vec<(u64, usize, String)> = Vec::new();

    for line in &lines {
        if !matches!(line.kind, LineKind::Span { .. }) || line.cat != "mpc" {
            continue;
        }
        match line.name.as_str() {
            "send" | "recv" => {
                let (Some(src), Some(dst), Some(tag)) = (
                    line.arg_u64("src"),
                    line.arg_u64("dst"),
                    line.arg_i64("tag"),
                ) else {
                    continue;
                };
                let tag = tag as Tag;
                if tag < 0 {
                    continue;
                }
                let delta = if line.name == "send" { 1 } else { -1 };
                p2p.push((line.ts_ns, src as usize, dst as usize, tag, delta));
            }
            _ if line.is_collective() => {
                let Some(rank) = line.arg_u64("rank") else {
                    continue;
                };
                collectives.push((line.ts_ns, rank as usize, line.name.clone()));
            }
            _ => {}
        }
    }

    let run_starts = traceio::run_boundaries(&lines);
    let multi_run = run_starts.len() > 1;
    let segment_of = |ts: u64| traceio::segment_of(&run_starts, ts);
    let run_label = |seg: usize| {
        if multi_run {
            format!("trace run {seg}")
        } else {
            "trace".to_owned()
        }
    };

    let mut diags = Vec::new();

    let mut sends: BTreeMap<(usize, (usize, usize, Tag)), i64> = BTreeMap::new();
    for (ts, src, dst, tag, delta) in p2p {
        *sends.entry((segment_of(ts), (src, dst, tag))).or_default() += delta;
    }
    for ((seg, (src, dst, tag)), count) in sends {
        if count <= 0 {
            continue;
        }
        diags.push(Diagnostic::new(
            Detector::Comm,
            "comm.unmatched-send",
            Severity::Warning,
            format!(
                "{}: {count} message(s) from rank {src} to rank {dst} (tag {tag}) \
                 were sent but never received",
                run_label(seg),
            ),
            vec![],
        ));
    }

    collectives.sort();
    let mut by_run_rank: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    for (ts, rank, name) in collectives {
        by_run_rank
            .entry((segment_of(ts), rank))
            .or_default()
            .push(name);
    }
    let mut runs: BTreeMap<usize, BTreeMap<usize, Vec<String>>> = BTreeMap::new();
    for ((seg, rank), seq) in by_run_rank {
        runs.entry(seg).or_default().insert(rank, seq);
    }
    for (seg, by_rank) in runs {
        let mut reference: Option<&Vec<String>> = None;
        let divergent = by_rank.values().any(|seq| match reference {
            None => {
                reference = Some(seq);
                false
            }
            Some(r) => r != seq,
        });
        if divergent {
            let detail: Vec<String> = by_rank
                .iter()
                .map(|(rank, seq)| format!("rank {rank}: [{}]", seq.join(", ")))
                .collect();
            diags.push(Diagnostic::new(
                Detector::Comm,
                "comm.collective-mismatch",
                Severity::Error,
                format!(
                    "{}: ranks disagree on the collective sequence: {}",
                    run_label(seg),
                    detail.join("; "),
                ),
                vec![],
            ));
        }
    }

    canonicalize(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mpc::analysis::CommOp;

    fn record(ops: Vec<(usize, OpKind)>) -> RunRecord {
        let mut seqs = [0usize; 8];
        let ops = ops
            .into_iter()
            .map(|(rank, kind)| {
                let seq = seqs[rank];
                seqs[rank] += 1;
                CommOp { rank, seq, kind }
            })
            .collect();
        RunRecord { run: 0, np: 2, ops }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn matched_traffic_is_clean() {
        let run = record(vec![
            (
                0,
                OpKind::Send {
                    dst: 1,
                    tag: 3,
                    bytes: 8,
                    user: true,
                    copies: 1,
                },
            ),
            (
                1,
                OpKind::RecvDone {
                    src: 0,
                    tag: 3,
                    user: true,
                },
            ),
            (
                0,
                OpKind::Collective {
                    op: "barrier",
                    comm: 0,
                },
            ),
            (
                1,
                OpKind::Collective {
                    op: "barrier",
                    comm: 0,
                },
            ),
        ]);
        assert!(analyze_runs(&[run]).is_empty());
    }

    #[test]
    fn detects_collective_mismatch() {
        let run = record(vec![
            (
                0,
                OpKind::Collective {
                    op: "bcast",
                    comm: 0,
                },
            ),
            (
                1,
                OpKind::Collective {
                    op: "barrier",
                    comm: 0,
                },
            ),
        ]);
        let diags = analyze_runs(&[run]);
        assert_eq!(codes(&diags), vec!["comm.collective-mismatch"]);
        assert!(diags[0].message.contains("rank 0: [bcast]"));
        assert!(diags[0].message.contains("rank 1: [barrier]"));
    }

    #[test]
    fn detects_unmatched_send_and_recv() {
        let run = record(vec![
            (
                0,
                OpKind::Send {
                    dst: 1,
                    tag: 9,
                    bytes: 4,
                    user: true,
                    copies: 1,
                },
            ),
            (
                1,
                OpKind::RecvFailed {
                    src: Some(0),
                    tag: Some(5),
                    user: true,
                    reason: "timeout",
                },
            ),
        ]);
        let diags = analyze_runs(&[run]);
        assert_eq!(
            codes(&diags),
            vec!["comm.unmatched-recv", "comm.unmatched-send"]
        );
    }

    #[test]
    fn detects_two_rank_deadlock_cycle() {
        let run = record(vec![
            (
                0,
                OpKind::RecvFailed {
                    src: Some(1),
                    tag: Some(0),
                    user: true,
                    reason: "timeout",
                },
            ),
            (
                1,
                OpKind::RecvFailed {
                    src: Some(0),
                    tag: Some(0),
                    user: true,
                    reason: "timeout",
                },
            ),
        ]);
        let diags = analyze_runs(&[run]);
        assert_eq!(codes(&diags), vec!["comm.deadlock-cycle"]);
        assert!(
            diags[0].message.contains("0 -> 1 -> 0"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn three_rank_ring_deadlock_found_once() {
        let run = record(vec![
            (
                0,
                OpKind::RecvFailed {
                    src: Some(2),
                    tag: None,
                    user: true,
                    reason: "timeout",
                },
            ),
            (
                1,
                OpKind::RecvFailed {
                    src: Some(0),
                    tag: None,
                    user: true,
                    reason: "timeout",
                },
            ),
            (
                2,
                OpKind::RecvFailed {
                    src: Some(1),
                    tag: None,
                    user: true,
                    reason: "timeout",
                },
            ),
        ]);
        let diags = analyze_runs(&[run]);
        assert_eq!(codes(&diags), vec!["comm.deadlock-cycle"]);
        assert!(
            diags[0].message.contains("0 -> 2 -> 1 -> 0"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn internal_traffic_is_ignored() {
        let run = record(vec![
            (
                0,
                OpKind::Send {
                    dst: 1,
                    tag: -7,
                    bytes: 4,
                    user: false,
                    copies: 1,
                },
            ),
            (
                1,
                OpKind::RecvFailed {
                    src: Some(0),
                    tag: Some(-7),
                    user: false,
                    reason: "timeout",
                },
            ),
        ]);
        assert!(analyze_runs(&[run]).is_empty());
    }

    #[test]
    fn offline_jsonl_finds_mismatch_and_unmatched_send() {
        let jsonl = r#"
{"kind":"span","cat":"mpc","name":"send","ts_ns":10,"tid":1,"dur_ns":5,"args":{"src":0,"dst":1,"tag":4,"bytes":8}}
{"kind":"span","cat":"mpc","name":"bcast","ts_ns":20,"tid":1,"dur_ns":5,"args":{"rank":0,"size":2}}
{"kind":"span","cat":"mpc","name":"barrier","ts_ns":21,"tid":2,"dur_ns":5,"args":{"rank":1,"size":2}}
{"kind":"counter","cat":"mpc","name":"messages","ts_ns":22,"tid":1,"delta":1}
not json
"#;
        let diags = analyze_jsonl(jsonl);
        assert_eq!(
            codes(&diags),
            vec!["comm.collective-mismatch", "comm.unmatched-send"]
        );
    }

    #[test]
    fn offline_jsonl_segments_runs_by_world_run_spans() {
        // Two sequential worlds: a size-2 run (send + matching recv,
        // both ranks bcast) and a size-3 run (all ranks barrier). Their
        // collective sequences differ run-to-run, which is fine — only
        // divergence *within* a run is a mismatch.
        let jsonl = r#"
{"kind":"span","cat":"mpc","name":"world_run","ts_ns":0,"tid":0,"dur_ns":90,"args":{"np":2}}
{"kind":"span","cat":"mpc","name":"send","ts_ns":10,"tid":1,"dur_ns":5,"args":{"src":0,"dst":1,"tag":4,"bytes":8}}
{"kind":"span","cat":"mpc","name":"recv","ts_ns":12,"tid":2,"dur_ns":5,"args":{"src":0,"dst":1,"tag":4,"bytes":8}}
{"kind":"span","cat":"mpc","name":"bcast","ts_ns":20,"tid":1,"dur_ns":5,"args":{"rank":0,"size":2}}
{"kind":"span","cat":"mpc","name":"bcast","ts_ns":21,"tid":2,"dur_ns":5,"args":{"rank":1,"size":2}}
{"kind":"span","cat":"mpc","name":"world_run","ts_ns":100,"tid":0,"dur_ns":90,"args":{"np":3}}
{"kind":"span","cat":"mpc","name":"barrier","ts_ns":110,"tid":3,"dur_ns":5,"args":{"rank":0,"size":3}}
{"kind":"span","cat":"mpc","name":"barrier","ts_ns":111,"tid":4,"dur_ns":5,"args":{"rank":1,"size":3}}
{"kind":"span","cat":"mpc","name":"barrier","ts_ns":112,"tid":5,"dur_ns":5,"args":{"rank":2,"size":3}}
"#;
        assert!(
            analyze_jsonl(jsonl).is_empty(),
            "per-run-consistent trace must be clean"
        );

        // Same trace plus an unreceived send in the second run only:
        // the diagnostic must name that run.
        let with_leak = format!(
            "{jsonl}{}",
            r#"{"kind":"span","cat":"mpc","name":"send","ts_ns":120,"tid":3,"dur_ns":5,"args":{"src":0,"dst":2,"tag":7,"bytes":8}}"#
        );
        let diags = analyze_jsonl(&with_leak);
        assert_eq!(codes(&diags), vec!["comm.unmatched-send"]);
        assert!(
            diags[0].message.contains("trace run 1"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn offline_jsonl_multi_pid_trace_is_one_distributed_run() {
        // Merged trace from two rank *processes* (distinct pids), each
        // of which opened its own world_run span for the same world.
        // Without pid awareness the second world_run would start a new
        // segment and split the matched send/recv pair and the bcasts
        // across segments, producing phantom diagnostics. With it, the
        // stream is one run and must be clean.
        let jsonl = r#"
{"kind":"span","cat":"mpc","name":"world_run","ts_ns":0,"tid":0,"pid":100,"dur_ns":90,"args":{"np":2}}
{"kind":"span","cat":"mpc","name":"send","ts_ns":10,"tid":1,"pid":100,"dur_ns":5,"args":{"src":0,"dst":1,"tag":4,"bytes":8}}
{"kind":"span","cat":"mpc","name":"bcast","ts_ns":20,"tid":1,"pid":100,"dur_ns":5,"args":{"rank":0,"size":2}}
{"kind":"span","cat":"mpc","name":"world_run","ts_ns":5,"tid":0,"pid":200,"dur_ns":90,"args":{"np":2}}
{"kind":"span","cat":"mpc","name":"recv","ts_ns":12,"tid":1,"pid":200,"dur_ns":5,"args":{"src":0,"dst":1,"tag":4,"bytes":8}}
{"kind":"span","cat":"mpc","name":"bcast","ts_ns":21,"tid":1,"pid":200,"dur_ns":5,"args":{"rank":1,"size":2}}
"#;
        assert!(
            analyze_jsonl(jsonl).is_empty(),
            "merged multi-pid trace must analyze as a single run: {:?}",
            analyze_jsonl(jsonl)
        );

        // A genuinely unmatched send in the merged stream still reports
        // (and without a run index, since there is only one run).
        let with_leak = format!(
            "{jsonl}{}",
            r#"{"kind":"span","cat":"mpc","name":"send","ts_ns":30,"tid":1,"pid":100,"dur_ns":5,"args":{"src":0,"dst":1,"tag":9,"bytes":8}}"#
        );
        let diags = analyze_jsonl(&with_leak);
        assert_eq!(codes(&diags), vec!["comm.unmatched-send"]);
        assert!(
            !diags[0].message.contains("trace run"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn offline_jsonl_clean_when_matched() {
        let jsonl = r#"
{"kind":"span","cat":"mpc","name":"send","ts_ns":10,"tid":1,"dur_ns":5,"args":{"src":0,"dst":1,"tag":4,"bytes":8}}
{"kind":"span","cat":"mpc","name":"recv","ts_ns":12,"tid":2,"dur_ns":5,"args":{"src":0,"dst":1,"tag":4,"bytes":8}}
{"kind":"span","cat":"mpc","name":"barrier","ts_ns":20,"tid":1,"dur_ns":5,"args":{"rank":0,"size":2}}
{"kind":"span","cat":"mpc","name":"barrier","ts_ns":21,"tid":2,"dur_ns":5,"args":{"rank":1,"size":2}}
"#;
        assert!(analyze_jsonl(jsonl).is_empty());
    }
}
