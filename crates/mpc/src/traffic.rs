//! Message-traffic tracing.
//!
//! [`crate::World::run_traced`] counts every envelope that crosses the
//! fabric — how many messages and payload bytes each (sender, receiver)
//! pair exchanged, including the runtime's internal collective traffic.
//! This is how the workspace *validates* the analytic platform model's
//! communication assumptions (e.g. a linear reduce really is `P − 1`
//! messages into the root; a binomial tree really spreads them) instead
//! of asserting them on faith.
//!
//! The counts are folded from the run's op stream ([`crate::analysis`]):
//! each send adds the copies that reached the destination, so a dropped
//! message counts zero times and a duplicated one twice.

use serde::{Deserialize, Serialize};

use crate::analysis::{CommOp, OpKind};

/// A completed run's traffic: messages and bytes per (src, dst) pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    np: usize,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
}

impl TrafficMatrix {
    /// The traffic of an `np`-rank run's `ops`: every delivered copy of
    /// every send.
    pub(crate) fn fold(np: usize, ops: &[CommOp]) -> Self {
        let mut matrix = TrafficMatrix {
            np,
            msgs: vec![0; np * np],
            bytes: vec![0; np * np],
        };
        for op in ops {
            if let OpKind::Send {
                dst, bytes, copies, ..
            } = op.kind
            {
                let idx = op.rank * np + dst;
                matrix.msgs[idx] += u64::from(copies);
                matrix.bytes[idx] += u64::from(copies) * bytes as u64;
            }
        }
        matrix
    }

    /// World size the matrix covers.
    pub fn np(&self) -> usize {
        self.np
    }

    /// Messages sent from `src` to `dst`.
    pub fn messages(&self, src: usize, dst: usize) -> u64 {
        self.msgs[src * self.np + dst]
    }

    /// Payload bytes sent from `src` to `dst`.
    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.np + dst]
    }

    /// Total messages on the fabric.
    pub fn total_messages(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total payload bytes on the fabric.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages received by one rank from anyone.
    pub fn in_degree(&self, dst: usize) -> u64 {
        (0..self.np).map(|s| self.messages(s, dst)).sum()
    }

    /// Messages sent by one rank to anyone.
    pub fn out_degree(&self, src: usize) -> u64 {
        (0..self.np).map(|d| self.messages(src, d)).sum()
    }

    /// The busiest receiver (rank, message count) — the hot spot a
    /// root-centric collective creates.
    pub fn hottest_receiver(&self) -> (usize, u64) {
        (0..self.np)
            .map(|r| (r, self.in_degree(r)))
            .max_by_key(|&(_, c)| c)
            .expect("np >= 1")
    }

    /// Render the byte matrix, companion to [`TrafficMatrix::render`].
    pub fn render_bytes(&self) -> String {
        let mut out = String::from("payload bytes (row = sender, col = receiver):\n      ");
        for d in 0..self.np {
            out.push_str(&format!("{d:>8}"));
        }
        out.push('\n');
        for s in 0..self.np {
            out.push_str(&format!("{s:>5} "));
            for d in 0..self.np {
                out.push_str(&format!("{:>8}", self.bytes(s, d)));
            }
            out.push('\n');
        }
        out
    }

    /// One JSON object per (src, dst) pair that saw traffic, newline
    /// separated — the same shape the tracer's JSONL exporter emits, so
    /// both streams can be appended to one file and joined by `kind`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in 0..self.np {
            for d in 0..self.np {
                let msgs = self.messages(s, d);
                if msgs == 0 {
                    continue;
                }
                out.push_str(
                    &serde_json::json!({
                        "kind": "traffic",
                        "src": s,
                        "dst": d,
                        "msgs": msgs,
                        "bytes": self.bytes(s, d),
                    })
                    .to_string(),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Render the message matrix.
    pub fn render(&self) -> String {
        let mut out = String::from("messages (row = sender, col = receiver):\n      ");
        for d in 0..self.np {
            out.push_str(&format!("{d:>6}"));
        }
        out.push('\n');
        for s in 0..self.np {
            out.push_str(&format!("{s:>5} "));
            for d in 0..self.np {
                out.push_str(&format!("{:>6}", self.messages(s, d)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold one delivered send per `(src, dst, bytes)`.
    fn sends(np: usize, list: &[(usize, usize, usize)]) -> TrafficMatrix {
        let ops: Vec<CommOp> = list
            .iter()
            .enumerate()
            .map(|(seq, &(src, dst, bytes))| CommOp {
                rank: src,
                seq,
                kind: OpKind::Send {
                    dst,
                    tag: 0,
                    bytes,
                    user: true,
                    copies: 1,
                },
            })
            .collect();
        TrafficMatrix::fold(np, &ops)
    }

    #[test]
    fn fold_accumulates_sends() {
        let m = sends(3, &[(0, 1, 10), (0, 1, 5), (2, 0, 7)]);
        assert_eq!(m.messages(0, 1), 2);
        assert_eq!(m.bytes(0, 1), 15);
        assert_eq!(m.messages(2, 0), 1);
        assert_eq!(m.messages(1, 2), 0);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_bytes(), 22);
    }

    #[test]
    fn fold_counts_delivered_copies_and_skips_other_ops() {
        let send = |copies| OpKind::Send {
            dst: 1,
            tag: 0,
            bytes: 8,
            user: true,
            copies,
        };
        let recv = OpKind::RecvDone {
            src: 0,
            tag: 0,
            user: true,
        };
        let ops: Vec<CommOp> = [send(0), send(2), send(1), recv]
            .into_iter()
            .enumerate()
            .map(|(seq, kind)| CommOp { rank: 0, seq, kind })
            .collect();
        let m = TrafficMatrix::fold(2, &ops);
        assert_eq!(m.messages(0, 1), 3);
        assert_eq!(m.bytes(0, 1), 24);
        assert_eq!(m.total_messages(), 3);
    }

    #[test]
    fn degrees_and_hotspot() {
        let m = sends(3, &[(1, 0, 1), (2, 0, 1), (0, 1, 1)]);
        assert_eq!(m.in_degree(0), 2);
        assert_eq!(m.out_degree(0), 1);
        assert_eq!(m.hottest_receiver(), (0, 2));
    }

    #[test]
    fn render_contains_counts() {
        let s = sends(2, &[(0, 1, 3)]).render();
        assert!(s.contains("row = sender"));
        assert!(s.contains('1'));
    }

    #[test]
    fn render_bytes_contains_payload_sizes() {
        let s = sends(2, &[(1, 0, 1234)]).render_bytes();
        assert!(s.contains("payload bytes"));
        assert!(s.contains("1234"));
    }

    #[test]
    fn serde_roundtrip() {
        let m = sends(3, &[(0, 2, 5), (2, 1, 9)]);
        let json = serde_json::to_string(&m).unwrap();
        let back: TrafficMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn jsonl_lists_only_active_pairs() {
        let jsonl = sends(3, &[(0, 1, 10), (0, 1, 10)]).to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v["kind"], "traffic");
        assert_eq!(v["src"], 0);
        assert_eq!(v["dst"], 1);
        assert_eq!(v["msgs"], 2);
        assert_eq!(v["bytes"], 20);
    }
}
