//! Point-to-point patternlets: send/recv, the ring, the safe exchange,
//! and the deliberate deadlock.

use std::time::Duration;

use pdc_mpc::{Comm, MpcError};

use crate::{Paradigm, Pattern, Patternlet};

/// `mp.sendrecv` — the conductor sends a personalized message to each
/// player.
pub static SEND_RECV: Patternlet = Patternlet {
    id: "mp.sendrecv",
    name: "Send-Receive",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::MessagePassing,
    teaches: "Explicit messages are the only way processes share data: one sends, one receives.",
    source: r#"if id == 0:                    # the master
    for w in range(1, numProcesses):
        comm.send("Hello, process {}".format(w), dest=w)
else:                           # a worker
    msg = comm.recv(source=0)
    print("Process {} got: {}".format(id, msg))"#,
    runner: |n| super::run_ranks(n, sendrecv_body),
};

pub(super) fn sendrecv_body(comm: &Comm) -> Vec<String> {
    if comm.rank() == 0 {
        for w in 1..comm.size() {
            comm.send(w, 0, &format!("Hello, process {w}")).unwrap();
        }
        vec![format!("Process 0 sent {} messages", comm.size() - 1)]
    } else {
        let msg: String = comm.recv(0, 0).unwrap();
        vec![format!("Process {} got: {msg}", comm.rank())]
    }
}

/// `mp.ring` — pass an accumulating token around the ring.
pub static RING_PASS: Patternlet = Patternlet {
    id: "mp.ring",
    name: "Ring pass",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::MessagePassing,
    teaches: "Neighbour topology: each process talks to (rank±1) mod size; data circulates.",
    source: r#"token = id                     # start with my own rank
if id == 0:
    comm.send(token, dest=1)
    token = comm.recv(source=numProcesses-1)
else:
    token = comm.recv(source=id-1) + id
    comm.send(token, dest=(id+1) % numProcesses)"#,
    runner: |n| super::run_ranks(n, ring_body),
};

pub(super) fn ring_body(comm: &Comm) -> Vec<String> {
    let (rank, size) = (comm.rank(), comm.size());
    if size == 1 {
        return vec![format!("Process 0 final token: {rank}")];
    }
    if rank == 0 {
        comm.send(1 % size, 0, &0u64).unwrap();
        let token: u64 = comm.recv(size - 1, 0).unwrap();
        vec![format!("Process 0 final token: {token}")]
    } else {
        let token: u64 = comm.recv(rank - 1, 0).unwrap();
        let token = token + rank as u64;
        comm.send((rank + 1) % size, 0, &token).unwrap();
        vec![format!("Process {rank} passed token {token}")]
    }
}

/// `mp.exchange` — neighbours swap data safely with `Sendrecv`.
pub static EXCHANGE: Patternlet = Patternlet {
    id: "mp.exchange",
    name: "Neighbour exchange (Sendrecv)",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::MessagePassing,
    teaches: "Sendrecv pairs the two halves of a swap so neither side can deadlock.",
    source: r#"partner = id ^ 1               # pair up ranks 0-1, 2-3, ...
received = comm.sendrecv(id * 100, dest=partner, source=partner)
print("Process {} received {}".format(id, received))"#,
    runner: |n| super::run_ranks(n, exchange_body),
};

pub(super) fn exchange_body(comm: &Comm) -> Vec<String> {
    // Needs an even process count to pair everyone; an odd tail rank
    // simply reports it has no partner.
    let partner = comm.rank() ^ 1;
    if partner >= comm.size() {
        return vec![format!("Process {} has no partner", comm.rank())];
    }
    let (got, _) = comm
        .sendrecv::<u64, u64>(partner, 0, &(comm.rank() as u64 * 100), partner, 0)
        .unwrap();
    vec![format!("Process {} received {got}", comm.rank())]
}

/// `mp.deadlock` — both processes receive before sending. With buffered
/// sends this would be hidden, so the patternlet uses the runtime's
/// timeout-receive to surface the hang, then shows the fixed ordering.
pub static DEADLOCK: Patternlet = Patternlet {
    id: "mp.deadlock",
    name: "Deadlock (broken on purpose)",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::MessagePassing,
    teaches: "Two processes that both receive first wait forever: message ordering is a protocol.",
    source: r#"# BROKEN: both processes block in recv; neither reaches send.
other = 1 - id
msg = comm.recv(source=other)   # waits forever...
comm.send("hi", dest=other)     # ...never reached

# FIX: one side sends first (or use sendrecv).
if id == 0:
    comm.send("hi", dest=1);  msg = comm.recv(source=1)
else:
    msg = comm.recv(source=0);  comm.send("hi", dest=0)"#,
    runner: |n| {
        assert!(n >= 2, "deadlock patternlet needs at least 2 processes");
        super::run_ranks(2, deadlock_body)
    },
};

pub(super) fn deadlock_body(comm: &Comm) -> Vec<String> {
    // The demo needs exactly two actors; extra ranks watch from the side
    // (a wire-mode world keeps its size for the whole session).
    if comm.rank() >= 2 || comm.size() < 2 {
        return vec![format!("Process {} sat out the deadlock demo", comm.rank())];
    }
    let other = 1 - comm.rank();
    // Broken phase: both receive first. The 100 ms timeout stands in
    // for "forever".
    let broken: Result<(String, _), MpcError> =
        comm.recv_timeout(other, 0, Duration::from_millis(100));
    let line1 = match broken {
        Err(MpcError::Timeout { .. }) => {
            format!("Process {}: recv blocked forever (DEADLOCK)", comm.rank())
        }
        other => format!("Process {}: unexpected: {other:?}", comm.rank()),
    };
    // Fixed phase: rank 0 sends first.
    let msg = if comm.rank() == 0 {
        comm.send(1, 1, &"hi from 0".to_owned()).unwrap();
        comm.recv::<String>(1, 1).unwrap()
    } else {
        let m = comm.recv::<String>(0, 1).unwrap();
        comm.send(0, 1, &"hi from 1".to_owned()).unwrap();
        m
    };
    vec![
        line1,
        format!("Process {}: fixed, got '{msg}'", comm.rank()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_every_worker_greeted() {
        let out = SEND_RECV.run(4);
        assert_eq!(out.lines[0], "Process 0 sent 3 messages");
        for w in 1..4 {
            assert_eq!(out.lines[w], format!("Process {w} got: Hello, process {w}"));
        }
    }

    #[test]
    fn ring_token_accumulates_rank_sum() {
        let out = RING_PASS.run(5);
        // Token accumulates 1+2+3+4 = 10 before returning to 0.
        assert_eq!(out.lines[0], "Process 0 final token: 10");
    }

    #[test]
    fn ring_single_process() {
        let out = RING_PASS.run(1);
        assert_eq!(out.lines[0], "Process 0 final token: 0");
    }

    #[test]
    fn exchange_swaps_pairwise() {
        let out = EXCHANGE.run(4);
        assert_eq!(out.lines[0], "Process 0 received 100");
        assert_eq!(out.lines[1], "Process 1 received 0");
        assert_eq!(out.lines[2], "Process 2 received 300");
        assert_eq!(out.lines[3], "Process 3 received 200");
    }

    #[test]
    fn exchange_odd_tail_has_no_partner() {
        let out = EXCHANGE.run(3);
        assert_eq!(out.lines[2], "Process 2 has no partner");
    }

    #[test]
    fn deadlock_detected_then_fixed() {
        let out = DEADLOCK.run(2);
        assert!(out.lines[0].contains("DEADLOCK"), "{:?}", out.lines);
        assert!(out.lines[1].contains("fixed, got 'hi from 1'"));
        assert!(out.lines[2].contains("DEADLOCK"));
        assert!(out.lines[3].contains("fixed, got 'hi from 0'"));
    }
}
