//! SPMD structure patternlets: the Figure-2 greeting and rank-ordered
//! output.

use parking_lot::Mutex;
use pdc_mpc::{Comm, World};

use crate::{Paradigm, Pattern, Patternlet, RunOutput};

/// `mp.spmd` — the patternlet in the paper's Figure 2 (`00spmd.py`):
/// every process greets with its rank, size, and host.
pub static SPMD: Patternlet = Patternlet {
    id: "mp.spmd",
    name: "SPMD: Greetings from every process",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::Spmd,
    teaches: "One program text runs in every process; ranks distinguish the copies. \
              This code forms the basis of all of the other examples.",
    source: r#"from mpi4py import MPI

def main():
    comm = MPI.COMM_WORLD
    id = comm.Get_rank()               #number of the process running the code
    numProcesses = comm.Get_size()     #total number of processes running
    myHostName = MPI.Get_processor_name()  #machine name running the code

    print("Greetings from process {} of {} on {}"\
        .format(id, numProcesses, myHostName))

########## Run the main function
main()"#,
    runner: |n| {
        // The Colab container hostname from the paper's Figure 2 output;
        // lines land in arrival order, the interleaving Fig. 2 shows.
        let lines = Mutex::new(Vec::new());
        World::new(n)
            .with_hostname("d6ff4f902ed6")
            .run(|comm| lines.lock().extend(spmd_body(&comm)));
        RunOutput {
            lines: lines.into_inner(),
            deterministic_order: false,
        }
    },
};

pub(super) fn spmd_body(comm: &Comm) -> Vec<String> {
    vec![format!(
        "Greetings from process {} of {} on {}",
        comm.rank(),
        comm.size(),
        comm.processor_name()
    )]
}

/// `mp.ordered` — force rank-ordered printing with a message relay: rank
/// r waits for a token from r−1 before speaking.
pub static ORDERED: Patternlet = Patternlet {
    id: "mp.ordered",
    name: "Ordered SPMD output",
    paradigm: Paradigm::MessagePassing,
    pattern: Pattern::Synchronization,
    teaches: "Processes have no output order by default; a token relay imposes one.",
    source: r#"if id > 0:
    comm.recv(source=id-1)        # wait for my predecessor's token
print("Process {} reporting in order".format(id))
if id < numProcesses - 1:
    comm.send(1, dest=id+1)       # pass the token on"#,
    runner: |n| super::run_ranks(n, ordered_body),
};

pub(super) fn ordered_body(comm: &Comm) -> Vec<String> {
    if comm.rank() > 0 {
        let _token: u8 = comm.recv(comm.rank() - 1, 0).unwrap();
    }
    let line = format!("Process {} reporting in order", comm.rank());
    if comm.rank() + 1 < comm.size() {
        comm.send(comm.rank() + 1, 0, &1u8).unwrap();
    }
    vec![line]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmd_matches_figure2_output() {
        let out = SPMD.run(4);
        let want: Vec<String> = (0..4)
            .map(|r| format!("Greetings from process {r} of 4 on d6ff4f902ed6"))
            .collect();
        assert_eq!(out.sorted_lines(), want);
    }

    #[test]
    fn ordered_is_rank_ordered() {
        for _ in 0..3 {
            let out = ORDERED.run(5);
            let want: Vec<String> = (0..5)
                .map(|r| format!("Process {r} reporting in order"))
                .collect();
            assert_eq!(out.lines, want, "token relay must force rank order");
        }
    }

    #[test]
    fn both_work_with_one_process() {
        assert_eq!(SPMD.run(1).lines.len(), 1);
        assert_eq!(ORDERED.run(1).lines.len(), 1);
    }
}
