//! The catalog linter: does every patternlet *do* what its `Pattern`
//! tag advertises, and is everything the courseware references real?
//!
//! Structure checks are static (unique ids, paradigm prefixes, non-empty
//! fields, registry `find` consistency). Behaviour checks actually run
//! each patternlet at the smallest parallel size (2) under the matching
//! detector:
//!
//! * shared-memory patternlets run under the race detector, which doubles
//!   as an evidence recorder (forks, lock acquires, atomic accesses,
//!   barrier arrivals);
//! * message-passing patternlets run with a [`pdc_mpc::CommLog`] in scope,
//!   and the recorded operations are the evidence.
//!
//! Two behaviour checks are the detectors' own acceptance tests:
//! `sm.race` (the deliberately broken patternlet) **must** be flagged by
//! the race detector, `mp.deadlock` **must** produce a wait-for cycle —
//! and every other patternlet must come back clean.

use std::collections::BTreeSet;
use std::sync::Arc;

use pdc_courseware::module::{Block, Module};
use pdc_mpc::analysis::{OpKind, RunRecord};
use pdc_patternlets::{registry, Paradigm, Pattern, Patternlet};

use crate::race::{Evidence, RaceDetector};
use crate::{canonicalize, Detector, Diagnostic, Severity};

fn lint(code: &str, severity: Severity, message: String) -> Diagnostic {
    Diagnostic::new(Detector::Lint, code, severity, message, vec![])
}

/// What a patternlet must demonstrably exercise, given its tag.
#[derive(Debug, Default, Clone, Copy)]
struct Expect {
    fork: bool,
    acquire: bool,
    atomic: bool,
    plain: bool,
    barrier: bool,
    send_recv: bool,
    collective: bool,
}

fn expectations(p: &Patternlet) -> Expect {
    // Per-id overrides first: the catalog's teaching intent is finer
    // grained than the pattern taxonomy.
    match p.id {
        // Private variables teach the *absence* of sharing: a fork is
        // all the evidence there is.
        "sm.private" => Expect {
            fork: true,
            ..Expect::default()
        },
        // The broken one: plain accesses that must trip the detector.
        "sm.race" => Expect {
            fork: true,
            plain: true,
            ..Expect::default()
        },
        "sm.atomic" => Expect {
            fork: true,
            atomic: true,
            ..Expect::default()
        },
        // The ordered construct synchronizes through its own machinery;
        // what's checkable is that the loop actually forked.
        "sm.ordered" => Expect {
            fork: true,
            ..Expect::default()
        },
        // Rank-derived loop splits exchange no messages — that is the
        // point of the patternlet.
        "mp.loop.equal" | "mp.loop.chunks1" => Expect::default(),
        _ => match (p.paradigm, p.pattern) {
            (Paradigm::SharedMemory, Pattern::MutualExclusion) => Expect {
                fork: true,
                acquire: true,
                ..Expect::default()
            },
            (Paradigm::SharedMemory, Pattern::Synchronization) => Expect {
                fork: true,
                barrier: true,
                ..Expect::default()
            },
            (Paradigm::SharedMemory, _) => Expect {
                fork: true,
                ..Expect::default()
            },
            (Paradigm::MessagePassing, Pattern::MessagePassing)
            | (Paradigm::MessagePassing, Pattern::Synchronization)
            | (Paradigm::MessagePassing, Pattern::TaskDecomposition) => Expect {
                send_recv: true,
                ..Expect::default()
            },
            (Paradigm::MessagePassing, Pattern::CollectiveCommunication)
            | (Paradigm::MessagePassing, Pattern::Reduction) => Expect {
                collective: true,
                ..Expect::default()
            },
            (Paradigm::MessagePassing, _) => Expect::default(),
        },
    }
}

fn check_sm_evidence(p: &Patternlet, ev: &Evidence, diags: &mut Vec<Diagnostic>) {
    let want = expectations(p);
    let mut missing: Vec<&str> = Vec::new();
    if want.fork && ev.forks == 0 {
        missing.push("a forked parallel region");
    }
    if want.acquire && ev.acquires == 0 {
        missing.push("a lock acquisition");
    }
    if want.atomic && ev.atomic_accesses == 0 {
        missing.push("an atomic access");
    }
    if want.plain && ev.plain_accesses == 0 {
        missing.push("a plain shared access");
    }
    if want.barrier && ev.barrier_arrivals == 0 {
        missing.push("a barrier arrival");
    }
    if !missing.is_empty() {
        diags.push(lint(
            "lint.pattern-not-exercised",
            Severity::Error,
            format!(
                "{} is tagged {:?} but its run never performed {}",
                p.id,
                p.pattern,
                missing.join(" or "),
            ),
        ));
    }
}

fn check_mp_evidence(p: &Patternlet, runs: &[RunRecord], diags: &mut Vec<Diagnostic>) {
    if runs.is_empty() {
        diags.push(lint(
            "lint.pattern-not-exercised",
            Severity::Error,
            format!("{} never completed a World::run", p.id),
        ));
        return;
    }
    let want = expectations(p);
    let mut user_send = false;
    let mut user_recv = false;
    let mut collective = false;
    for run in runs {
        for op in &run.ops {
            match op.kind {
                OpKind::Send { user: true, .. } => user_send = true,
                OpKind::RecvDone { user: true, .. } => user_recv = true,
                OpKind::Collective { .. } => collective = true,
                _ => {}
            }
        }
    }
    let mut missing: Vec<&str> = Vec::new();
    if want.send_recv && !(user_send && user_recv) {
        missing.push("a matched user send/receive");
    }
    if want.collective && !collective {
        missing.push("a collective operation");
    }
    if !missing.is_empty() {
        diags.push(lint(
            "lint.pattern-not-exercised",
            Severity::Error,
            format!(
                "{} is tagged {:?} but its run never performed {}",
                p.id,
                p.pattern,
                missing.join(" or "),
            ),
        ));
    }
}

fn lint_one(p: &'static Patternlet, diags: &mut Vec<Diagnostic>) {
    match p.paradigm {
        Paradigm::SharedMemory => {
            let detector = Arc::new(RaceDetector::new());
            let out = pdc_shmem::hooks::observe(detector.clone(), || p.run(2));
            let (evidence, races) = detector.report();
            if out.lines.is_empty() {
                diags.push(lint(
                    "lint.no-output",
                    Severity::Error,
                    format!("{} produced no output at n=2", p.id),
                ));
            }
            check_sm_evidence(p, &evidence, diags);
            if p.id == "sm.race" {
                if races.is_empty() {
                    diags.push(lint(
                        "lint.race-undetected",
                        Severity::Error,
                        format!(
                            "{} is the known-racy patternlet but the race detector \
                             found nothing",
                            p.id,
                        ),
                    ));
                }
            } else if let Some(first) = races.first() {
                diags.push(lint(
                    "lint.clean-flagged",
                    Severity::Error,
                    format!(
                        "{} should be race-free but was flagged: {}",
                        p.id, first.message,
                    ),
                ));
            }
        }
        Paradigm::MessagePassing => {
            let (out, runs, comm_diags) = crate::with_comm_records(|| p.run(2));
            if out.lines.is_empty() {
                diags.push(lint(
                    "lint.no-output",
                    Severity::Error,
                    format!("{} produced no output at n=2", p.id),
                ));
            }
            check_mp_evidence(p, &runs, diags);
            if p.id == "mp.deadlock" {
                if !comm_diags.iter().any(|d| d.code == "comm.deadlock-cycle") {
                    diags.push(lint(
                        "lint.deadlock-undetected",
                        Severity::Error,
                        format!(
                            "{} is the known-deadlocking patternlet but no wait-for \
                             cycle was found",
                            p.id,
                        ),
                    ));
                }
            } else if let Some(first) = comm_diags.first() {
                diags.push(lint(
                    "lint.clean-flagged",
                    Severity::Error,
                    format!(
                        "{} should analyze clean but was flagged: {}",
                        p.id, first.message,
                    ),
                ));
            }
        }
    }
}

fn structural_lints(diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for p in registry::all() {
        if !seen.insert(p.id) {
            diags.push(lint(
                "lint.duplicate-id",
                Severity::Error,
                format!("patternlet id {} appears more than once", p.id),
            ));
        }
        let want_prefix = match p.paradigm {
            Paradigm::SharedMemory => "sm.",
            Paradigm::MessagePassing => "mp.",
        };
        if !p.id.starts_with(want_prefix) {
            diags.push(lint(
                "lint.bad-id-prefix",
                Severity::Error,
                format!(
                    "{} is {:?} but lacks the {want_prefix} prefix",
                    p.id, p.paradigm
                ),
            ));
        }
        for (field, value) in [
            ("name", p.name),
            ("teaches", p.teaches),
            ("source", p.source),
        ] {
            if value.trim().is_empty() {
                diags.push(lint(
                    "lint.empty-field",
                    Severity::Error,
                    format!("{} has an empty `{field}`", p.id),
                ));
            }
        }
        match registry::find(p.id) {
            Some(found) if std::ptr::eq(found, p) => {}
            _ => diags.push(lint(
                "lint.find-mismatch",
                Severity::Error,
                format!(
                    "registry::find({:?}) does not resolve to the catalog entry",
                    p.id
                ),
            )),
        }
    }
}

/// Lint the whole patternlet catalog: structure plus behaviour. Runs
/// every patternlet once at n=2 under the matching detector.
pub fn lint_catalog() -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    structural_lints(&mut diags);
    for p in registry::all() {
        lint_one(p, &mut diags);
    }
    canonicalize(diags)
}

/// Lint one courseware module: every code listing and ActiveCode block
/// that claims to be backed by a patternlet must resolve in the registry.
/// Purely structural: runs no code.
pub fn lint_module(module: &Module) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut check = |where_: String, id: &str| {
        if registry::find(id).is_none() {
            diags.push(lint(
                "lint.unknown-patternlet",
                Severity::Error,
                format!("{where_} references unknown patternlet {id:?}"),
            ));
        }
    };
    for chapter in &module.chapters {
        for section in &chapter.sections {
            for block in &section.blocks {
                match block {
                    Block::Code {
                        patternlet_id: Some(id),
                        ..
                    } => check(format!("{} §{}", module.title, section.number), id),
                    Block::ActiveCode(ac) => check(
                        format!("{} §{}", module.title, section.number),
                        &ac.patternlet_id,
                    ),
                    _ => {}
                }
            }
        }
    }
    canonicalize(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_lint_flags_unknown_ids() {
        use pdc_courseware::module::{Chapter, Section};
        let module = Module {
            title: "T".into(),
            duration_min: 1,
            chapters: vec![Chapter {
                number: 1,
                title: "C".into(),
                sections: vec![Section {
                    number: "1.1".into(),
                    title: "S".into(),
                    blocks: vec![
                        Block::Code {
                            language: "c".into(),
                            listing: "x".into(),
                            patternlet_id: Some("sm.race".into()),
                        },
                        Block::Code {
                            language: "c".into(),
                            listing: "x".into(),
                            patternlet_id: Some("sm.nonsense".into()),
                        },
                    ],
                }],
            }],
        };
        let diags = lint_module(&module);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("sm.nonsense"));
    }

    #[test]
    fn expectations_cover_every_catalog_entry() {
        // Smoke: the table must not panic and known-special ids get
        // their overrides.
        for p in registry::all() {
            let _ = expectations(p);
        }
        assert!(!expectations(registry::find("sm.private").unwrap()).acquire);
        assert!(expectations(registry::find("sm.atomic").unwrap()).atomic);
        assert!(!expectations(registry::find("mp.loop.equal").unwrap()).send_recv);
    }
}
