//! Integration: the `pdc-analyze` communication analyzer run offline,
//! over a `pdc-trace` JSONL capture, reaches the online verdict.
//!
//! Tracing is process-global, so this test has a binary of its own: no
//! other test runs a world while it captures.

use pdc_mpc::World;

#[test]
fn offline_jsonl_analysis_agrees_with_the_online_analyzer() {
    let (_, _records, online) = pdc_analyze::with_comm_records(|| {
        pdc_trace::reset();
        pdc_trace::enable();
        World::new(2).run(|comm| {
            comm.barrier().expect("barrier");
            if comm.rank() == 0 {
                // Sent but never received: visible to both paths.
                comm.send(1, 9, &42u64).expect("send");
            }
        });
        pdc_trace::disable();
    });
    let events = pdc_trace::drain();
    let jsonl = pdc_trace::export::jsonl(&events);
    let offline = pdc_analyze::comm::analyze_jsonl(&jsonl);

    let codes = |diags: &[pdc_analyze::Diagnostic]| {
        let mut v: Vec<String> = diags.iter().map(|d| d.code.clone()).collect();
        v.sort();
        v.dedup();
        v
    };
    assert_eq!(codes(&online), vec!["comm.unmatched-send".to_owned()]);
    assert_eq!(
        codes(&offline),
        codes(&online),
        "offline trace analysis must reach the online verdict"
    );
}
