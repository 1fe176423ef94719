//! Supervisor acceptance tests: a campaign killed mid-run and resumed
//! from its journal is indistinguishable from an uninterrupted one; a
//! panicking replay is retried then quarantined without aborting the
//! campaign or tearing the journal; and a genuinely spinning replay is
//! classified as a hang by the wall deadline.

use nfp_bench::{run_supervised, CampaignConfig, Mode, SupervisorConfig};
use nfp_core::{HarnessCause, NfpError, Outcome};
use nfp_workloads::{fse_kernels, Kernel, Preset};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

fn kernel() -> Kernel {
    fse_kernels(&Preset::quick())
        .expect("quick preset builds")
        .into_iter()
        .next()
        .expect("quick preset has FSE kernels")
}

fn campaign(injections: usize) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed: 0xfeed_5eed,
        ..CampaignConfig::default()
    }
}

/// Two workers keep the per-worker golden-run preparation cost down.
fn supervisor(campaign: CampaignConfig) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(campaign);
    cfg.workers = Some(2);
    cfg
}

fn tmp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nfp_supervisor_{name}_{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn kill_and_resume_yields_identical_report() {
    let k = kernel();
    let baseline = run_supervised(&k, Mode::Float, &supervisor(campaign(96))).unwrap();

    // "Kill" the campaign after 31 journal writes: the abort hook stops
    // the supervisor exactly as a SIGKILL with a valid journal on disk.
    let journal = tmp_journal("resume");
    let mut interrupted = supervisor(campaign(96));
    interrupted.journal = Some(journal.clone());
    interrupted.test_abort_after = Some(31);
    let aborted = run_supervised(&k, Mode::Float, &interrupted).unwrap();
    assert!(aborted.aborted);
    assert_eq!(aborted.completed, 31);
    assert!(aborted.result.records.len() == 31);

    // A real mid-write kill can also leave a torn trailing line; resume
    // must truncate it rather than reject the journal.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        write!(f, "{{\"i\":9999,\"at\":12").unwrap();
    }

    // The same journal with its header in the format written before
    // dispatch left the campaign identity (which still carries a
    // "dispatch" key) must resume identically.
    let parent = tmp_journal("resume_parent");
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&parent, with_parent_header(&text)).unwrap();

    for path in [journal, parent] {
        let mut resuming = supervisor(campaign(96));
        resuming.journal = Some(path.clone());
        resuming.resume = true;
        let resumed = run_supervised(&k, Mode::Float, &resuming).unwrap();
        assert_eq!(resumed.resumed, 31);
        assert_eq!(resumed.completed, 96);
        assert!(!resumed.aborted);

        // The merged result is byte-identical to the uninterrupted run.
        assert_eq!(resumed.result.records, baseline.result.records);
        assert_eq!(resumed.result.report, baseline.result.report);
        assert_eq!(
            resumed.result.report.render(),
            baseline.result.report.render()
        );
        assert_eq!(
            resumed.result.golden_instret,
            baseline.result.golden_instret
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Rewrites a journal's header into the format written while dispatch
/// was part of the campaign identity: the same fields plus a
/// `"dispatch"` key, here naming a mode that no longer exists.
fn with_parent_header(text: &str) -> String {
    text.replacen(
        "\"escalation\":",
        "\"dispatch\":\"block\",\"escalation\":",
        1,
    )
}

#[test]
fn panicking_replay_is_retried_then_quarantined() {
    let k = kernel();
    let baseline = run_supervised(&k, Mode::Float, &supervisor(campaign(48))).unwrap();

    // One forced panic: the worker rebuilds its rig, retries, and the
    // record classifies exactly as it would have without the panic.
    let mut once = supervisor(campaign(48));
    once.test_panic_at = Some((5, 1));
    let retried = run_supervised(&k, Mode::Float, &once).unwrap();
    assert!(retried.quarantined.is_empty());
    assert_eq!(retried.result.records, baseline.result.records);
    assert_eq!(retried.result.report, baseline.result.report);

    // Two forced panics: the injection is quarantined as HarnessFault
    // with its fault spec preserved; every other record is untouched
    // and the journal stays intact.
    let journal = tmp_journal("quarantine");
    let mut twice = supervisor(campaign(48));
    twice.journal = Some(journal.clone());
    twice.test_panic_at = Some((7, 2));
    let quarantined = run_supervised(&k, Mode::Float, &twice).unwrap();
    assert_eq!(quarantined.completed, 48);
    assert_eq!(quarantined.quarantined.len(), 1);
    assert_eq!(quarantined.quarantined[0].index, 7);
    assert!(quarantined.quarantined[0].detail.contains("forced panic"));
    assert_eq!(quarantined.quarantined[0].cause, HarnessCause::Panic);
    assert_eq!(quarantined.result.records[7].outcome, Outcome::HarnessFault);
    assert_eq!(
        quarantined.result.records[7].fault,
        baseline.result.records[7].fault
    );
    let totals = quarantined.result.outcome_totals();
    assert_eq!(totals.get(Outcome::HarnessFault), 1);
    for (i, (got, want)) in quarantined
        .result
        .records
        .iter()
        .zip(&baseline.result.records)
        .enumerate()
    {
        if i != 7 {
            assert_eq!(got, want, "record {i} diverged around the quarantine");
        }
    }

    // The journal survived the panics un-torn: a resume restores all 48
    // records (including the quarantined one) without replaying any.
    let mut restore = supervisor(campaign(48));
    restore.journal = Some(journal.clone());
    restore.resume = true;
    let restored = run_supervised(&k, Mode::Float, &restore).unwrap();
    assert_eq!(restored.resumed, 48);
    assert_eq!(restored.result.records, quarantined.result.records);
    assert_eq!(restored.result.report, quarantined.result.report);
    assert_eq!(restored.quarantined.len(), 1);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn thread_slots_never_charge_the_respawn_budget() {
    let k = kernel();
    let baseline = run_supervised(&k, Mode::Float, &supervisor(campaign(48))).unwrap();

    // A quarantined panic is no rig failure: a lone thread slot with no
    // respawn budget at all files the quarantine and finishes the plan.
    let mut lone = SupervisorConfig::new(campaign(48));
    lone.workers = Some(1);
    lone.max_respawns = 0;
    lone.test_panic_at = Some((5, 2));
    let out = run_supervised(&k, Mode::Float, &lone).unwrap();
    assert_eq!(out.completed, 48);
    assert_eq!(out.quarantined.len(), 1);
    assert_eq!(out.quarantined[0].index, 5);
    assert_eq!(out.quarantined[0].cause, HarnessCause::Panic);
    assert_eq!(out.result.records[5].outcome, Outcome::HarnessFault);
    for (i, (got, want)) in out
        .result
        .records
        .iter()
        .zip(&baseline.result.records)
        .enumerate()
    {
        if i != 5 {
            assert_eq!(got, want, "record {i} diverged around the quarantine");
        }
    }
}

#[test]
fn wall_deadline_classifies_spin_as_hang() {
    let k = kernel();
    let baseline = run_supervised(&k, Mode::Float, &supervisor(campaign(48))).unwrap();
    // The determinism comparison below needs a plan with no genuine
    // budget hangs (those records would legitimately classify the same
    // either way, but keeping them out makes the equality exact).
    assert_eq!(
        baseline.result.outcome_totals().get(Outcome::Hang),
        0,
        "pick a seed whose plan has no genuine hangs for this test"
    );

    // Unbounded escalation means the instruction budget can never
    // produce a Hang on its own — only the wall deadline can. The spin
    // hook patches a self-loop over injection 3's resume point, so that
    // replay *must* flow through the wall path.
    let mut spin = supervisor(CampaignConfig {
        wall: Some(Duration::from_millis(400)),
        escalation: u32::MAX,
        ..campaign(48)
    });
    spin.test_spin_at = Some(3);
    let spun = run_supervised(&k, Mode::Float, &spin).unwrap();
    assert_eq!(spun.result.records[3].outcome, Outcome::Hang);

    // Same-seed determinism of every other record is preserved.
    for (i, (got, want)) in spun
        .result
        .records
        .iter()
        .zip(&baseline.result.records)
        .enumerate()
    {
        if i != 3 {
            assert_eq!(got, want, "record {i} diverged under the wall deadline");
        }
    }
}

#[test]
fn torn_or_empty_header_line_yields_a_clean_journal_error() {
    let k = kernel();
    // A kill during the very first write can leave a journal whose
    // *header* line is torn (no trailing newline, truncated JSON), or
    // an empty file, or a header's worth of garbage. None of these may
    // panic; all must surface as a Journal error naming the path.
    let cases: [(&str, &[u8]); 4] = [
        ("empty", b""),
        ("torn_header", b"{\"v\":1,\"kind\":\"nfp-campaign-jou"),
        ("garbage_header", b"not json at all\n"),
        // A valid-looking but non-journal object is equally rejected.
        ("wrong_kind", b"{\"v\":1,\"kind\":\"something-else\"}\n"),
    ];
    for (name, bytes) in cases {
        let journal = tmp_journal(&format!("header_{name}"));
        std::fs::write(&journal, bytes).unwrap();
        let mut resuming = supervisor(campaign(16));
        resuming.journal = Some(journal.clone());
        resuming.resume = true;
        match run_supervised(&k, Mode::Float, &resuming) {
            Err(NfpError::Journal { path, reason }) => {
                assert!(
                    path.contains(&format!("header_{name}")),
                    "case {name}: error names path {path:?}"
                );
                assert!(!reason.is_empty(), "case {name}: empty reason");
            }
            Err(other) => panic!("case {name}: expected Journal error, got {other:?}"),
            Ok(_) => panic!("case {name}: resume must not succeed"),
        }
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn stale_journal_is_rejected_with_the_mismatching_field() {
    let k = kernel();
    let journal = tmp_journal("mismatch");
    let mut fresh = supervisor(campaign(32));
    fresh.journal = Some(journal.clone());
    run_supervised(&k, Mode::Float, &fresh).unwrap();

    let mut other_seed = supervisor(CampaignConfig {
        seed: 0x0dd_5eed,
        ..campaign(32)
    });
    other_seed.journal = Some(journal.clone());
    other_seed.resume = true;
    match run_supervised(&k, Mode::Float, &other_seed) {
        Err(NfpError::JournalMismatch { field, .. }) => assert_eq!(field, "seed"),
        Err(other) => panic!("expected JournalMismatch, got {other:?}"),
        Ok(_) => panic!("a stale journal must not resume"),
    }
    let _ = std::fs::remove_file(&journal);
}
