//! Chaos suite for sharded campaigns: shards are killed mid-run,
//! journals are truncated and bit-flipped, stragglers are speculated —
//! and in every recoverable scenario the merged report must come out
//! byte-identical to an undisturbed sequential same-seed run, while
//! every unrecoverable tamper must be rejected with a typed error.

use nfp_bench::{
    merge_journals, peek_campaign, run_sharded, run_supervised, shard_journal_path, CampaignConfig,
    CampaignResult, Mode, ShardConfig, SupervisorConfig,
};
use nfp_core::NfpError;
use nfp_sim::Dispatch;
use nfp_workloads::{fse_kernels, Kernel, Preset};
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

/// The undisturbed sequential run every chaos scenario must reproduce.
fn sequential(k: &Kernel, injections: usize) -> CampaignResult {
    let mut cfg = SupervisorConfig::new(campaign(injections));
    cfg.workers = Some(1);
    run_supervised(k, Mode::Float, &cfg).unwrap().result
}

fn tmp_base(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nfp_shards_{name}_{}.jsonl", std::process::id()))
}

/// A thread-isolation sharded config journaling under `name`'s base.
fn sharded(name: &str, injections: usize, shards: u32) -> (ShardConfig, PathBuf) {
    let mut sup = SupervisorConfig::new(campaign(injections));
    sup.workers = Some(1);
    let base = tmp_base(name);
    sup.journal = Some(base.clone());
    (ShardConfig::new(sup, shards), base)
}

/// Best-effort removal of every file a sharded run can leave behind.
fn scrub(base: &PathBuf, shards: u32) {
    let _ = std::fs::remove_file(base);
    for i in 0..shards {
        let canonical = shard_journal_path(base, i, shards);
        let mut quarantined = canonical.as_os_str().to_os_string();
        quarantined.push(".quarantined");
        let _ = std::fs::remove_file(&canonical);
        let _ = std::fs::remove_file(PathBuf::from(quarantined));
        let _ = std::fs::remove_file(base.with_extension(format!("shard{i}of{shards}.spec.jsonl")));
    }
}

fn assert_identical(got: &CampaignResult, want: &CampaignResult) {
    assert_eq!(got.records.len(), want.records.len());
    for (i, (g, w)) in got.records.iter().zip(&want.records).enumerate() {
        assert_eq!(g, w, "record {i} diverged from the sequential run");
    }
    assert_eq!(got.golden_instret, want.golden_instret);
    assert_eq!(got.report, want.report);
    assert_eq!(got.report.render(), want.report.render());
}

/// Rewrites one journal in place through `tamper`, which receives the
/// file's full text and returns the replacement.
fn rewrite(path: &PathBuf, tamper: impl FnOnce(String) -> String) {
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::write(path, tamper(text)).unwrap();
}

/// Changes the first digit after `key` in the first line only — the
/// minimal header tamper: still parseable, different value.
fn tweak_header_number(text: String, key: &str) -> String {
    let eol = text.find('\n').unwrap();
    let at = text[..eol].find(key).expect("header field present") + key.len();
    let mut bytes = text.into_bytes();
    assert!(bytes[at].is_ascii_digit());
    bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
    String::from_utf8(bytes).unwrap()
}

#[test]
fn four_shard_merge_is_byte_identical_to_sequential() {
    let k = kernel();
    let baseline = sequential(&k, 24);
    let (cfg, base) = sharded("clean", 24, 4);
    scrub(&base, 4);

    let outcome = run_sharded(&k, Mode::Float, &cfg).unwrap();
    assert_eq!(outcome.shards, 4);
    assert_eq!(outcome.shard_retries, 0);
    assert_eq!(outcome.speculated, 0);
    assert!(outcome.missing_ranges.is_empty());
    assert_identical(&outcome.result, &baseline);

    // Every shard journal ends with its summary record.
    for i in 0..4 {
        let text = std::fs::read_to_string(shard_journal_path(&base, i, 4)).unwrap();
        assert!(
            text.lines().last().unwrap().starts_with("{\"fin\":1,"),
            "shard {i} lacks a summary record"
        );
    }

    // The journal set merges offline too, recovered via peek_campaign —
    // also once every header is rewritten into the format written while
    // dispatch was part of the campaign identity, with a "dispatch" key
    // naming a mode that no longer exists.
    let paths: Vec<PathBuf> = (0..4).map(|i| shard_journal_path(&base, i, 4)).collect();
    for parent_format in [false, true] {
        if parent_format {
            for path in &paths {
                rewrite(path, |text| {
                    text.replacen(
                        "\"escalation\":",
                        "\"dispatch\":\"block\",\"escalation\":",
                        1,
                    )
                });
            }
        }
        let (name, mode, peeked) = peek_campaign(&paths[0]).unwrap();
        assert_eq!(name, k.name);
        assert_eq!(mode, Mode::Float);
        assert_eq!(peeked.injections, 24);
        assert_eq!(peeked.seed, 0xfeed_5eed);
        let merged = merge_journals(&k, mode, &peeked, &paths, false).unwrap();
        assert_identical(&merged.result, &baseline);
    }
    scrub(&base, 4);
}

#[test]
fn killed_shard_is_redispatched_and_merges_identically() {
    let k = kernel();
    let baseline = sequential(&k, 24);
    let (mut cfg, base) = sharded("killed", 24, 4);
    scrub(&base, 4);

    // Shard 1's first attempt dies (as if SIGKILLed) after writing 3 of
    // its 6 records; the re-dispatch resumes the journal and finishes.
    cfg.test_abort_shard = Some((1, 3, 1));
    let outcome = run_sharded(&k, Mode::Float, &cfg).unwrap();
    assert!(outcome.shard_retries >= 1, "the kill burned no retry");
    assert!(outcome.missing_ranges.is_empty());
    assert_identical(&outcome.result, &baseline);
    scrub(&base, 4);
}

#[test]
fn truncated_journal_tail_is_repaired_on_rerun() {
    let k = kernel();
    let baseline = sequential(&k, 24);
    let (cfg, base) = sharded("truncated", 24, 4);
    scrub(&base, 4);
    run_sharded(&k, Mode::Float, &cfg).unwrap();

    // Tear shard 2's journal mid-write: drop the summary and one whole
    // record, and leave the record before that cut mid-line.
    let path = shard_journal_path(&base, 2, 4);
    rewrite(&path, |text| {
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        lines.pop(); // the fin record
        lines.pop(); // a whole record
        let torn = lines.pop().unwrap(); // a record torn mid-line
        let mut out: String = lines.concat();
        out.push_str(&torn[..torn.len() / 2]);
        out
    });

    // Re-running the orchestrator resumes the intact prefix, replays
    // the lost tail, re-appends the summary, and merges clean.
    let outcome = run_sharded(&k, Mode::Float, &cfg).unwrap();
    assert_identical(&outcome.result, &baseline);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().last().unwrap().starts_with("{\"fin\":1,"));
    scrub(&base, 4);
}

#[test]
fn bit_flipped_record_is_quarantined_and_redispatched() {
    let k = kernel();
    let baseline = sequential(&k, 24);
    let (cfg, base) = sharded("bitflip", 24, 4);
    scrub(&base, 4);
    run_sharded(&k, Mode::Float, &cfg).unwrap();

    // Flip one digit of a record's stored CRC in shard 3's journal.
    let path = shard_journal_path(&base, 3, 4);
    rewrite(&path, |text| {
        let line_start = text.match_indices('\n').nth(1).unwrap().0 + 1;
        let at = text[line_start..].find("\"crc\":").unwrap() + line_start + "\"crc\":".len();
        let mut bytes = text.into_bytes();
        assert!(bytes[at].is_ascii_digit());
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        String::from_utf8(bytes).unwrap()
    });

    // The resume attempt trips the CRC, the journal is quarantined as
    // evidence, and a fresh attempt rebuilds the shard from scratch.
    let outcome = run_sharded(&k, Mode::Float, &cfg).unwrap();
    assert!(outcome.shard_retries >= 1, "corruption burned no retry");
    assert_identical(&outcome.result, &baseline);
    let mut quarantined = path.as_os_str().to_os_string();
    quarantined.push(".quarantined");
    assert!(
        PathBuf::from(quarantined).exists(),
        "corrupt journal was not kept as evidence"
    );
    scrub(&base, 4);
}

#[test]
fn straggling_shard_is_speculated_and_first_valid_result_wins() {
    let k = kernel();
    let baseline = sequential(&k, 24);
    let (mut cfg, base) = sharded("straggler", 24, 2);
    scrub(&base, 2);

    // Shard 0's first attempt stalls well past the straggler deadline;
    // the speculative duplicate finishes first and wins. Determinism
    // makes the race unobservable in the merged result.
    cfg.test_stall_shard = Some((0, Duration::from_millis(1500)));
    cfg.straggler = Some(Duration::from_millis(150));
    let outcome = run_sharded(&k, Mode::Float, &cfg).unwrap();
    assert!(outcome.speculated >= 1, "no speculation happened");
    assert!(outcome.missing_ranges.is_empty());
    assert_identical(&outcome.result, &baseline);

    // Each settled shard leaves one journal, the winner's, at its
    // canonical path, and the set merges to the same report.
    let paths: Vec<PathBuf> = (0..2).map(|i| shard_journal_path(&base, i, 2)).collect();
    let merged = merge_journals(&k, Mode::Float, &campaign(24), &paths, false).unwrap();
    assert_identical(&merged.result, &baseline);
    for i in 0..2 {
        let spec = base.with_extension(format!("shard{i}of2.spec.jsonl"));
        assert!(!spec.exists(), "{} left behind", spec.display());
    }
    scrub(&base, 2);
}

#[test]
fn exhausted_shard_fails_the_campaign_or_degrades_under_allow_partial() {
    let k = kernel();
    let (mut cfg, base) = sharded("lost", 24, 4);
    scrub(&base, 4);

    // Every attempt of shard 2 dies after writing a single record —
    // with a 6-record range and a budget of one retry, the shard can
    // never finish.
    cfg.test_abort_shard = Some((2, 1, u32::MAX));
    cfg.shard_retries = 1;
    let err = run_sharded(&k, Mode::Float, &cfg).unwrap_err();
    match err {
        NfpError::ShardLost {
            shard, start, end, ..
        } => {
            assert_eq!(shard, 2);
            assert_eq!((start, end), (12, 18));
        }
        other => panic!("expected ShardLost, got {other}"),
    }

    // Same chaos under --allow-partial: the report degrades to an
    // explicit missing range instead of failing.
    scrub(&base, 4);
    cfg.allow_partial = true;
    let outcome = run_sharded(&k, Mode::Float, &cfg).unwrap();
    assert_eq!(outcome.missing_ranges, vec![(12, 18)]);
    assert_eq!(outcome.result.records.len(), 18);
    let baseline = sequential(&k, 24);
    for (g, w) in outcome.result.records.iter().zip(
        baseline
            .records
            .iter()
            .enumerate()
            .filter(|(i, _)| !(12..18).contains(i))
            .map(|(_, r)| r),
    ) {
        assert_eq!(g, w, "surviving records must still match the baseline");
    }
    scrub(&base, 4);
}

#[test]
fn dispatch_modes_produce_byte_identical_sharded_reports() {
    // The dispatch differential contract at full campaign scale: a
    // sharded campaign executed under either dispatch mode must merge
    // to a report byte-identical to an undisturbed sequential same-seed
    // run under per-instruction stepping. Superblock traces in
    // particular must not perturb a single injection outcome even when
    // flips land mid-trace.
    let k = kernel();
    let mut c = campaign(24);
    c.dispatch = Dispatch::Step;
    let mut seq = SupervisorConfig::new(c);
    seq.workers = Some(1);
    let step = run_supervised(&k, Mode::Float, &seq).unwrap().result;

    for dispatch in Dispatch::ALL {
        let (mut cfg, base) = sharded(&format!("dispatch_{dispatch}"), 24, 4);
        cfg.supervisor.campaign.dispatch = dispatch;
        scrub(&base, 4);
        let outcome = run_sharded(&k, Mode::Float, &cfg).unwrap();
        assert!(outcome.missing_ranges.is_empty(), "{dispatch}");
        assert_identical(&outcome.result, &step);

        // Dispatch is outside the campaign identity: the shard journals
        // do not record it, and merge offline under traced dispatch to
        // the same report.
        let paths: Vec<PathBuf> = (0..4).map(|i| shard_journal_path(&base, i, 4)).collect();
        let (_, mode, peeked) = peek_campaign(&paths[0]).unwrap();
        assert_eq!(peeked.dispatch, Dispatch::Traced);
        let merged = merge_journals(&k, mode, &peeked, &paths, false).unwrap();
        assert_identical(&merged.result, &step);
        scrub(&base, 4);
    }
}

// ---------------------------------------------------------------------
// Merge-time rejection: every tamper is a typed error, never a panic.
// ---------------------------------------------------------------------

/// Runs a clean 24-injection, 4-shard campaign and returns its journal
/// paths for tamper tests.
fn clean_journals(name: &str) -> (Kernel, PathBuf, Vec<PathBuf>) {
    let k = kernel();
    let (cfg, base) = sharded(name, 24, 4);
    scrub(&base, 4);
    run_sharded(&k, Mode::Float, &cfg).unwrap();
    let paths = (0..4).map(|i| shard_journal_path(&base, i, 4)).collect();
    (k, base, paths)
}

#[test]
fn merge_rejects_binding_mismatch_with_the_field_named() {
    let (k, base, paths) = clean_journals("bind");
    let pristine = std::fs::read_to_string(&paths[1]).unwrap();

    // A tampered campaign binding (the seed) names the field.
    rewrite(&paths[1], |t| tweak_header_number(t, "\"seed\":"));
    match merge_journals(&k, Mode::Float, &campaign(24), &paths, false) {
        Err(NfpError::JournalMismatch { field, .. }) => assert_eq!(field, "seed"),
        other => panic!("expected JournalMismatch, got {other:?}"),
    }

    // A tampered shard range binding likewise: the expected range is
    // recomputed from the claimed shard identity, not trusted.
    std::fs::write(&paths[1], &pristine).unwrap();
    rewrite(&paths[1], |t| tweak_header_number(t, "\"range_end\":"));
    match merge_journals(&k, Mode::Float, &campaign(24), &paths, false) {
        Err(NfpError::JournalMismatch { field, .. }) => assert_eq!(field, "range_end"),
        other => panic!("expected JournalMismatch, got {other:?}"),
    }
    scrub(&base, 4);
}

#[test]
fn merge_rejects_a_crc_failure() {
    let (k, base, paths) = clean_journals("crc");
    rewrite(&paths[2], |text| {
        // Flip a digit inside the stored outcome of the first record.
        let line_start = text.match_indices('\n').next().unwrap().0 + 1;
        let at = text[line_start..].find("\"at\":").unwrap() + line_start + "\"at\":".len();
        let mut bytes = text.into_bytes();
        assert!(bytes[at].is_ascii_digit());
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        String::from_utf8(bytes).unwrap()
    });
    match merge_journals(&k, Mode::Float, &campaign(24), &paths, false) {
        Err(NfpError::ShardMerge { reason, .. }) => {
            assert!(reason.contains("corrupt record"), "reason: {reason}");
        }
        other => panic!("expected ShardMerge, got {other:?}"),
    }
    scrub(&base, 4);
}

#[test]
fn merge_rejects_a_range_gap_unless_partial() {
    let (k, base, paths) = clean_journals("gap");
    let holey: Vec<PathBuf> = paths.iter().filter(|p| *p != &paths[2]).cloned().collect();
    match merge_journals(&k, Mode::Float, &campaign(24), &holey, false) {
        Err(NfpError::ShardMerge { path, reason }) => {
            assert_eq!(path, "(journal set)");
            assert!(reason.contains("range gap"), "reason: {reason}");
            assert!(reason.contains("12..18"), "reason: {reason}");
        }
        other => panic!("expected ShardMerge, got {other:?}"),
    }

    // --allow-partial degrades the same set to explicit missing ranges.
    let partial = merge_journals(&k, Mode::Float, &campaign(24), &holey, true).unwrap();
    assert_eq!(partial.missing_ranges, vec![(12, 18)]);
    assert_eq!(partial.result.records.len(), 18);
    scrub(&base, 4);
}

#[test]
fn merge_rejects_a_duplicate_shard() {
    let (k, base, mut paths) = clean_journals("dupshard");
    paths.push(paths[1].clone());
    match merge_journals(&k, Mode::Float, &campaign(24), &paths, false) {
        Err(NfpError::ShardMerge { reason, .. }) => {
            assert!(reason.contains("duplicate shard 1"), "reason: {reason}");
        }
        other => panic!("expected ShardMerge, got {other:?}"),
    }
    scrub(&base, 4);
}

#[test]
fn merge_rejects_a_duplicate_record() {
    let (k, base, paths) = clean_journals("duprec");
    rewrite(&paths[0], |text| {
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let copy = lines[1];
        lines.insert(2, copy);
        lines.concat()
    });
    match merge_journals(&k, Mode::Float, &campaign(24), &paths, false) {
        Err(NfpError::ShardMerge { reason, .. }) => {
            assert!(reason.contains("duplicate record"), "reason: {reason}");
        }
        other => panic!("expected ShardMerge, got {other:?}"),
    }
    scrub(&base, 4);
}

#[test]
fn merge_rejects_a_missing_shard_summary_unless_partial() {
    let (k, base, paths) = clean_journals("nofin");
    rewrite(&paths[3], |text| {
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        lines.pop(); // the fin record
        lines.concat()
    });
    match merge_journals(&k, Mode::Float, &campaign(24), &paths, false) {
        Err(NfpError::ShardMerge { reason, .. }) => {
            assert!(reason.contains("shard summary"), "reason: {reason}");
        }
        other => panic!("expected ShardMerge, got {other:?}"),
    }

    // All records are actually present, so a partial merge is whole.
    let merged = merge_journals(&k, Mode::Float, &campaign(24), &paths, true).unwrap();
    assert!(merged.missing_ranges.is_empty());
    assert_eq!(merged.result.records.len(), 24);
    scrub(&base, 4);
}

#[test]
fn orchestrator_rejects_misconfiguration() {
    let k = kernel();
    let mut sup = SupervisorConfig::new(campaign(8));
    sup.workers = Some(1);
    let no_journal = ShardConfig::new(sup.clone(), 2);
    assert!(matches!(
        run_sharded(&k, Mode::Float, &no_journal),
        Err(NfpError::Journal { .. })
    ));

    sup.journal = Some(tmp_base("misconfig"));
    let zero_shards = ShardConfig::new(sup, 0);
    assert!(matches!(
        run_sharded(&k, Mode::Float, &zero_shards),
        Err(NfpError::Workload { .. })
    ));
}
