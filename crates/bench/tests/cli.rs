//! `repro` command-line checks that run before any simulation: a bad
//! flag or an unknown command is rejected before the binary calibrates,
//! synthesises kernels or touches a journal.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_shard_flags_fail_before_any_campaign_starts() {
    for (flag, message) in [
        (
            "--shard-retries",
            "repro: argument parsing failed: --shard-retries wants a count, got 'x'",
        ),
        (
            "--straggler-ms",
            "repro: argument parsing failed: --straggler-ms wants milliseconds, got 'x'",
        ),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "nfp_cli_{}_{}",
            flag.trim_start_matches('-'),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal: PathBuf = dir.join("campaign.jsonl");
        let out = repro(&[
            "campaign",
            "--quick",
            "--kernel",
            "fse",
            "--shards",
            "2",
            "--journal",
            journal.to_str().expect("utf-8 temp path"),
            flag,
            "x",
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(err.contains(message), "{flag}: {err}");
        assert!(!err.contains("injecting"), "{flag}: {err}");
        let left: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").collect();
        assert!(left.is_empty(), "{flag} left files behind: {left:?}");
        std::fs::remove_dir_all(&dir).expect("temp dir");
    }
}

#[test]
fn unknown_command_is_rejected_before_calibration() {
    let out = repro(&["bogus"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(
            "unknown command `bogus`; expected table1|fig4|table3|table4|fig1|\
             ablation-categories|ablation-calibration|cache|campaign|merge-journals|serve|\
             submit|all"
        ),
        "{err}"
    );
    assert!(!err.contains("calibrating"), "{err}");
    assert!(out.stdout.is_empty());
}
