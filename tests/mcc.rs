//! The `mcc` driver end to end, as a user runs it.

use std::process::Command;

/// `--trace` is a debugging aid, so it must survive the runtime error
/// it is most useful for: the lines retired before the trap come out
/// ahead of the error, and the exit code still reports the failure.
#[test]
fn trace_is_printed_when_the_program_traps() {
    let path = std::env::temp_dir().join(format!("mcc_trap_{}.s", std::process::id()));
    std::fs::write(
        &path,
        "or %g0, 5, %o0\nadd %o0, 1, %o1\nunimp 0\nta %g0 + 0\nnop\n",
    )
    .expect("write program");
    let out = Command::new(env!("CARGO_BIN_EXE_mcc"))
        .arg(&path)
        .args(["--asm", "--run", "--trace", "4"])
        .output()
        .expect("run mcc");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("-- trace (first 2 of 2) --"), "{stdout}");
    assert!(stdout.contains("40000000  or %g0, 5, %o0"), "{stdout}");
    assert!(stdout.contains("40000004  add %o0, 1, %o1"), "{stdout}");
    assert!(
        stderr.contains(
            "mcc: runtime error: unhandled trap: illegal instruction 0x00000000 at 0x40000008"
        ),
        "{stderr}"
    );
}
