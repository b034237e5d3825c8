//! The `devil-serve` command line rejects flag values it cannot hold.

use std::process::Command;

/// Run `devil-serve selftest` with `flag` and return its exit code and
/// stderr.
fn selftest_with(flag: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_devil-serve"))
        .args(["selftest", "--total=1", "--threads=1", flag])
        .output()
        .expect("devil-serve runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn flags_past_u32_are_rejected_not_truncated() {
    // 2^32 + 1 would truncate to 1: a 1 ms deadline, a 1-strike limit.
    for flag in ["--deadline-ms", "--quarantine-limit"] {
        let (code, stderr) = selftest_with(&format!("{flag}=4294967297"));
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("4294967297"),
            "{flag}: {stderr}"
        );
        let (code, stderr) = selftest_with(&format!("{flag}=4294967295"));
        assert_eq!(
            code,
            Some(0),
            "{flag} at u32::MAX must be accepted: {stderr}"
        );
    }
}
