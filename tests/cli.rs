//! The `devil` command line: one parser for every subcommand, usage
//! errors with status 2, and flag values it cannot hold rejected.

use std::process::Command;

/// Run `devil` with `args` and return its exit code and stderr.
fn devil(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_devil")).args(args).output().expect("devil runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Run a one-submission `devil selftest` with `flag`.
fn selftest_with(flag: &str) -> (Option<i32>, String) {
    devil(&["selftest", "--total=1", "--threads=1", flag])
}

#[test]
fn flags_past_u32_are_rejected_not_truncated() {
    // 2^32 + 1 would truncate to 1: a 1 ms deadline, a 1-strike limit.
    for flag in ["--deadline-ms", "--quarantine-limit"] {
        let (code, stderr) = selftest_with(&format!("{flag}=4294967297"));
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains("4294967297"), "{flag}: {stderr}");
        let (code, stderr) = selftest_with(&format!("{flag}=4294967295"));
        assert_eq!(code, Some(0), "{flag} at u32::MAX must be accepted: {stderr}");
    }
}

#[test]
fn a_missing_or_unknown_subcommand_lists_the_subcommands() {
    for (args, named) in [(&[][..], "no subcommand"), (&["tabel3"][..], "`tabel3`")] {
        let (code, stderr) = devil(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        for sub in ["table1", "fig4", "repro", "serve", "drain", "selftest"] {
            assert!(stderr.contains(sub), "{args:?} lists `{sub}`: {stderr}");
        }
    }
}

#[test]
fn subcommands_without_flags_reject_a_stray_one() {
    for sub in ["table1", "fig2"] {
        let (code, stderr) = devil(&[sub, "--bogus"]);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert!(stderr.contains("--bogus"), "{sub}: {stderr}");
    }
}

#[test]
fn service_flags_share_the_campaign_syntax() {
    let (code, stderr) = selftest_with("--seed=0x2A");
    assert_eq!(code, Some(0), "a hex seed is a seed everywhere: {stderr}");
    // Positive and finite, but past what a `Duration` holds.
    let (code, stderr) = selftest_with("--report-every=1e300");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--report-every"), "{stderr}");
}

#[test]
fn a_doubled_faults_suffix_is_a_usage_error() {
    let mix = "--mix=ide-boot+faults+faults";
    let (code, stderr) = devil(&["selftest", "--total=2", "--threads=1", mix]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--mix") && stderr.contains("`ide-boot+faults+faults`"),
        "{stderr}"
    );
}
