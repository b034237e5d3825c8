//! Crash-safety differential for the outcome ledger: a campaign killed
//! with `SIGKILL` mid-flight and then resumed must produce exactly the
//! outcome vector of an uninterrupted run.
//!
//! The parent test re-executes this same test binary as a child process
//! (the `ledger_resume_child` helper, gated on an env var and `#[ignore]`d
//! so it never runs on its own), throttled so the campaign takes a while,
//! waits for the ledger file to accumulate a few records, and `kill -9`s
//! it — the one failure mode no `Drop` impl or atexit hook can soften.
//! Whatever half-written record the kill tore off, `Ledger::resume` must
//! truncate it away, replay the survivors as hits, and let the resumed
//! campaign classify only the rest.

use devil::drivers::corpus::{find_variant, spec_revision};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::scenario::{Outcome, ScenarioMachine};
use devil::mutagen::{sample, source_fingerprint, Campaign, Ledger, LedgerKey, Mutant};
use std::time::{Duration, Instant};

const CHILD_ENV: &str = "DEVIL_LEDGER_RESUME_CHILD";
const THROTTLE_ENV: &str = "DEVIL_LEDGER_RESUME_THROTTLE_MS";

/// The shared campaign both lives run: a 5% sample of busmouse mutants
/// under `mouse-stream`, checkpointed through `ledger`. `throttle` slows
/// each classification down so the parent can reliably kill the child
/// mid-campaign.
fn run_campaign(ledger: &Ledger, throttle: Option<Duration>) -> Vec<Outcome> {
    let v = find_variant("mouse-stream", "busmouse_c").expect("catalog variant");
    let mutants = sample(v.mutants(), 0.05, 42);
    let rev = ledger.spec_rev();
    let file = v.file;
    Campaign::new(
        || {
            ScenarioMachine::with_scenario(
                devil::drivers::corpus::build_scenario("mouse-stream")
                    .expect("catalog scenario"),
                DEFAULT_FUEL,
            )
        },
        move |machine: &mut ScenarioMachine<_>, m: &Mutant| {
            if let Some(d) = throttle {
                std::thread::sleep(d);
            }
            machine.run(file, &m.source, &[], Some(m.line)).0
        },
    )
    .with_threads(2)
    .run_memoized(
        &mutants,
        ledger,
        |m| LedgerKey {
            file: file.to_string(),
            source: source_fingerprint(&m.source),
            scenario: "mouse-stream".to_string(),
            plan: String::new(),
            plan_seed: 0,
            dead_line: m.line,
            spec_rev: rev,
        },
        |o| o.is_deterministic().then(|| (o.code(), String::new())),
        |code, _| Outcome::from_code(code),
    )
}

/// The child half: runs the throttled campaign against the ledger named
/// by the env var, then exits. Never runs in a normal `cargo test`
/// sweep — it is `#[ignore]`d and a no-op without the env var.
#[test]
#[ignore = "re-executed as a child process by kill_nine_then_resume_is_bit_identical"]
fn ledger_resume_child() {
    let Ok(path) = std::env::var(CHILD_ENV) else { return };
    let throttle_ms: u64 = std::env::var(THROTTLE_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let rev = spec_revision(DEFAULT_FUEL);
    let ledger = Ledger::resume(&path, rev).expect("child opens the ledger");
    run_campaign(&ledger, Some(Duration::from_millis(throttle_ms)));
}

#[test]
fn kill_nine_then_resume_is_bit_identical() {
    let path = std::env::temp_dir()
        .join(format!("devil-ledger-resume-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let rev = spec_revision(DEFAULT_FUEL);

    // The golden vector: the same campaign, uninterrupted, no ledger.
    let golden_path = std::env::temp_dir()
        .join(format!("devil-ledger-resume-golden-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&golden_path);
    let golden_ledger = Ledger::create(&golden_path, rev).unwrap();
    let golden = run_campaign(&golden_ledger, None);
    let total = golden.len();
    drop(golden_ledger);
    std::fs::remove_file(&golden_path).unwrap();

    // Re-execute this test binary as the throttled child and let it make
    // some progress: wait until the ledger holds at least a few records.
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["ledger_resume_child", "--exact", "--ignored"])
        .env(CHILD_ENV, &path)
        .env(THROTTLE_ENV, "25")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if len > 200 {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("child finished before it could be killed: {status}");
        }
        assert!(Instant::now() < deadline, "child made no ledger progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    // SIGKILL: no destructors, no flushes — whatever byte the writer was
    // on, that is where the file ends.
    child.kill().expect("kill -9 the child");
    let _ = child.wait();

    // Resume: survivors replay as hits, the rest classify fresh, and the
    // result is the uninterrupted vector, bit for bit.
    let ledger = Ledger::resume(&path, rev).expect("resume after kill -9");
    let recovered = ledger.recovery().outcomes;
    assert!(
        recovered < total,
        "the kill must interrupt the campaign ({recovered}/{total} already done)"
    );
    let resumed = run_campaign(&ledger, None);
    assert_eq!(resumed, golden, "resumed campaign diverged from the golden run");
    let c = ledger.counters();
    assert!(c.hits > 0, "resume served no ledger hits");
    assert_eq!(
        c.hits + c.misses,
        total as u64,
        "every mutant is either a hit or a miss"
    );
    std::fs::remove_file(&path).unwrap();
}
