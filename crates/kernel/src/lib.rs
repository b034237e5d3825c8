//! # devil-kernel — the simulated kernel and its workload scenarios
//!
//! The paper runs every surviving mutant inside a Linux kernel under a
//! *driver-specific activity* — booting from the mutated disk driver,
//! streaming mouse events through the mutated busmouse driver — and
//! observes the outcome (§4.2). This crate reproduces that experiment
//! deterministically and generalises it into a **multi-scenario workload
//! engine**:
//!
//! * [`kapi::MachineHost`] exposes a simulated machine ([`devil_hwsim`]) to
//!   interpreted driver code as the kernel I/O environment;
//! * [`fs`] implements **DevilFS**, a tiny checksummed filesystem living on
//!   the simulated IDE disk, with `mkfs` and a ground-truth `fsck`;
//! * [`scenario`] is the engine: a [`scenario::Scenario`] describes one
//!   activity (build machine → drive workload → inspect ground truth), a
//!   [`scenario::ScenarioMachine`] snapshot-restores that machine per
//!   mutant, and every run executes on the minic bytecode VM with the
//!   tree-walking interpreter as its differential oracle. Every run
//!   classifies into one outcome taxonomy ([`scenario::Outcome`]):
//!   run-time check, dead code, boot, crash, infinite loop, halt, damaged
//!   boot (§4.2's cases 1–7), and the compile-time check of Table 3/4's
//!   first row;
//! * [`scenarios`] holds the bundled activities: the paper's IDE boot
//!   (probe → mount → integrity → write test → fsck), an IDE read/write
//!   stress, a busmouse event stream, and an NE2000 packet TX/RX stress
//!   across the receive-ring wrap;
//! * [`boot`] holds the standard experiment machine the IDE scenarios
//!   build and the default fuel of one run.
//!
//! ## Adding a scenario
//!
//! Implement [`scenario::Scenario`] (see its module docs for a worked
//! example and `devil_hwsim::snap` for the snapshot-lifecycle contract:
//! *all* setup in `build`, per-run injections in `drive`, never remap
//! devices), pair it with a driver in `devil_drivers::corpus`, and give it
//! a golden differential outcome file under `tests/golden/` — run
//! `DEVIL_BLESS=1 cargo test --release --test scenario_differential` once
//! to create it, after eyeballing that the printed outcome distribution
//! makes sense. From then on the scenario is runnable from the campaign
//! CLIs (`cargo run --release --example mutation_campaign --
//! --scenario=<name>`, and `devil table3`/`devil table4`), covered by the
//! VM-vs-interpreter differential tests, and benchable via `cargo bench
//! --bench scenarios`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod fs;
pub mod kapi;
pub mod scenario;
pub mod scenarios;

pub use fs::{fsck, mkfs, FsckReport, SECTORS_PER_FILE};
pub use kapi::MachineHost;
pub use scenario::{
    Detail, FaultScenario, Outcome, Scenario, ScenarioEngine, ScenarioMachine, ScenarioReport,
};
