//! The standard experiment machine of the paper's §4.2 boot: an IDE
//! controller at [`IDE_BASE`] whose disk holds a DevilFS image, and the
//! fuel one run gets.
//!
//! The boot itself (probe, mount, integrity, write test, ground-truth
//! fsck) is the `ide-boot` scenario,
//! [`IdeBootScenario`](crate::scenarios::IdeBootScenario), which builds
//! this machine. Run it like any scenario: through a
//! [`ScenarioMachine`](crate::scenario::ScenarioMachine), with
//! [`run_mutant_in`](crate::scenario::run_mutant_in), or by calling the
//! scenario's `build` and then
//! [`run_compiled`](crate::scenario::run_compiled) or
//! [`run_interp`](crate::scenario::run_interp) on the machine it built.

use crate::fs::{self, FsFile};
use devil_hwsim::devices::{IdeController, IdeDisk};
use devil_hwsim::{DeviceId, IoSpace};

/// Default fuel for one run of a driver.
///
/// Fuel is deterministic, so the least budget that still gives a clean
/// catalog driver its full-fuel outcome is exact:
///
/// | scenario        | plain C | CDevil          |
/// |-----------------|--------:|----------------:|
/// | `ide-boot`      |   8,774 | 250,839 (16.7%) |
/// | `ide-stress`    |  16,142 | 517,755 (34.5%) |
/// | `mouse-stream`  |     504 |           3,413 |
/// | `ne2000-stress` |  11,077 |               — |
///
/// Every clean catalog driver also passes at half this budget, and the
/// corpus tests of `devil-drivers` check that, so a budget squeezed too
/// far fails a test instead of turning into `InfiniteLoop` verdicts.
///
/// A run need not burn the whole budget to be judged a hang. Past
/// [`CYCLE_CHECK_AFTER`](devil_minic::vm::CYCLE_CHECK_AFTER) units the
/// bytecode VM looks for its whole state, the machine's included,
/// repeating exactly within one driver call. A proven cycle ends the run
/// exactly as running out of fuel would: the same `OutOfFuel` error with
/// no fuel left, the same console and coverage. Only the bus counters
/// show that it stopped early.
pub const DEFAULT_FUEL: u64 = 1_500_000;

/// Base port of the simulated IDE channel (command block at
/// `0x1F0..=0x1F7`, device control at `0x1F8` — the classic `0x3F6`
/// register mapped contiguously on this machine).
pub const IDE_BASE: u16 = 0x1F0;

/// Build the standard experiment machine: an IDE controller at
/// [`IDE_BASE`] with a DevilFS image of `files` on its disk.
pub fn standard_ide_machine(files: &[FsFile]) -> (IoSpace, DeviceId) {
    let mut disk = IdeDisk::small();
    fs::mkfs(&mut disk, files);
    let mut io = IoSpace::new();
    let id = io
        .map(IDE_BASE, 9, Box::new(IdeController::new(disk)))
        .expect("fresh space has no conflicting mappings");
    (io, id)
}
