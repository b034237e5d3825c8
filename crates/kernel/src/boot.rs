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

/// Default interpreter fuel for one boot (a clean boot uses well under 10%).
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

#[cfg(test)]
mod tests {
    //! The `ide-boot` scenario on this machine, run with a small driver.

    use super::*;
    use crate::scenario::{
        classify_run_error, run_compiled, run_mutant_in, Detail, Drive, Outcome, Scenario,
        ScenarioEngine, ScenarioMachine, ScenarioReport,
    };
    use crate::scenarios::IdeBootScenario;
    use devil_minic::interp::RunError;
    use devil_minic::Program;

    /// A deliberately small but correct PIO driver used to validate the
    /// harness itself; the experiment corpus lives in `devil-drivers`.
    const MINI_DRIVER: &str = r#"
typedef unsigned char u8;
typedef unsigned short u16;

#define IDE_BASE    0x1F0
#define IDE_DATA    0x1F0
#define IDE_NSECT   0x1F2
#define IDE_LBA0    0x1F3
#define IDE_LBA1    0x1F4
#define IDE_LBA2    0x1F5
#define IDE_SELECT  0x1F6
#define IDE_STATUS  0x1F7
#define IDE_CMD     0x1F7

#define STAT_ERR  0x01
#define STAT_DRQ  0x08
#define STAT_RDY  0x40
#define STAT_BUSY 0x80

#define CMD_READ     0x20
#define CMD_WRITE    0x30
#define CMD_IDENTIFY 0xec

unsigned short io_buf[256];

static int wait_ready(void)
{
    int t;
    for (t = 0; t < 20000; t++) {
        u8 s = inb(IDE_STATUS);
        if ((s & STAT_BUSY) == 0) return s;
    }
    return -1;
}

static void select_lba(int lba, int count)
{
    outb(count, IDE_NSECT);
    outb(lba & 0xff, IDE_LBA0);
    outb((lba >> 8) & 0xff, IDE_LBA1);
    outb((lba >> 16) & 0xff, IDE_LBA2);
    outb(0xe0 | ((lba >> 24) & 0x0f), IDE_SELECT);
}

int ide_probe(void)
{
    int s;
    outb(0xe0, IDE_SELECT);
    outb(CMD_IDENTIFY, IDE_CMD);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR) || !(s & STAT_DRQ)) {
        printk("hda: no drive found");
        return -1;
    }
    insw(IDE_DATA, io_buf, 256);
    printk("hda: drive identified, %d sectors", io_buf[60] | (io_buf[61] << 16));
    return io_buf[60] | (io_buf[61] << 16);
}

int ide_read(int lba, int count)
{
    int s;
    select_lba(lba, count);
    outb(CMD_READ, IDE_CMD);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR)) return -1;
    if (!(s & STAT_DRQ)) return -1;
    insw(IDE_DATA, io_buf, 256);
    return 0;
}

int ide_write(int lba)
{
    int s;
    select_lba(lba, 1);
    outb(CMD_WRITE, IDE_CMD);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR) || !(s & STAT_DRQ)) return -1;
    outsw(IDE_DATA, io_buf, 256);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR)) return -1;
    return 0;
}
"#;

    fn compiled() -> Program {
        devil_minic::compile("mini.c", MINI_DRIVER).expect("mini driver compiles")
    }

    fn ide_boot() -> IdeBootScenario<'static> {
        IdeBootScenario::new(fs::standard_files())
    }

    /// Boot `program` on a machine the `ide-boot` scenario built, so the
    /// ground-truth fsck sees its disk.
    fn boot(program: &Program, fuel: u64) -> ScenarioReport {
        let mut scenario = ide_boot();
        let mut io = scenario.build();
        run_compiled(&scenario, &program.to_bytecode(), &mut io, fuel)
    }

    /// The rebuild-per-mutant pipeline on the mini driver's file name.
    fn rebuild_and_run(source: &str, dead_site: Option<u32>) -> (Outcome, Detail) {
        run_mutant_in(ide_boot(), "mini.c", source, &[], dead_site, DEFAULT_FUEL)
    }

    #[test]
    fn clean_driver_boots() {
        let report = boot(&compiled(), DEFAULT_FUEL);
        assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
        assert!(report.console.iter().any(|l| l.contains("drive identified")));
        assert!(!report.coverage.is_empty());
    }

    #[test]
    fn missing_disk_halts() {
        /// The boot workload on a machine with no IDE controller at
        /// [`IDE_BASE`]: it is mapped elsewhere, so the probe misses it
        /// and reads float.
        struct ControllerElsewhere(IdeBootScenario<'static>);
        impl Scenario for ControllerElsewhere {
            fn name(&self) -> &'static str {
                "ide-boot-controller-elsewhere"
            }
            fn build(&mut self) -> IoSpace {
                let mut disk = IdeDisk::small();
                fs::mkfs(&mut disk, &fs::standard_files());
                let mut io = IoSpace::new();
                io.map(0x9000, 9, Box::new(IdeController::new(disk))).unwrap();
                io
            }
            fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive {
                self.0.drive(engine)
            }
            // The driver cannot reach the disk, so there is nothing to fsck.
            fn inspect(&self, _io: &mut IoSpace, _damage: &mut Vec<String>) {}
        }
        let mut scenario = ControllerElsewhere(ide_boot());
        let mut io = scenario.build();
        let report = run_compiled(&scenario, &compiled().to_bytecode(), &mut io, DEFAULT_FUEL);
        // Floating status reads look permanently busy -> probe timeout.
        assert_eq!(report.outcome, Outcome::Halt, "{}", report.detail);
        assert!(report.detail.contains("unable to mount root"), "{}", report.detail);
    }

    #[test]
    fn wrong_command_byte_is_detected_as_damage_or_halt() {
        // Mutate CMD_READ 0x20 -> 0x21 is still valid; use 0x2f (aborted).
        let bad = MINI_DRIVER.replace("#define CMD_READ     0x20", "#define CMD_READ     0x2f");
        let program = devil_minic::compile("mini.c", &bad).unwrap();
        let report = boot(&program, DEFAULT_FUEL);
        // The drive aborts the unknown command; the driver sees ERR and
        // returns an I/O error -> mount fails -> halt.
        assert_eq!(report.outcome, Outcome::Halt, "{}", report.detail);
    }

    #[test]
    fn unbounded_poll_on_wrong_bit_hangs() {
        // Replace the bounded wait with an unbounded wrong-polarity poll.
        let bad = MINI_DRIVER.replace(
            "if ((s & STAT_BUSY) == 0) return s;",
            "if ((s & STAT_BUSY) == STAT_BUSY) return s;",
        );
        // Status is BUSY right after the command, so this returns during
        // the busy window, sees no DRQ... make it truly hang instead:
        let bad = bad.replace("for (t = 0; t < 20000; t++) {", "for (t = 0; t >= 0; t++) {");
        let program = devil_minic::compile("mini.c", &bad).unwrap();
        let report = boot(&program, 200_000);
        assert!(
            matches!(report.outcome, Outcome::InfiniteLoop | Outcome::Halt),
            "{:?}: {}",
            report.outcome,
            report.detail
        );
    }

    #[test]
    fn wild_write_damages_the_disk() {
        // Write the log pattern to the WRONG sector (clobbers a file).
        let bad = MINI_DRIVER.replace(
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(lba, 1);",
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(3, 1);",
        );
        assert_ne!(bad, MINI_DRIVER, "replacement must hit");
        let program = devil_minic::compile("mini.c", &bad).unwrap();
        let report = boot(&program, DEFAULT_FUEL);
        assert_eq!(report.outcome, Outcome::DamagedBoot, "{}", report.detail);
    }

    #[test]
    fn lost_partition_table_is_seen_only_by_fsck() {
        // Every write first lands on sector 0 — the paper's lost
        // partition table. The mount read the MBR before the write test,
        // and the read-back checks only the log sector, so the boot looks
        // fine; only the ground-truth fsck of the platter sees the damage.
        let bad = MINI_DRIVER.replace(
            "int ide_write(int lba)\n{\n    int s;\n",
            "int ide_write(int lba)\n{\n    int s;\n    if (lba != 0) ide_write(0);\n",
        );
        assert_ne!(bad, MINI_DRIVER, "replacement must hit");
        let program = devil_minic::compile("mini.c", &bad).unwrap();
        let report = boot(&program, DEFAULT_FUEL);
        assert_eq!(report.outcome, Outcome::DamagedBoot, "{}", report.detail);
        assert_eq!(report.detail, "partition table damaged");
    }

    #[test]
    fn run_mutant_classifies_compile_errors() {
        let (outcome, _) = rebuild_and_run("int ide_probe(void) { return undeclared; }", None);
        assert_eq!(outcome, Outcome::CompileCheck);
    }

    #[test]
    fn run_mutant_full_pipeline_boots() {
        let (outcome, detail) = rebuild_and_run(MINI_DRIVER, None);
        assert_eq!(outcome, Outcome::Boot, "{detail}");
    }

    #[test]
    fn dead_code_detected_by_coverage() {
        // Add a never-executed branch and point the site at it.
        let with_dead = MINI_DRIVER.replace(
            "int ide_probe(void)\n{",
            "static int never_used(void)\n{\n    return inb(0x9999);\n}\nint ide_probe(void)\n{",
        );
        let line_of_dead = with_dead
            .lines()
            .position(|l| l.contains("0x9999"))
            .unwrap() as u32
            + 1;
        let (outcome, _) = rebuild_and_run(&with_dead, Some(line_of_dead));
        assert_eq!(outcome, Outcome::DeadCode);
    }

    #[test]
    fn campaign_machine_matches_rebuild_per_mutant() {
        let mut machine = ScenarioMachine::with_scenario(ide_boot(), DEFAULT_FUEL);
        // A clean run, a damaging run, then a clean run again — the reset
        // must erase the damage the middle mutant did to the disk.
        let wild = MINI_DRIVER.replace(
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(lba, 1);",
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(3, 1);",
        );
        let broken = "int ide_probe(void) { return undeclared; }";
        for source in [MINI_DRIVER, &wild, MINI_DRIVER, broken, MINI_DRIVER] {
            let fresh = rebuild_and_run(source, None);
            let reset = machine.run("mini.c", source, &[], None);
            assert_eq!(fresh, reset, "reset and rebuild paths must agree");
        }
    }

    #[test]
    fn campaign_machine_refines_dead_code() {
        let with_dead = MINI_DRIVER.replace(
            "int ide_probe(void)\n{",
            "static int never_used(void)\n{\n    return inb(0x9999);\n}\nint ide_probe(void)\n{",
        );
        let line_of_dead = with_dead
            .lines()
            .position(|l| l.contains("0x9999"))
            .unwrap() as u32
            + 1;
        let mut machine = ScenarioMachine::with_scenario(ide_boot(), DEFAULT_FUEL);
        let (outcome, _) = machine.run("mini.c", &with_dead, &[], Some(line_of_dead));
        assert_eq!(outcome, Outcome::DeadCode);
    }

    #[test]
    fn outcome_display_and_order() {
        assert_eq!(Outcome::table_order().len(), 10);
        assert_eq!(Outcome::RuntimeCheck.to_string(), "Run-time check");
        assert_eq!(Outcome::EngineError.to_string(), "Engine error");
        assert_eq!(Outcome::Deadline.to_string(), "Deadline");
        assert!(Outcome::CompileCheck.is_detected());
        assert!(Outcome::RuntimeCheck.is_detected());
        assert!(!Outcome::Boot.is_detected());
        assert!(!Outcome::EngineError.is_detected());
        assert!(!Outcome::Deadline.is_detected());
    }

    #[test]
    fn outcome_table_order_is_complete_and_unique() {
        // Completeness gate: adding an `Outcome` variant without teaching
        // `table_order` about it fails this match (and therefore the
        // build), not just the table rendering.
        fn index_of(o: Outcome) -> usize {
            match o {
                Outcome::CompileCheck => 0,
                Outcome::RuntimeCheck => 1,
                Outcome::Crash => 2,
                Outcome::InfiniteLoop => 3,
                Outcome::Halt => 4,
                Outcome::DamagedBoot => 5,
                Outcome::Boot => 6,
                Outcome::DeadCode => 7,
                Outcome::EngineError => 8,
                Outcome::Deadline => 9,
            }
        }
        let mut seen = [0usize; 10];
        for o in Outcome::table_order() {
            seen[index_of(o)] += 1;
        }
        assert_eq!(seen, [1; 10], "every variant exactly once in table_order");
    }

    #[test]
    fn devil_assertion_panic_classifies_as_runtime_check() {
        let e = RunError::Panic {
            message: "Devil assertion failed in file drv.c line 12".into(),
            file: "drv.c".into(),
            line: 12,
        };
        assert_eq!(classify_run_error(&e).0, Outcome::RuntimeCheck);
        let e = RunError::Panic { message: "hd: controller stuck".into(), file: "d".into(), line: 1 };
        assert_eq!(classify_run_error(&e).0, Outcome::Halt);
    }

    #[test]
    fn fixed_verdicts_borrow_their_detail_strings() {
        // The common classifications must not allocate a detail per
        // mutant: a clean boot, a dead-code refinement and a fuel
        // exhaustion all return borrowed strings.
        let (_, detail) = rebuild_and_run(MINI_DRIVER, None);
        assert!(matches!(detail, Detail::Borrowed(_)), "clean boot detail is borrowed");
        let (o, detail) = classify_run_error(&RunError::OutOfFuel);
        assert_eq!(o, Outcome::InfiniteLoop);
        assert!(matches!(detail, Detail::Borrowed(_)), "fuel detail is borrowed");
    }
}
