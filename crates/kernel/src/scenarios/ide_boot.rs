//! The IDE boot scenario — the paper's §4.2 experiment.
//!
//! A boot drives the driver under test exactly like the kernel's block
//! layer would, on the standard experiment machine
//! ([`crate::boot::standard_ide_machine`]):
//!
//! 1. `ide_probe()` — reset/identify the drive; a failure means the kernel
//!    cannot find its root disk and panics (*Halt*).
//! 2. Mount: read the MBR and the DevilFS superblock through
//!    `ide_read(lba, 1)`; invalid structures panic the mount (*Halt*).
//! 3. Integrity: read every file and verify its checksum; mismatches are
//!    *visible damage*.
//! 4. Write test: write a pattern to the log file via `ide_write(lba)` and
//!    read it back; a mismatch is damage.
//! 5. Ground truth: [`crate::fs::fsck`] inspects the platter directly — a
//!    driver that wrote where it should not (the paper lost a partition
//!    table this way) is caught even when the boot "looked" fine.
//!
//! The driver must export `int ide_probe(void)`, `int ide_read(int, int)`,
//! `int ide_write(int)` and a global `u16 io_buf[256]` — one sector,
//! mirroring the request buffer of the original driver; both the C and
//! CDevil corpus drivers do.
//!
//! Outcomes map onto the paper's cases 1–7: run-time check (a
//! `Devil assertion failed` panic), dead code, boot, crash, infinite loop,
//! halt, damaged boot, plus compile-time check for mutants that never
//! build.
//!
//! This module also exports the building blocks (`probe`, `mount`,
//! `verify_files`, `write_read_back`) that heavier IDE workloads such as
//! [`super::IdeStressScenario`] compose.

use crate::boot::standard_ide_machine;
use crate::fs::{self, FsFile};
use crate::scenario::{call, Detail, Drive, Fatal, Scenario, ScenarioEngine};
use devil_hwsim::devices::IdeController;
use devil_hwsim::{DeviceId, IoSpace};
use devil_minic::value::Value;
use std::borrow::Cow;

/// The paper's boot: probe, mount, per-file integrity, one write test,
/// ground-truth fsck.
#[derive(Debug, Clone)]
pub struct IdeBootScenario<'a> {
    files: Cow<'a, [FsFile]>,
    ide: Option<DeviceId>,
}

impl<'a> IdeBootScenario<'a> {
    /// A scenario that will build the standard IDE machine with a DevilFS
    /// image of `files`.
    pub fn new(files: impl Into<Cow<'a, [FsFile]>>) -> Self {
        IdeBootScenario { files: files.into(), ide: None }
    }
}

impl Scenario for IdeBootScenario<'_> {
    fn name(&self) -> &'static str {
        "ide-boot"
    }

    fn build(&mut self) -> IoSpace {
        let (io, ide) = standard_ide_machine(&self.files);
        self.ide = Some(ide);
        io
    }

    fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive {
        let mut damage = Vec::new();
        let run = (|| -> Result<(), Fatal> {
            probe(engine)?;
            let (part, sb) = mount(engine)?;
            verify_files(engine, &self.files, part, &sb, &mut damage, "")?;
            if let Some((log_lba, _)) = fs::file_extent(&self.files, "log") {
                write_read_back(engine, log_lba, log_pattern(0), &mut damage)?;
            }
            Ok(())
        })();
        Drive::from_result(run, damage)
    }

    fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>) {
        fsck_damage(io, self.ide, &self.files, damage);
    }

    fn clean_detail(&self) -> Detail {
        Detail::Borrowed("boot completed, no damage")
    }

    fn hung_detail(&self) -> Detail {
        Detail::Borrowed("boot never completed")
    }
}

/// Step 1: probe the disk driver; a failure means the kernel cannot find
/// its root disk and panics.
pub(super) fn probe(engine: &mut dyn ScenarioEngine) -> Result<i64, Fatal> {
    let v = call(engine, "ide_probe", &[])?;
    let capacity = v.as_int().unwrap_or(-1);
    if capacity <= 0 {
        return Err(Fatal::Halt(
            "VFS: unable to mount root fs (no disk found)".into(),
        ));
    }
    Ok(capacity)
}

/// Read one sector through the driver into bytes.
pub(super) fn read_sector(
    engine: &mut dyn ScenarioEngine,
    lba: i64,
) -> Result<Vec<u8>, Fatal> {
    let v = call(engine, "ide_read", &[Value::Int(lba), Value::Int(1)])?;
    if v.as_int().unwrap_or(-1) != 0 {
        return Err(Fatal::Halt(
            format!("VFS: I/O error reading sector {lba}").into(),
        ));
    }
    let Some(words) = engine.global_values("io_buf") else {
        return Err(Fatal::Damage("driver has no io_buf".into()));
    };
    if words.len() < 256 {
        // A short transfer buffer cannot hold a sector: classify instead
        // of letting the harness index out of bounds downstream.
        return Err(Fatal::Damage("driver io_buf is smaller than one sector".into()));
    }
    let mut bytes = Vec::with_capacity(512);
    for w in words.iter().take(256) {
        let v = w.as_int().unwrap_or(0) as u16;
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    Ok(bytes)
}

/// Step 2: mount — read the MBR and the DevilFS superblock through the
/// driver; invalid structures panic the mount. Returns the partition
/// start LBA and the superblock sector.
pub(super) fn mount(engine: &mut dyn ScenarioEngine) -> Result<(u32, Vec<u8>), Fatal> {
    let mbr = read_sector(engine, 0)?;
    if mbr[510] != 0x55 || mbr[511] != 0xAA {
        return Err(Fatal::Halt(
            "VFS: unable to mount root fs (bad partition table)".into(),
        ));
    }
    let part = u32::from_le_bytes([mbr[454], mbr[455], mbr[456], mbr[457]]);
    let sb = read_sector(engine, part as i64)?;
    if &sb[..4] != fs::MAGIC {
        return Err(Fatal::Halt(
            "VFS: unable to mount root fs (bad superblock)".into(),
        ));
    }
    Ok((part, sb))
}

/// Step 3: integrity — read every non-writable file through the driver
/// and verify its checksum against the superblock entry. `when` labels
/// the pass in damage lines (empty for a single-pass workload like the
/// boot).
pub(super) fn verify_files(
    engine: &mut dyn ScenarioEngine,
    files: &[FsFile],
    part: u32,
    sb: &[u8],
    damage: &mut Vec<String>,
    when: &str,
) -> Result<(), Fatal> {
    for (i, f) in files.iter().enumerate() {
        if f.writable {
            continue;
        }
        let e = 8 + i * 24;
        let start = u32::from_le_bytes([sb[e + 8], sb[e + 9], sb[e + 10], sb[e + 11]]);
        let len = u32::from_le_bytes([sb[e + 12], sb[e + 13], sb[e + 14], sb[e + 15]]) as usize;
        let sum = u32::from_le_bytes([sb[e + 16], sb[e + 17], sb[e + 18], sb[e + 19]]);
        // `len` comes off the (mutant-driven) wire: cap the reservation at
        // what a file can actually occupy so a corrupted superblock word
        // cannot make the harness reserve gigabytes.
        let mut data =
            Vec::with_capacity(len.min(fs::SECTORS_PER_FILE as usize * 512));
        for s in 0..fs::SECTORS_PER_FILE {
            data.extend_from_slice(&read_sector(engine, (part + start + s) as i64)?);
        }
        data.truncate(len);
        if fs::checksum(&data) != sum {
            damage.push(format!("file `{}` failed its checksum{when}", f.name));
        }
    }
    Ok(())
}

/// The boot's write-test pattern; `round` varies it for stress workloads.
pub(super) fn log_pattern(round: u32) -> Vec<u16> {
    (0..256u32).map(|i| (i * 7 + 3 + round * 13) as u16).collect()
}

/// Step 4: write `pattern` to the sector at `lba` via `ide_write`, then
/// read it back through the driver and compare.
pub(super) fn write_read_back(
    engine: &mut dyn ScenarioEngine,
    lba: u32,
    pattern: Vec<u16>,
    damage: &mut Vec<String>,
) -> Result<(), Fatal> {
    for (i, w) in pattern.iter().enumerate() {
        engine.set_global_element("io_buf", i, Value::Int(*w as i64));
    }
    let v = call(engine, "ide_write", &[Value::Int(lba as i64)])?;
    if v.as_int().unwrap_or(-1) != 0 {
        damage.push("log write failed".into());
        return Ok(());
    }
    // Clear and read back.
    for i in 0..256 {
        engine.set_global_element("io_buf", i, Value::Int(0));
    }
    let back = read_sector(engine, lba as i64)?;
    let expect: Vec<u8> = pattern.iter().flat_map(|w| w.to_le_bytes()).collect();
    if back != expect {
        damage.push("log read-back mismatch".into());
    }
    Ok(())
}

/// Step 5: ground truth — fsck the platter directly and report damage.
pub(super) fn fsck_damage(
    io: &mut IoSpace,
    ide: Option<DeviceId>,
    files: &[FsFile],
    damage: &mut Vec<String>,
) {
    let report = ide
        .and_then(|id| io.device::<IdeController>(id))
        .map(|c| fs::fsck(c.disk(), files));
    if let Some(r) = &report {
        if !r.is_clean() {
            damage.push(r.describe());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The `ide-boot` scenario on the standard machine, run with a small
    //! driver.

    use super::*;
    use crate::boot::DEFAULT_FUEL;
    use crate::scenario::{run_compiled, run_mutant_in, Outcome, ScenarioMachine, ScenarioReport};
    use devil_hwsim::devices::IdeDisk;
    use devil_minic::Program;

    /// A deliberately small but correct PIO driver used to validate the
    /// harness itself; the experiment corpus lives in `devil-drivers`.
    pub(crate) const MINI_DRIVER: &str = r#"
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
    pub(crate) fn rebuild_and_run(source: &str, dead_site: Option<u32>) -> (Outcome, Detail) {
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
        /// [`IDE_BASE`](crate::boot::IDE_BASE): it is mapped elsewhere, so
        /// the probe misses it and reads float.
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
    fn scenario_machine_matches_rebuild_per_mutant() {
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
    fn scenario_machine_refines_dead_code() {
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

}
