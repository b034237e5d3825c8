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
