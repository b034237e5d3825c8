//! DevilFS — the tiny checksummed filesystem the boot experiments mount.
//!
//! On-disk layout (512-byte sectors):
//!
//! * **LBA 0** — an MBR-style boot sector: one partition entry at offset
//!   446 (`start_lba` little-endian u32 at +8, `sector_count` at +12) and
//!   the `0x55 0xAA` signature at 510.
//! * **partition sector 0** — the superblock: magic `DVFS`, a u32 file
//!   count, then 24-byte file entries: 8-byte NUL-padded name, u32 start
//!   sector (partition-relative), u32 length in bytes, u32 checksum, u32
//!   flags (bit 0 = writable log area, exempt from integrity checks).
//! * **file data** — each file owns [`SECTORS_PER_FILE`] consecutive
//!   sectors.
//!
//! [`mkfs`] writes an image host-side; [`fsck`] is the *ground-truth*
//! integrity check run after a simulated boot — a driver mutant that writes
//! sectors it should not (the paper lost a partition table to two such
//! mutants!) shows up here as visible damage.

use devil_hwsim::devices::{IdeDisk, SECTOR_SIZE};

/// Sectors allocated per file.
pub const SECTORS_PER_FILE: u32 = 4;
/// Partition start LBA. Deliberately high (not sector 1) so the driver's
/// handling of the second LBA address byte is actually exercised by the
/// boot — mutations there must not be silently latent.
pub const PART_START: u32 = 1000;
/// Superblock magic.
pub const MAGIC: &[u8; 4] = b"DVFS";

/// A file in the image: name, content, writable flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsFile {
    /// File name (at most 8 bytes significant).
    pub name: String,
    /// Content (at most `SECTORS_PER_FILE * SECTOR_SIZE` bytes).
    pub content: Vec<u8>,
    /// Writable (scratch/log) files are exempt from integrity checking.
    pub writable: bool,
}

/// Deterministic pseudo-random content for the standard image.
fn pattern(seed: u32, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state & 0xFF) as u8
        })
        .collect()
}

/// The standard boot image: three integrity-checked files and a writable
/// log, mirroring "an init, a config, some data, and somewhere to write".
pub fn standard_files() -> Vec<FsFile> {
    vec![
        FsFile { name: "init".into(), content: pattern(1, 1200), writable: false },
        FsFile { name: "conf".into(), content: pattern(2, 300), writable: false },
        FsFile { name: "data".into(), content: pattern(3, 2000), writable: false },
        FsFile { name: "log".into(), content: Vec::new(), writable: true },
    ]
}

/// Sum-with-position checksum: cheap, order-sensitive.
pub fn checksum(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .enumerate()
        .fold(0u32, |acc, (i, b)| acc.wrapping_add((*b as u32).wrapping_mul(i as u32 + 1)))
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Write a fresh DevilFS image with `files` onto `disk`.
///
/// # Panics
///
/// Panics if the disk is too small or a file exceeds its allocation —
/// harness bugs, not runtime conditions.
pub fn mkfs(disk: &mut IdeDisk, files: &[FsFile]) {
    let capacity = disk.geometry().capacity();
    let needed = PART_START + 1 + files.len() as u32 * SECTORS_PER_FILE;
    assert!(needed <= capacity, "disk too small: need {needed}, have {capacity}");

    // MBR.
    let mut mbr = [0u8; SECTOR_SIZE];
    mbr[446] = 0x80; // bootable flag
    put_u32(&mut mbr, 446 + 8, PART_START);
    put_u32(&mut mbr, 446 + 12, capacity - PART_START);
    mbr[510] = 0x55;
    mbr[511] = 0xAA;
    disk.write_sector(0, &mbr);

    // Superblock.
    let mut sb = [0u8; SECTOR_SIZE];
    sb[..4].copy_from_slice(MAGIC);
    put_u32(&mut sb, 4, files.len() as u32);
    let mut next_sector = 1u32; // partition-relative
    for (i, f) in files.iter().enumerate() {
        assert!(
            f.content.len() <= (SECTORS_PER_FILE as usize) * SECTOR_SIZE,
            "file `{}` too large",
            f.name
        );
        let e = 8 + i * 24;
        let name = f.name.as_bytes();
        sb[e..e + name.len().min(8)].copy_from_slice(&name[..name.len().min(8)]);
        put_u32(&mut sb, e + 8, next_sector);
        put_u32(&mut sb, e + 12, f.content.len() as u32);
        put_u32(&mut sb, e + 16, checksum(&f.content));
        put_u32(&mut sb, e + 20, u32::from(f.writable));
        // Data.
        let mut padded = f.content.clone();
        padded.resize((SECTORS_PER_FILE as usize) * SECTOR_SIZE, 0);
        for s in 0..SECTORS_PER_FILE {
            let lba = PART_START + next_sector + s;
            let from = (s as usize) * SECTOR_SIZE;
            disk.write_sector(lba, &padded[from..from + SECTOR_SIZE]);
        }
        next_sector += SECTORS_PER_FILE;
    }
    disk.write_sector(PART_START, &sb);
}

/// Result of the ground-truth integrity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// MBR signature and partition entry intact.
    pub mbr_ok: bool,
    /// Superblock magic intact.
    pub superblock_ok: bool,
    /// Per-file verdicts `(name, intact)`; writable files are always
    /// reported intact.
    pub files: Vec<(String, bool)>,
}

impl FsckReport {
    /// No visible damage anywhere.
    pub fn is_clean(&self) -> bool {
        self.mbr_ok && self.superblock_ok && self.files.iter().all(|(_, ok)| *ok)
    }

    /// Human-readable summary of the damage, if any.
    pub fn describe(&self) -> String {
        if self.is_clean() {
            return "filesystem clean".into();
        }
        let mut parts = Vec::new();
        if !self.mbr_ok {
            parts.push("partition table damaged".to_string());
        }
        if !self.superblock_ok {
            parts.push("superblock damaged".to_string());
        }
        for (name, ok) in &self.files {
            if !ok {
                parts.push(format!("file `{name}` corrupted"));
            }
        }
        parts.join(", ")
    }
}

/// Verify the on-disk image against its own metadata (host-side ground
/// truth — this is "taking the disk out and checking it").
///
/// `expected` is the file set `mkfs` wrote; names present there but missing
/// or mismatched on disk are flagged.
pub fn fsck(disk: &IdeDisk, expected: &[FsFile]) -> FsckReport {
    let mbr = disk.sector(0);
    let mbr_ok = mbr[510] == 0x55
        && mbr[511] == 0xAA
        && get_u32(mbr, 446 + 8) == PART_START;
    let sb = disk.sector(PART_START);
    let superblock_ok = &sb[..4] == MAGIC && get_u32(sb, 4) == expected.len() as u32;
    let mut files = Vec::new();
    for (i, f) in expected.iter().enumerate() {
        if f.writable {
            files.push((f.name.clone(), true));
            continue;
        }
        if !superblock_ok {
            files.push((f.name.clone(), false));
            continue;
        }
        let e = 8 + i * 24;
        let mut name = [0u8; 8];
        let nb = f.name.as_bytes();
        name[..nb.len().min(8)].copy_from_slice(&nb[..nb.len().min(8)]);
        let name_ok = sb[e..e + 8] == name;
        let start = get_u32(sb, e + 8);
        let len = get_u32(sb, e + 12) as usize;
        let sum = get_u32(sb, e + 16);
        let mut ok = name_ok && len == f.content.len() && sum == checksum(&f.content);
        if ok {
            let mut data = Vec::with_capacity(len);
            for s in 0..SECTORS_PER_FILE {
                data.extend_from_slice(disk.sector(PART_START + start + s));
            }
            data.truncate(len);
            ok = checksum(&data) == sum;
        }
        files.push((f.name.clone(), ok));
    }
    FsckReport { mbr_ok, superblock_ok, files }
}

/// Locate a file's absolute LBA and byte length from the expected list (for
/// the harness's write test).
pub fn file_extent(files: &[FsFile], name: &str) -> Option<(u32, usize)> {
    let idx = files.iter().position(|f| f.name == name)?;
    let start = 1 + (idx as u32) * SECTORS_PER_FILE;
    Some((PART_START + start, files[idx].content.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> (IdeDisk, Vec<FsFile>) {
        let mut disk = IdeDisk::small();
        let files = standard_files();
        mkfs(&mut disk, &files);
        (disk, files)
    }

    #[test]
    fn fresh_image_is_clean() {
        let (disk, files) = image();
        let report = fsck(&disk, &files);
        assert!(report.is_clean(), "{}", report.describe());
    }

    #[test]
    fn mbr_layout() {
        let (disk, _) = image();
        let mbr = disk.sector(0);
        assert_eq!(mbr[510], 0x55);
        assert_eq!(mbr[511], 0xAA);
        assert_eq!(get_u32(mbr, 446 + 8), PART_START);
    }

    #[test]
    fn superblock_entries_match_files() {
        let (disk, files) = image();
        let sb = disk.sector(PART_START);
        assert_eq!(&sb[..4], MAGIC);
        assert_eq!(get_u32(sb, 4), files.len() as u32);
        assert_eq!(&sb[8..12], b"init");
        assert_eq!(get_u32(sb, 8 + 12), 1200);
    }

    #[test]
    fn damage_to_data_is_detected() {
        let (mut disk, files) = image();
        let (lba, _) = file_extent(&files, "init").unwrap();
        let mut sector = disk.sector(lba).to_vec();
        sector[7] ^= 0xFF;
        disk.write_sector(lba, &sector);
        let report = fsck(&disk, &files);
        assert!(!report.is_clean());
        assert!(report.describe().contains("init"), "{}", report.describe());
    }

    #[test]
    fn damage_to_partition_table_is_detected() {
        let (mut disk, files) = image();
        let mut mbr = disk.sector(0).to_vec();
        mbr[510] = 0;
        disk.write_sector(0, &mbr);
        let report = fsck(&disk, &files);
        assert!(!report.mbr_ok);
        assert!(report.describe().contains("partition table"));
    }

    #[test]
    fn damage_to_superblock_is_detected() {
        let (mut disk, files) = image();
        let mut sb = disk.sector(PART_START).to_vec();
        sb[0] = b'X';
        disk.write_sector(PART_START, &sb);
        let report = fsck(&disk, &files);
        assert!(!report.superblock_ok);
    }

    #[test]
    fn writes_to_log_area_are_fine() {
        let (mut disk, files) = image();
        let (lba, _) = file_extent(&files, "log").unwrap();
        disk.write_sector(lba, &[0xAB; SECTOR_SIZE]);
        assert!(fsck(&disk, &files).is_clean());
    }

    #[test]
    fn checksums_are_order_sensitive() {
        assert_ne!(checksum(&[1, 2]), checksum(&[2, 1]));
        assert_eq!(checksum(&[]), 0);
    }

    #[test]
    fn file_extents_are_disjoint() {
        let files = standard_files();
        let mut extents: Vec<(u32, u32)> = files
            .iter()
            .map(|f| {
                let (lba, _) = file_extent(&files, &f.name).unwrap();
                (lba, lba + SECTORS_PER_FILE)
            })
            .collect();
        extents.sort_unstable();
        for w in extents.windows(2) {
            assert!(w[0].1 <= w[1].0, "{extents:?}");
        }
        // And none overlap the superblock.
        assert!(extents[0].0 > PART_START);
    }

    #[test]
    fn pattern_is_deterministic() {
        assert_eq!(pattern(5, 64), pattern(5, 64));
        assert_ne!(pattern(5, 64), pattern(6, 64));
    }
}
