//! PCI configuration mechanism #1 and the Intel 82371FB (PIIX) bus-master
//! IDE function.
//!
//! Two models live here:
//!
//! * [`PciConfigSpace`] — the `0xCF8`/`0xCFC` configuration address/data
//!   pair, routing dword accesses into per-function 256-byte configuration
//!   headers ([`PciFunction`]).
//! * [`BusMasterIde`] — the I/O block the 82371FB exposes through BAR4: the
//!   primary/secondary bus-master command, status and descriptor-pointer
//!   registers that the paper's 27-line PCI Devil specification describes.

use crate::bus::{AccessSize, DeviceFault, IoDevice};
use crate::snap::{StateReader, StateWriter};

/// A single PCI function's 256-byte configuration header.
#[derive(Debug, Clone)]
pub struct PciFunction {
    /// Bus number this function answers on.
    pub bus: u8,
    /// Device number (0..32).
    pub device: u8,
    /// Function number (0..8).
    pub function: u8,
    config: [u8; 256],
}

impl PciFunction {
    /// Create a function with vendor/device ids and class code filled in.
    pub fn new(bus: u8, device: u8, function: u8, vendor: u16, dev_id: u16, class: u32) -> Self {
        let mut config = [0u8; 256];
        config[0] = (vendor & 0xFF) as u8;
        config[1] = (vendor >> 8) as u8;
        config[2] = (dev_id & 0xFF) as u8;
        config[3] = (dev_id >> 8) as u8;
        // class code occupies bytes 9..12 (prog-if, subclass, base class).
        config[9] = (class & 0xFF) as u8;
        config[10] = ((class >> 8) & 0xFF) as u8;
        config[11] = ((class >> 16) & 0xFF) as u8;
        PciFunction { bus, device, function, config }
    }

    /// The standard 82371FB IDE function (vendor 8086, device 7010,
    /// class 0101 prog-if 80) at bus 0, device 7, function 1, with BAR4
    /// pointing at `bmiba`.
    pub fn piix_ide(bmiba: u16) -> Self {
        let mut f = PciFunction::new(0, 7, 1, 0x8086, 0x7010, 0x01_01_80);
        f.write_u32(0x20, (bmiba as u32) | 1); // BAR4, I/O space flag
        f.write_u16(0x04, 0x0005); // command: I/O space + bus master
        f
    }

    /// Read a little-endian u32 at `offset`.
    pub fn read_u32(&self, offset: u8) -> u32 {
        let o = offset as usize & 0xFC;
        u32::from_le_bytes([self.config[o], self.config[o + 1], self.config[o + 2], self.config[o + 3]])
    }

    /// Write a little-endian u32 at `offset`.
    pub fn write_u32(&mut self, offset: u8, value: u32) {
        let o = offset as usize & 0xFC;
        self.config[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Write a little-endian u16 at `offset`.
    pub fn write_u16(&mut self, offset: u8, value: u16) {
        let o = offset as usize & 0xFE;
        self.config[o..o + 2].copy_from_slice(&value.to_le_bytes());
    }
}

/// The configuration-mechanism-#1 port pair (`0xCF8` address, `0xCFC` data).
///
/// Map this at base `0xCF8` with length 8.
#[derive(Debug, Clone, Default)]
pub struct PciConfigSpace {
    address: u32,
    functions: Vec<PciFunction>,
}

impl PciConfigSpace {
    /// Empty configuration space (all reads float to `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a function.
    pub fn add_function(&mut self, f: PciFunction) {
        self.functions.push(f);
    }

    fn decode(&self) -> Option<(usize, u8)> {
        if self.address & 0x8000_0000 == 0 {
            return None;
        }
        let bus = ((self.address >> 16) & 0xFF) as u8;
        let dev = ((self.address >> 11) & 0x1F) as u8;
        let func = ((self.address >> 8) & 0x07) as u8;
        let reg = (self.address & 0xFC) as u8;
        self.functions
            .iter()
            .position(|f| f.bus == bus && f.device == dev && f.function == func)
            .map(|i| (i, reg))
    }
}

impl IoDevice for PciConfigSpace {
    fn name(&self) -> &str {
        "pci-config"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        match offset {
            0..=3 => {
                if size != AccessSize::Dword || offset != 0 {
                    return Err(DeviceFault::Protocol("CONFIG_ADDRESS requires aligned dword access"));
                }
                Ok(self.address)
            }
            4..=7 => {
                let dword = match self.decode() {
                    Some((i, reg)) => self.functions[i].read_u32(reg),
                    None => 0xFFFF_FFFF,
                };
                let shift = 8 * (offset - 4) as u32;
                Ok((dword >> shift) & size.mask())
            }
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        match offset {
            0..=3 => {
                if size != AccessSize::Dword || offset != 0 {
                    return Err(DeviceFault::Protocol("CONFIG_ADDRESS requires aligned dword access"));
                }
                self.address = value;
                Ok(())
            }
            4..=7 => {
                if let Some((i, reg)) = self.decode() {
                    let old = self.functions[i].read_u32(reg);
                    let shift = 8 * (offset - 4) as u32;
                    let mask = size.mask() << shift;
                    let merged = (old & !mask) | ((value << shift) & mask);
                    self.functions[i].write_u32(reg, merged);
                }
                Ok(())
            }
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        w.u32(self.address);
        // The function set is construction-time topology; only each
        // function's configuration header is mutable.
        for f in &self.functions {
            w.bytes(&f.config);
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        self.address = r.u32();
        for f in &mut self.functions {
            r.fill(&mut f.config);
        }
    }
}

/// How many ticks a started bus-master transfer stays active.
const TRANSFER_TICKS: u64 = 16;

/// The 82371FB bus-master IDE I/O block (16 ports at BAR4).
///
/// | offset | register |
/// |---|---|
/// | 0 | primary command (`bit0` start/stop, `bit3` direction) |
/// | 2 | primary status (`bit0` active, `bit1` DMA error, `bit2` interrupt; bits 5,6 drive-capable latches) |
/// | 4..=7 | primary descriptor table pointer (dword, bits 1:0 fixed 0) |
/// | 8, 10, 12..=15 | same for the secondary channel |
#[derive(Debug, Clone, Default)]
pub struct BusMasterIde {
    channels: [BmChannel; 2],
}

#[derive(Debug, Clone, Copy, Default)]
struct BmChannel {
    command: u8,
    status: u8,
    dtp: u32,
    active_left: u64,
}

impl BusMasterIde {
    /// Create an idle bus-master block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Primary-channel descriptor table pointer, as last programmed.
    pub fn descriptor_pointer(&self, channel: usize) -> u32 {
        self.channels[channel].dtp
    }
}

impl IoDevice for BusMasterIde {
    fn name(&self) -> &str {
        "piix-busmaster"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        let (ch, reg) = (usize::from(offset >= 8), offset % 8);
        let c = &self.channels[ch];
        match reg {
            0 => Ok(c.command as u32 & 0x09),
            2 => Ok(c.status as u32),
            4..=7 => {
                if size == AccessSize::Dword && reg == 4 {
                    Ok(c.dtp)
                } else {
                    let shift = 8 * (reg - 4) as u32;
                    Ok((c.dtp >> shift) & size.mask())
                }
            }
            _ => Ok(0),
        }
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        let (ch, reg) = (usize::from(offset >= 8), offset % 8);
        let c = &mut self.channels[ch];
        match reg {
            0 => {
                let v = value as u8;
                let starting = v & 0x01 != 0 && c.command & 0x01 == 0;
                let stopping = v & 0x01 == 0 && c.command & 0x01 != 0;
                c.command = v & 0x09;
                if starting {
                    if c.dtp == 0 {
                        // Starting with a null descriptor table: DMA error.
                        c.status |= 0x02;
                    } else {
                        c.status |= 0x01; // active
                        c.active_left = TRANSFER_TICKS;
                    }
                } else if stopping {
                    c.status &= !0x01;
                    c.active_left = 0;
                }
                Ok(())
            }
            2 => {
                let v = value as u8;
                // bits 1 and 2 are write-one-to-clear; 5,6 plain latches.
                c.status &= !(v & 0x06);
                c.status = (c.status & !0x60) | (v & 0x60);
                Ok(())
            }
            4..=7 => {
                if size == AccessSize::Dword && reg == 4 {
                    c.dtp = value & !0x3;
                } else {
                    let shift = 8 * (reg - 4) as u32;
                    let mask = size.mask() << shift;
                    c.dtp = ((c.dtp & !mask) | ((value << shift) & mask)) & !0x3;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn tick(&mut self, ticks: u64) {
        for c in &mut self.channels {
            if c.status & 0x01 != 0 && c.active_left > 0 {
                if c.active_left <= ticks {
                    c.active_left = 0;
                    c.status &= !0x01; // transfer done
                    c.status |= 0x04; // interrupt
                } else {
                    c.active_left -= ticks;
                }
            }
        }
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        for c in &self.channels {
            w.u8(c.command);
            w.u8(c.status);
            w.u32(c.dtp);
            w.u64(c.active_left);
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        for c in &mut self.channels {
            c.command = r.u8();
            c.status = r.u8();
            c.dtp = r.u32();
            c.active_left = r.u64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{IoBus, IoSpace};

    fn pci_machine() -> IoSpace {
        let mut io = IoSpace::new();
        let mut cfg = PciConfigSpace::new();
        cfg.add_function(PciFunction::piix_ide(0xF000));
        io.map(0xCF8, 8, Box::new(cfg)).unwrap();
        io.map(0xF000, 16, Box::new(BusMasterIde::new())).unwrap();
        io
    }

    fn cfg_read(io: &mut IoSpace, dev: u8, func: u8, reg: u8) -> u32 {
        let addr = 0x8000_0000 | ((dev as u32) << 11) | ((func as u32) << 8) | reg as u32;
        io.outl(0xCF8, addr).unwrap();
        io.inl(0xCFC).unwrap()
    }

    #[test]
    fn vendor_device_id_readable() {
        let mut io = pci_machine();
        assert_eq!(cfg_read(&mut io, 7, 1, 0), 0x7010_8086);
    }

    #[test]
    fn missing_function_floats() {
        let mut io = pci_machine();
        assert_eq!(cfg_read(&mut io, 3, 0, 0), 0xFFFF_FFFF);
    }

    #[test]
    fn bar4_holds_bmiba() {
        let mut io = pci_machine();
        assert_eq!(cfg_read(&mut io, 7, 1, 0x20), 0xF001);
    }

    #[test]
    fn disabled_enable_bit_floats() {
        let mut io = pci_machine();
        io.outl(0xCF8, (7 << 11) | (1 << 8)).unwrap(); // bit31 clear
        assert_eq!(io.inl(0xCFC).unwrap(), 0xFFFF_FFFF);
    }

    #[test]
    fn config_write_byte_lane_merges() {
        let mut io = pci_machine();
        let addr = 0x8000_0000 | (7 << 11) | (1 << 8) | 0x40;
        io.outl(0xCF8, addr).unwrap();
        io.outl(0xCFC, 0xAABB_CCDD).unwrap();
        io.outl(0xCF8, addr).unwrap();
        io.outb(0xCFC + 1, 0x11).unwrap();
        io.outl(0xCF8, addr).unwrap();
        assert_eq!(io.inl(0xCFC).unwrap(), 0xAABB_11DD);
    }

    #[test]
    fn busmaster_start_completes_after_ticks() {
        let mut io = pci_machine();
        io.outl(0xF004, 0x0010_0000).unwrap(); // descriptor pointer
        io.outb(0xF000, 0x09).unwrap(); // start, read direction
        assert_eq!(io.inb(0xF002).unwrap() & 0x01, 1, "active right after start");
        // Poll until done; each poll ticks the bus.
        let mut st = 0;
        for _ in 0..64 {
            st = io.inb(0xF002).unwrap();
            if st & 0x01 == 0 {
                break;
            }
        }
        assert_eq!(st & 0x01, 0, "transfer should complete");
        assert_ne!(st & 0x04, 0, "interrupt bit raised");
        // Write-one-to-clear the interrupt.
        io.outb(0xF002, 0x04).unwrap();
        assert_eq!(io.inb(0xF002).unwrap() & 0x04, 0);
    }

    #[test]
    fn busmaster_null_descriptor_errors() {
        let mut io = pci_machine();
        io.outb(0xF000, 0x01).unwrap();
        assert_ne!(io.inb(0xF002).unwrap() & 0x02, 0, "DMA error latched");
    }

    #[test]
    fn descriptor_pointer_low_bits_forced_zero() {
        let mut io = pci_machine();
        io.outl(0xF004, 0x1234_5677).unwrap();
        assert_eq!(io.inl(0xF004).unwrap(), 0x1234_5674);
    }

    #[test]
    fn secondary_channel_is_independent() {
        let mut io = pci_machine();
        io.outl(0xF00C, 0x8000).unwrap();
        io.outb(0xF008, 0x01).unwrap();
        assert_eq!(io.inb(0xF002).unwrap() & 0x01, 0, "primary untouched");
        assert_eq!(io.inb(0xF00A).unwrap() & 0x01, 1);
    }
}
