//! Reference bus implementation: linear-scan dispatch, eager ticking.
//!
//! [`LinearIoSpace`] preserves the pre-optimisation `IoSpace` behaviour —
//! an O(mappings) scan per access and an eager `tick(1)` delivered to
//! *every* device on *every* access. It exists for two jobs:
//!
//! * **correctness oracle** — property tests map identical device sets
//!   into both fabrics and assert access-for-access agreement with the
//!   O(1) routing table of [`crate::IoSpace`];
//! * **performance baseline** — the `bus_dispatch` bench measures both
//!   fabrics on the same workload, which is what `BENCH_dispatch.json`'s
//!   speedup figures compare against.
//!
//! Keep this implementation boring. It is intentionally the naive code.

use crate::bus::{AccessSize, BusFault, DeviceFault, IoBus, IoDevice, MapError, UnmappedPolicy};

struct Mapping {
    base: u16,
    len: u16,
    device: usize,
}

/// The naive port-mapped I/O space: linear lookup, eager tick fan-out.
#[derive(Default)]
pub struct LinearIoSpace {
    mappings: Vec<Mapping>,
    devices: Vec<Box<dyn IoDevice>>,
    policy: UnmappedPolicy,
    clock: u64,
}

impl LinearIoSpace {
    /// Create an empty reference space with the floating unmapped policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the behaviour of accesses that hit no device.
    pub fn set_unmapped_policy(&mut self, policy: UnmappedPolicy) {
        self.policy = policy;
    }

    /// Current bus clock (one tick per access).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Map `device` at `[base, base + len)` with the same window rules as
    /// [`crate::IoSpace::map`].
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] on an empty window, a window past the end of
    /// the port space, or an overlap with an existing mapping.
    pub fn map(&mut self, base: u16, len: u16, device: Box<dyn IoDevice>) -> Result<(), MapError> {
        if len == 0 || (base as u32) + (len as u32) > 0x1_0000 {
            return Err(MapError::BadWindow { base, len });
        }
        let new_end = base as u32 + len as u32;
        for m in &self.mappings {
            let end = m.base as u32 + m.len as u32;
            if (base as u32) < end && (m.base as u32) < new_end {
                return Err(MapError::Overlap { base, len });
            }
        }
        let idx = self.devices.len();
        self.devices.push(device);
        self.mappings.push(Mapping { base, len, device: idx });
        Ok(())
    }

    /// The linear lookup the optimised table replaced.
    pub fn lookup(&self, port: u16) -> Option<(usize, u16)> {
        for m in &self.mappings {
            if port >= m.base && (port as u32) < m.base as u32 + m.len as u32 {
                return Some((m.device, port - m.base));
            }
        }
        None
    }

    fn advance(&mut self) {
        self.clock += 1;
        for d in &mut self.devices {
            d.tick(1);
        }
    }

    fn read_any(&mut self, port: u16, size: AccessSize) -> Result<u32, BusFault> {
        self.advance();
        let value = match self.lookup(port) {
            Some((idx, offset)) => self.devices[idx]
                .read(offset, size)
                .map_err(|fault| BusFault::Device { port, fault })?,
            None => match self.policy {
                UnmappedPolicy::Float => size.mask(),
                UnmappedPolicy::Fault => return Err(BusFault::Unmapped { port, size }),
            },
        } & size.mask();
        Ok(value)
    }

    fn write_any(&mut self, port: u16, size: AccessSize, value: u32) -> Result<(), BusFault> {
        self.advance();
        let value = value & size.mask();
        match self.lookup(port) {
            Some((idx, offset)) => self.devices[idx]
                .write(offset, size, value)
                .map_err(|fault| BusFault::Device { port, fault }),
            None => match self.policy {
                UnmappedPolicy::Float => Ok(()),
                UnmappedPolicy::Fault => Err(BusFault::Unmapped { port, size }),
            },
        }
    }
}

impl IoBus for LinearIoSpace {
    fn inb(&mut self, port: u16) -> Result<u8, BusFault> {
        Ok(self.read_any(port, AccessSize::Byte)? as u8)
    }

    fn inw(&mut self, port: u16) -> Result<u16, BusFault> {
        Ok(self.read_any(port, AccessSize::Word)? as u16)
    }

    fn inl(&mut self, port: u16) -> Result<u32, BusFault> {
        self.read_any(port, AccessSize::Dword)
    }

    fn outb(&mut self, port: u16, value: u8) -> Result<(), BusFault> {
        self.write_any(port, AccessSize::Byte, value as u32)
    }

    fn outw(&mut self, port: u16, value: u16) -> Result<(), BusFault> {
        self.write_any(port, AccessSize::Word, value as u32)
    }

    fn outl(&mut self, port: u16, value: u32) -> Result<(), BusFault> {
        self.write_any(port, AccessSize::Dword, value)
    }
}

/// A deliberately inert device for dispatch benchmarks and routing tests:
/// reads echo the offset, writes are stored to one cell, no timers.
#[derive(Debug, Clone, Default)]
pub struct NullDevice {
    last: u32,
}

impl NullDevice {
    /// Create an inert device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Last value written.
    pub fn last(&self) -> u32 {
        self.last
    }
}

impl IoDevice for NullDevice {
    fn name(&self) -> &str {
        "null"
    }

    fn read(&mut self, offset: u16, _size: AccessSize) -> Result<u32, DeviceFault> {
        Ok(offset as u32)
    }

    fn write(&mut self, _offset: u16, _size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        self.last = value;
        Ok(())
    }

    fn save(&self, w: &mut crate::snap::StateWriter<'_>) {
        w.u32(self.last);
    }

    fn load(&mut self, r: &mut crate::snap::StateReader<'_>) {
        self.last = r.u32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::ScratchRegisters;
    use crate::IoSpace;

    #[test]
    fn linear_space_round_trips() {
        let mut io = LinearIoSpace::new();
        io.map(0x100, 4, Box::new(ScratchRegisters::new(4))).unwrap();
        io.outb(0x101, 0x7E).unwrap();
        assert_eq!(io.inb(0x101).unwrap(), 0x7E);
        assert_eq!(io.inb(0x400).unwrap(), 0xFF, "floats like the real bus");
    }

    #[test]
    fn linear_space_rejects_overlap_like_the_table() {
        let mut lin = LinearIoSpace::new();
        let mut tab = IoSpace::new();
        for (base, len) in [(0x10u16, 8u16), (0x14, 4), (0x18, 2), (0x0, 0), (0xFFFF, 2)] {
            let a = lin.map(base, len, Box::new(NullDevice::new())).is_ok();
            let b = tab.map(base, len, Box::new(NullDevice::new())).is_ok();
            assert_eq!(a, b, "map({base:#x}, {len}) must agree");
        }
    }
}
