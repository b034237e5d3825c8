//! 3Dlabs Permedia 2 graphics controller (simplified).
//!
//! The real Permedia 2 is programmed through a memory-mapped control
//! window; on our simulated machine the same registers appear as 13
//! dword-wide ports (`base + 0 ..= base + 12`), preserving the programming
//! model the paper's 128-line Devil specification covers: a command FIFO
//! with explicit space accounting, a sync/tag mechanism, and framebuffer
//! configuration registers.
//!
//! | offset | register |
//! |---|---|
//! | 0 | `ResetStatus` — read: 1 while resetting; write: start reset |
//! | 1 | `InFIFOSpace` — free input-FIFO entries (read-only) |
//! | 2 | `OutFIFOWords` — words waiting in the output FIFO (read-only) |
//! | 3 | `InFIFO` — command/data input port (write-only) |
//! | 4 | `OutFIFO` — output data port (read-only) |
//! | 5 | `Sync` — write a tag; it emerges from the output FIFO once all prior commands drained |
//! | 6 | `FBWindowBase` — framebuffer base offset |
//! | 7 | `FBWriteMode` — bit 0 enables writes |
//! | 8 | `FBPitch` — line pitch in pixels |
//! | 9 | `VideoControl` — bit 0 display enable, bit 1 blank |
//! | 10 | `FBReadMode` — read path configuration (scratch) |
//! | 11 | `ChipConfig` — read-only identification (always 2) |
//! | 12 | `FifoDiscon` — FIFO disconnect control (scratch) |
//!
//! Commands in the input FIFO: `0x01 x y color` plots a pixel, `0x02 addr`
//! reads a pixel back into the output FIFO. The FIFO drains one word every
//! [`DRAIN_PERIOD`] bus ticks, so a driver that ignores `InFIFOSpace`
//! overruns it — the overrun is latched and visible, mimicking the
//! lost-command lockups graphics drivers are notorious for.

use crate::bus::{AccessSize, DeviceFault, IoDevice};
use crate::snap::{StateReader, StateWriter};
use std::collections::VecDeque;

const FIFO_CAPACITY: usize = 32;
const FB_WIDTH: u32 = 64;
const FB_HEIGHT: u32 = 64;
const RESET_TICKS: u64 = 8;
/// The engine consumes one FIFO word every this many bus ticks.
pub const DRAIN_PERIOD: u64 = 2;

/// Simplified Permedia 2 with a 64×64 framebuffer.
#[derive(Debug, Clone)]
pub struct Permedia2 {
    in_fifo: VecDeque<u32>,
    out_fifo: VecDeque<u32>,
    resetting: u64,
    overrun: bool,
    fb_window_base: u32,
    fb_write_mode: u32,
    fb_pitch: u32,
    fb_read_mode: u32,
    fifo_discon: u32,
    video_control: u32,
    framebuffer: Vec<u32>,
    pending: Vec<u32>,
    drain_phase: u64,
}

impl Default for Permedia2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Permedia2 {
    /// Create a powered-on, idle controller.
    pub fn new() -> Self {
        Permedia2 {
            in_fifo: VecDeque::new(),
            out_fifo: VecDeque::new(),
            resetting: 0,
            overrun: false,
            fb_window_base: 0,
            fb_write_mode: 0,
            fb_pitch: FB_WIDTH,
            fb_read_mode: 0,
            fifo_discon: 0,
            video_control: 0,
            framebuffer: vec![0; (FB_WIDTH * FB_HEIGHT) as usize],
            pending: Vec::new(),
            drain_phase: 0,
        }
    }

    /// Pixel at `(x, y)`, for assertions.
    pub fn pixel(&self, x: u32, y: u32) -> u32 {
        self.framebuffer[(y * FB_WIDTH + x) as usize]
    }

    /// Whether the input FIFO has ever overrun.
    pub fn overrun(&self) -> bool {
        self.overrun
    }

    /// Whether the display output is enabled.
    pub fn display_enabled(&self) -> bool {
        self.video_control & 1 != 0
    }

    fn execute(&mut self, word: u32) {
        self.pending.push(word);
        match self.pending[0] {
            0x01 if self.pending.len() == 4 => {
                let (x, y, color) = (self.pending[1], self.pending[2], self.pending[3]);
                if self.fb_write_mode & 1 != 0 && x < FB_WIDTH && y < FB_HEIGHT {
                    let idx = (self.fb_window_base + y * self.fb_pitch + x) as usize;
                    if idx < self.framebuffer.len() {
                        self.framebuffer[idx] = color;
                    }
                }
                self.pending.clear();
            }
            0x02 if self.pending.len() == 2 => {
                let addr = self.pending[1] as usize;
                let v = self.framebuffer.get(addr).copied().unwrap_or(0);
                self.out_fifo.push_back(v);
                self.pending.clear();
            }
            0x01 | 0x02 => {} // waiting for operands
            _ => self.pending.clear(), // unknown opcode: swallowed
        }
    }
}

impl IoDevice for Permedia2 {
    fn name(&self) -> &str {
        "permedia2"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        if size != AccessSize::Dword {
            return Err(DeviceFault::Width { offset, size });
        }
        match offset {
            0 => Ok(u32::from(self.resetting > 0)),
            1 => Ok((FIFO_CAPACITY - self.in_fifo.len()) as u32),
            2 => Ok(self.out_fifo.len() as u32),
            3 => Ok(0),
            4 => Ok(self.out_fifo.pop_front().unwrap_or(0)),
            5 => Ok(0),
            6 => Ok(self.fb_window_base),
            7 => Ok(self.fb_write_mode & 1),
            8 => Ok(self.fb_pitch),
            9 => Ok(self.video_control & 0x3),
            10 => Ok(self.fb_read_mode),
            11 => Ok(2), // chip identification
            12 => Ok(self.fifo_discon & 1),
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        if size != AccessSize::Dword {
            return Err(DeviceFault::Width { offset, size });
        }
        match offset {
            0 => {
                self.resetting = RESET_TICKS;
                self.in_fifo.clear();
                self.out_fifo.clear();
                self.pending.clear();
                self.overrun = false;
            }
            3 => {
                if self.in_fifo.len() >= FIFO_CAPACITY {
                    self.overrun = true; // command lost
                } else {
                    self.in_fifo.push_back(value);
                }
            }
            5 => {
                // Sync: tag emerges after the FIFO drains; model it as a
                // special command so ordering is preserved.
                if self.in_fifo.len() + 2 > FIFO_CAPACITY {
                    self.overrun = true;
                } else {
                    self.in_fifo.push_back(0x03);
                    self.in_fifo.push_back(value);
                }
            }
            6 => self.fb_window_base = value,
            7 => self.fb_write_mode = value & 1,
            8 => self.fb_pitch = value,
            9 => self.video_control = value & 0x3,
            10 => self.fb_read_mode = value,
            12 => self.fifo_discon = value & 1,
            1 | 2 | 4 | 11 => {} // read-only: writes vanish
            _ => {
                return Err(DeviceFault::OutOfWindow { offset });
            }
        }
        Ok(())
    }

    fn tick(&mut self, ticks: u64) {
        for _ in 0..ticks {
            if self.resetting > 0 {
                self.resetting -= 1;
                continue;
            }
            self.drain_phase += 1;
            if !self.drain_phase.is_multiple_of(DRAIN_PERIOD) {
                continue;
            }
            // Drain one input word per drain period.
            let Some(word) = self.in_fifo.pop_front() else { continue };
            if self.pending.first() == Some(&0x03) {
                // sync opcode: next word is the tag
                self.out_fifo.push_back(word);
                self.pending.clear();
            } else if word == 0x03 && self.pending.is_empty() {
                self.pending.push(word);
            } else {
                self.execute(word);
            }
        }
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        w.u64(self.in_fifo.len() as u64);
        for word in &self.in_fifo {
            w.u32(*word);
        }
        w.u64(self.out_fifo.len() as u64);
        for word in &self.out_fifo {
            w.u32(*word);
        }
        w.u64(self.resetting);
        w.bool(self.overrun);
        w.u32(self.fb_window_base);
        w.u32(self.fb_write_mode);
        w.u32(self.fb_pitch);
        w.u32(self.fb_read_mode);
        w.u32(self.fifo_discon);
        w.u32(self.video_control);
        w.u32s(&self.framebuffer);
        w.len_u32s(&self.pending);
        w.u64(self.drain_phase);
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        let n = r.u64() as usize;
        self.in_fifo.clear();
        for _ in 0..n {
            self.in_fifo.push_back(r.u32());
        }
        let n = r.u64() as usize;
        self.out_fifo.clear();
        for _ in 0..n {
            self.out_fifo.push_back(r.u32());
        }
        self.resetting = r.u64();
        self.overrun = r.bool();
        self.fb_window_base = r.u32();
        self.fb_write_mode = r.u32();
        self.fb_pitch = r.u32();
        self.fb_read_mode = r.u32();
        self.fifo_discon = r.u32();
        self.video_control = r.u32();
        r.fill_u32s(&mut self.framebuffer);
        r.fill_len_u32s(&mut self.pending);
        self.drain_phase = r.u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{IoBus, IoSpace};

    const BASE: u16 = 0xC000;

    fn machine() -> (IoSpace, crate::bus::DeviceId) {
        let mut io = IoSpace::new();
        let id = io.map(BASE, 13, Box::new(Permedia2::new())).unwrap();
        (io, id)
    }

    fn drain(io: &mut IoSpace, polls: usize) {
        for _ in 0..polls {
            io.inl(BASE + 1).unwrap();
        }
    }

    #[test]
    fn reset_completes_after_ticks() {
        let (mut io, _) = machine();
        io.outl(BASE, 1).unwrap();
        assert_eq!(io.inl(BASE).unwrap(), 1, "reset in progress");
        drain(&mut io, 16);
        assert_eq!(io.inl(BASE).unwrap(), 0, "reset complete");
    }

    #[test]
    fn plot_pixel_through_fifo() {
        let (mut io, id) = machine();
        io.outl(BASE + 7, 1).unwrap(); // enable FB writes
        for w in [0x01u32, 5, 7, 0x00FF_0000] {
            io.outl(BASE + 3, w).unwrap();
        }
        drain(&mut io, 16);
        assert_eq!(io.device::<Permedia2>(id).unwrap().pixel(5, 7), 0x00FF_0000);
    }

    #[test]
    fn write_mode_gates_plots() {
        let (mut io, id) = machine();
        for w in [0x01u32, 1, 1, 0xABCD] {
            io.outl(BASE + 3, w).unwrap();
        }
        drain(&mut io, 16);
        assert_eq!(io.device::<Permedia2>(id).unwrap().pixel(1, 1), 0);
    }

    #[test]
    fn readback_flows_to_out_fifo() {
        let (mut io, _) = machine();
        io.outl(BASE + 7, 1).unwrap();
        for w in [0x01u32, 2, 0, 0x42, 0x02, 2] {
            io.outl(BASE + 3, w).unwrap();
        }
        drain(&mut io, 24);
        assert_eq!(io.inl(BASE + 2).unwrap(), 1, "one word waiting");
        assert_eq!(io.inl(BASE + 4).unwrap(), 0x42);
        assert_eq!(io.inl(BASE + 2).unwrap(), 0);
    }

    #[test]
    fn fifo_overrun_latches() {
        let (mut io, id) = machine();
        for _ in 0..(FIFO_CAPACITY * 3) {
            io.outl(BASE + 3, 0x7F).unwrap();
        }
        assert!(io.device::<Permedia2>(id).unwrap().overrun());
    }

    #[test]
    fn in_fifo_space_reports_free_entries() {
        let (mut io, _) = machine();
        let free0 = io.inl(BASE + 1).unwrap();
        assert_eq!(free0, FIFO_CAPACITY as u32);
        io.outl(BASE + 3, 0x01).unwrap();
        io.outl(BASE + 3, 1).unwrap();
        let free1 = io.inl(BASE + 1).unwrap();
        assert!(free1 <= FIFO_CAPACITY as u32);
    }

    #[test]
    fn sync_tag_round_trips_in_order() {
        let (mut io, _) = machine();
        io.outl(BASE + 7, 1).unwrap();
        for w in [0x01u32, 0, 0, 9] {
            io.outl(BASE + 3, w).unwrap();
        }
        io.outl(BASE + 5, 0xDEAD).unwrap();
        drain(&mut io, 24);
        assert_eq!(io.inl(BASE + 4).unwrap(), 0xDEAD);
    }

    #[test]
    fn byte_access_refused() {
        let (mut io, _) = machine();
        assert!(io.inb(BASE).is_err());
    }

    #[test]
    fn video_control_toggles_display() {
        let (mut io, id) = machine();
        assert!(!io.device::<Permedia2>(id).unwrap().display_enabled());
        io.outl(BASE + 9, 1).unwrap();
        assert!(io.device::<Permedia2>(id).unwrap().display_enabled());
        assert_eq!(io.inl(BASE + 9).unwrap(), 1);
    }

    #[test]
    fn chip_config_identifies() {
        let (mut io, _) = machine();
        assert_eq!(io.inl(BASE + 11).unwrap(), 2);
        io.outl(BASE + 11, 99).unwrap(); // read-only: ignored
        assert_eq!(io.inl(BASE + 11).unwrap(), 2);
    }

    #[test]
    fn scratch_registers_hold_values() {
        let (mut io, _) = machine();
        io.outl(BASE + 10, 0x1234).unwrap();
        assert_eq!(io.inl(BASE + 10).unwrap(), 0x1234);
        io.outl(BASE + 12, 1).unwrap();
        assert_eq!(io.inl(BASE + 12).unwrap(), 1);
    }
}
