//! Logitech busmouse model.
//!
//! The register layout follows the Devil specification reproduced in
//! Figure 3 of the paper (ports `base + 0..3`):
//!
//! * `base + 0` — read-only data port; returns one nibble of the motion
//!   counters, selected by the index latch (`0` = x low, `1` = x high,
//!   `2` = y low, `3` = y high). In the y-high frame, bits `7..5` carry the
//!   (active-low on real hardware, direct here) button state.
//! * `base + 1` — signature register, a plain read/write latch used by the
//!   probe routine to detect the card.
//! * `base + 2` — write-only control port. With bit 7 set the write selects
//!   the nibble index (bits `6..5`) and leaves the interrupt gate alone;
//!   with bit 7 clear, bit 4 gates interrupts (`0` = enable, `1` = disable).
//! * `base + 3` — write-only configuration register (bit 0 selects
//!   configuration vs. default mode).
//!
//! Motion is injected by the test/boot harness through
//! [`Busmouse::inject_motion`]. Disabling interrupts *holds* the quadrature
//! counters: the current deltas are latched for reading and the live
//! counters restart at zero, exactly the freeze-read-release cycle the
//! Linux `busmouse.c` interrupt handler relies on. Re-enabling interrupts
//! discards the latch.

use crate::bus::{AccessSize, DeviceFault, IoDevice};
use crate::snap::{StateReader, StateWriter};

/// Behavioural Logitech busmouse (see module docs for the register map).
#[derive(Debug, Clone)]
pub struct Busmouse {
    signature: u8,
    index: u8,
    interrupts_disabled: bool,
    config: u8,
    dx: i8,
    dy: i8,
    buttons: u8,
    /// Snapshot latched when the interrupt gate closes (hold mode).
    held: Option<(i8, i8, u8)>,
}

impl Default for Busmouse {
    fn default() -> Self {
        Self::new()
    }
}

impl Busmouse {
    /// Create a quiescent mouse: no motion pending, interrupts disabled.
    pub fn new() -> Self {
        Busmouse {
            signature: 0,
            index: 0,
            interrupts_disabled: true,
            config: 0,
            dx: 0,
            dy: 0,
            buttons: 0,
            held: None,
        }
    }

    /// Accumulate a motion event. `buttons` uses the low three bits.
    ///
    /// Deltas saturate at the i8 range, as the hardware counters did.
    pub fn inject_motion(&mut self, dx: i8, dy: i8, buttons: u8) {
        self.dx = self.dx.saturating_add(dx);
        self.dy = self.dy.saturating_add(dy);
        self.buttons = buttons & 0x07;
    }

    /// Currently latched x delta (for assertions in tests).
    pub fn pending_dx(&self) -> i8 {
        self.dx
    }

    /// Currently latched y delta.
    pub fn pending_dy(&self) -> i8 {
        self.dy
    }

    /// Current button state (low three bits).
    pub fn buttons(&self) -> u8 {
        self.buttons
    }

    /// Whether the interrupt gate is open.
    pub fn interrupts_enabled(&self) -> bool {
        !self.interrupts_disabled
    }

    /// Value of the configuration register.
    pub fn config(&self) -> u8 {
        self.config
    }

    /// Currently selected nibble index (0..=3).
    pub fn index(&self) -> u8 {
        self.index
    }

    fn data_nibbles(&self) -> u8 {
        let (dx, dy, buttons) = self.held.unwrap_or((self.dx, self.dy, self.buttons));
        match self.index {
            0 => (dx as u8) & 0x0F,
            1 => ((dx as u8) >> 4) & 0x0F,
            2 => (dy as u8) & 0x0F,
            3 => (buttons << 5) | (((dy as u8) >> 4) & 0x0F),
            _ => unreachable!("index latch is two bits"),
        }
    }
}

impl IoDevice for Busmouse {
    fn name(&self) -> &str {
        "logitech-busmouse"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        match offset {
            0 => Ok(self.data_nibbles() as u32),
            1 => Ok(self.signature as u32),
            // Control and config are write-only; reads float.
            2 | 3 => Ok(0xFF),
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        let v = value as u8;
        match offset {
            0 => Ok(()), // data port writes are ignored
            1 => {
                self.signature = v;
                Ok(())
            }
            2 => {
                if v & 0x80 != 0 {
                    // Index select: the gate is untouched.
                    self.index = (v >> 5) & 0x03;
                } else {
                    let disable = v & 0x10 != 0;
                    if disable && !self.interrupts_disabled {
                        // Gate closes: hold the counters, restart the live ones.
                        self.held = Some((self.dx, self.dy, self.buttons));
                        self.dx = 0;
                        self.dy = 0;
                    } else if !disable && self.interrupts_disabled {
                        self.held = None;
                    }
                    self.interrupts_disabled = disable;
                }
                Ok(())
            }
            3 => {
                self.config = v & 0x91;
                Ok(())
            }
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        w.u8(self.signature);
        w.u8(self.index);
        w.bool(self.interrupts_disabled);
        w.u8(self.config);
        w.u8(self.dx as u8);
        w.u8(self.dy as u8);
        w.u8(self.buttons);
        match self.held {
            Some((dx, dy, buttons)) => {
                w.bool(true);
                w.u8(dx as u8);
                w.u8(dy as u8);
                w.u8(buttons);
            }
            None => w.bool(false),
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        self.signature = r.u8();
        self.index = r.u8();
        self.interrupts_disabled = r.bool();
        self.config = r.u8();
        self.dx = r.u8() as i8;
        self.dy = r.u8() as i8;
        self.buttons = r.u8();
        self.held = if r.bool() {
            Some((r.u8() as i8, r.u8() as i8, r.u8()))
        } else {
            None
        };
    }

    /// The [`IoDevice::save`] bytes: the mouse has no timer, so it is
    /// always quiescent.
    fn cycle_state(&self, w: &mut StateWriter<'_>) -> bool {
        self.save(w);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{IoBus, IoSpace};

    const BASE: u16 = 0x23C;

    fn machine() -> (IoSpace, crate::bus::DeviceId) {
        let mut io = IoSpace::new();
        let id = io.map(BASE, 4, Box::new(Busmouse::new())).unwrap();
        (io, id)
    }

    fn read_nibble(io: &mut IoSpace, index: u8) -> u8 {
        io.outb(BASE + 2, 0x80 | (index << 5)).unwrap();
        io.inb(BASE).unwrap()
    }

    #[test]
    fn signature_register_round_trips() {
        let (mut io, _) = machine();
        io.outb(BASE + 1, 0xA5).unwrap();
        assert_eq!(io.inb(BASE + 1).unwrap(), 0xA5);
        io.outb(BASE + 1, 0x5A).unwrap();
        assert_eq!(io.inb(BASE + 1).unwrap(), 0x5A);
    }

    #[test]
    fn motion_read_back_via_nibbles() {
        let (mut io, id) = machine();
        io.device_mut::<Busmouse>(id).unwrap().inject_motion(0x35u8 as i8, -3, 0b101);
        assert_eq!(read_nibble(&mut io, 0), 0x5); // x low
        assert_eq!(read_nibble(&mut io, 1), 0x3); // x high
        let dy = -3i8 as u8; // 0xFD
        assert_eq!(read_nibble(&mut io, 2), dy & 0xF);
        let yh = read_nibble(&mut io, 3);
        assert_eq!(yh & 0x0F, (dy >> 4) & 0xF);
        assert_eq!(yh >> 5, 0b101);
    }

    #[test]
    fn hold_latches_counters_and_release_discards() {
        let (mut io, id) = machine();
        io.device_mut::<Busmouse>(id).unwrap().inject_motion(10, 20, 0);
        io.outb(BASE + 2, 0x00).unwrap(); // enable (gate open)
        io.outb(BASE + 2, 0x10).unwrap(); // disable: hold
        // Motion arriving during the hold is not visible in the latch.
        io.device_mut::<Busmouse>(id).unwrap().inject_motion(3, 0, 0);
        assert_eq!(read_nibble(&mut io, 0), 10);
        assert_eq!(read_nibble(&mut io, 2), 20 & 0xF);
        // Release: latch discarded, live counters (the 3) take over.
        io.outb(BASE + 2, 0x00).unwrap();
        assert_eq!(read_nibble(&mut io, 0), 3);
    }

    #[test]
    fn reads_without_hold_do_not_clear() {
        let (mut io, id) = machine();
        io.device_mut::<Busmouse>(id).unwrap().inject_motion(5, 6, 0);
        assert_eq!(read_nibble(&mut io, 0), 5);
        assert_eq!(read_nibble(&mut io, 0), 5, "live counters persist");
        assert_eq!(read_nibble(&mut io, 2), 6);
    }

    #[test]
    fn motion_accumulates_and_saturates() {
        let mut m = Busmouse::new();
        m.inject_motion(100, 0, 0);
        m.inject_motion(100, 0, 0);
        assert_eq!(m.pending_dx(), 127);
        m.inject_motion(-128, -128, 0);
        m.inject_motion(-128, -128, 0);
        assert_eq!(m.pending_dy(), -128);
    }

    #[test]
    fn interrupt_gate_follows_bit4() {
        let (mut io, id) = machine();
        io.outb(BASE + 2, 0x00).unwrap();
        assert!(io.device::<Busmouse>(id).unwrap().interrupts_enabled());
        io.outb(BASE + 2, 0x10).unwrap();
        assert!(!io.device::<Busmouse>(id).unwrap().interrupts_enabled());
    }

    #[test]
    fn index_latch_only_updates_with_bit7() {
        let (mut io, id) = machine();
        io.outb(BASE + 2, 0x80 | (2 << 5)).unwrap();
        assert_eq!(io.device::<Busmouse>(id).unwrap().index(), 2);
        // Bit 7 clear: interrupt gate write, index untouched.
        io.outb(BASE + 2, 0x10).unwrap();
        assert_eq!(io.device::<Busmouse>(id).unwrap().index(), 2);
    }

    #[test]
    fn config_register_masks_fixed_bits() {
        let (mut io, id) = machine();
        io.outb(BASE + 3, 0xFF).unwrap();
        // Mask '1001000.' keeps bits 7, 4 and 0 (the writable pattern).
        assert_eq!(io.device::<Busmouse>(id).unwrap().config(), 0x91);
    }

    #[test]
    fn word_access_is_refused() {
        let (mut io, _) = machine();
        assert!(io.inw(BASE).is_err());
        assert!(io.outw(BASE + 2, 0x8080).is_err());
    }

    #[test]
    fn control_port_reads_float() {
        let (mut io, _) = machine();
        assert_eq!(io.inb(BASE + 2).unwrap(), 0xFF);
        assert_eq!(io.inb(BASE + 3).unwrap(), 0xFF);
    }
}
