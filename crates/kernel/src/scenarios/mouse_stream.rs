//! Busmouse event-stream scenario: the paper's "wiggle the mouse"
//! activity as a campaign workload.
//!
//! A Logitech busmouse is mapped at the classic `0x23C` and the harness
//! replays a deterministic stream of synthetic motion packets — small
//! deltas, sign changes, full-scale saturation, every button chord — into
//! the quadrature counters. After each injection the driver's
//! `bm_read_state()` is called and the deltas/buttons it decoded into
//! `mouse_dx`/`mouse_dy`/`mouse_buttons` are compared against what the
//! device was actually holding when the driver latched it: a driver that
//! swaps the nibble indexes, mixes up the byte order, mishandles the sign
//! extension or reads the button bits from the wrong frame produces a
//! per-packet mismatch (damaged boot). Ground truth afterwards: the
//! freeze-read-release protocol must leave the interrupt gate open, or
//! the machine would never see another mouse event.

use crate::scenario::{call, Detail, Drive, Fatal, Scenario, ScenarioEngine};
use devil_hwsim::devices::Busmouse;
use devil_hwsim::{DeviceId, IoSpace};

/// Port the busmouse is mapped at (the driver corpus hard-codes it).
pub const MOUSE_BASE: u16 = 0x23C;

/// One injected packet: x delta, y delta, button chord (low three bits).
type Packet = (i8, i8, u8);

/// The synthetic event stream: byte-order probes, sign changes, the full
/// button chord walk, and counter saturation (injected twice).
const STREAM: [Packet; 8] = [
    (10, 5, 0b001),    // small positive motion, left button
    (-7, 11, 0b101),   // sign change on x, chord
    (0x35, -0x21, 0b010), // both nibbles of each counter exercised
    (1, -1, 0b000),    // minimal deltas, all buttons released
    (-128, 127, 0b111),   // full-scale in one packet
    (100, -100, 0b011),   // saturation primer (injected twice per round)
    (0, 0, 0b100),     // button-only packet, no motion
    (15, -16, 0b110),  // low-nibble boundary
];

/// The mouse event-stream workload (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct MouseStreamScenario {
    mouse: Option<DeviceId>,
}

impl MouseStreamScenario {
    /// A scenario that will map a quiescent busmouse at `MOUSE_BASE`.
    pub fn new() -> Self {
        MouseStreamScenario::default()
    }
}

impl Scenario for MouseStreamScenario {
    fn name(&self) -> &'static str {
        "mouse-stream"
    }

    fn build(&mut self) -> IoSpace {
        let mut io = IoSpace::new();
        let id = io
            .map(MOUSE_BASE, 4, Box::new(Busmouse::new()))
            .expect("fresh space has no conflicting mappings");
        self.mouse = Some(id);
        io
    }

    fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive {
        let mut damage = Vec::new();
        let run = (|| {
            let id = self.mouse.expect("machine built before drive");
            let v = call(engine, "bm_probe", &[])?;
            if v.as_int().unwrap_or(-1) != 0 {
                return Err(Fatal::Halt("mouse: no busmouse found at 0x23c".into()));
            }
            for (i, &(dx, dy, buttons)) in STREAM.iter().enumerate() {
                {
                    let mouse = engine
                        .io()
                        .device_mut::<Busmouse>(id)
                        .expect("mouse mapped at build time");
                    mouse.inject_motion(dx, dy, buttons);
                    if i == 5 {
                        // Saturation: a second identical burst must pin the
                        // counters at the i8 limits, not wrap them.
                        mouse.inject_motion(dx, dy, buttons);
                    }
                }
                // Expected = what the counters actually hold at latch time
                // (self-consistent even when a mutant broke the previous
                // round's release).
                let (want_dx, want_dy, want_b) = {
                    let mouse = engine
                        .io()
                        .device_mut::<Busmouse>(id)
                        .expect("mouse mapped at build time");
                    (
                        mouse.pending_dx() as i64,
                        mouse.pending_dy() as i64,
                        mouse.buttons() as i64,
                    )
                };
                call(engine, "bm_read_state", &[])?;
                let got = |engine: &mut dyn ScenarioEngine, name: &str| {
                    engine.global_value(name, 0).and_then(|v| v.as_int())
                };
                let Some(got_dx) = got(engine, "mouse_dx") else {
                    return Err(Fatal::Damage("driver has no mouse_dx".into()));
                };
                let Some(got_dy) = got(engine, "mouse_dy") else {
                    return Err(Fatal::Damage("driver has no mouse_dy".into()));
                };
                let Some(got_b) = got(engine, "mouse_buttons") else {
                    return Err(Fatal::Damage("driver has no mouse_buttons".into()));
                };
                if (got_dx, got_dy, got_b) != (want_dx, want_dy, want_b) {
                    damage.push(format!(
                        "packet {i}: expected (dx {want_dx}, dy {want_dy}, buttons {want_b:#05b}), \
                         driver decoded (dx {got_dx}, dy {got_dy}, buttons {got_b:#05b})"
                    ));
                }
            }
            Ok(())
        })();
        Drive::from_result(run, damage)
    }

    fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>) {
        let Some(mouse) = self.mouse.and_then(|id| io.device::<Busmouse>(id)) else {
            return;
        };
        if !mouse.interrupts_enabled() {
            damage.push("interrupt gate left closed: no further events would be seen".into());
        }
    }

    fn clean_detail(&self) -> Detail {
        Detail::Borrowed("event stream completed, no damage")
    }
}
