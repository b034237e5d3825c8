//! NE2000 packet TX/RX stress scenario.
//!
//! An NE2000 is mapped at the classic `0x300` and the harness drives the
//! full life of a polled DP8390 driver:
//!
//! 1. **Probe** — `ne_probe()` must find the card, remote-DMA the station
//!    PROM and decode the doubled-byte station address into `ne_mac`.
//! 2. **Start** — `ne_start()` programs the receive ring and the station
//!    address and starts the NIC.
//! 3. **TX** — for each of a few frames the harness fills the driver's
//!    `net_buf` with a patterned payload and calls `ne_send(len)`; the
//!    frame that actually left on the wire (the model's transmit log) is
//!    compared byte-for-byte, and the log length catches lost or
//!    duplicated transmissions.
//! 4. **RX** — frames are injected into the receive ring and drained one
//!    by one with `ne_recv()`; the stream is long enough to wrap the ring
//!    past `PSTOP`, so a driver that cannot split a packet across the
//!    wrap point, mis-parses the little-endian ring header or walks the
//!    ring by the wrong page count returns corrupted payloads (damaged
//!    boot). An empty-ring read at the end catches phantom packets.
//!
//! Ground truth: the NIC must still be running and its programmed station
//! address must match the PROM.

use crate::scenario::{call, Detail, Drive, Fatal, Scenario, ScenarioEngine};
use devil_hwsim::devices::Ne2000;
use devil_hwsim::{DeviceId, IoSpace};
use devil_minic::value::Value;

/// Port the NE2000 is mapped at (the driver corpus hard-codes it).
pub const NE2000_BASE: u16 = 0x300;

/// Station address burned into the simulated PROM.
pub const NE2000_MAC: [u8; 6] = [0x00, 0x0E, 0xA5, 0x44, 0x45, 0x56];

/// TX rounds driven through `ne_send`.
const TX_ROUNDS: usize = 3;

/// RX frame lengths (bytes, even so the word-wide data port maps
/// exactly). Fifteen 1016-byte frames occupy 60 ring pages — past the
/// 57-page ring, so the sixteenth (short) frame is read across the wrap.
const RX_LENS: [usize; 16] = [
    1016, 1016, 1016, 1016, 1016, 1016, 1016, 1016, 1016, 1016, 1016, 1016, 1016, 1016,
    1016, 252,
];

/// TX payload for round `k` (even length, word-patterned).
fn tx_frame(k: usize) -> Vec<u8> {
    let len = 60 + 2 * k;
    (0..len / 2)
        .flat_map(|i| (((k as u32 * 37 + i as u32 * 7 + 1) & 0xFFFF) as u16).to_le_bytes())
        .collect()
}

/// RX payload for round `r`.
fn rx_frame(r: usize) -> Vec<u8> {
    (0..RX_LENS[r]).map(|j| ((r * 31 + j) & 0xFF) as u8).collect()
}

/// The NE2000 TX/RX stress workload (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Ne2000StressScenario {
    nic: Option<DeviceId>,
}

impl Ne2000StressScenario {
    /// A scenario that will map a stopped NE2000 at `NE2000_BASE`.
    pub fn new() -> Self {
        Ne2000StressScenario::default()
    }
}

impl Scenario for Ne2000StressScenario {
    fn name(&self) -> &'static str {
        "ne2000-stress"
    }

    fn build(&mut self) -> IoSpace {
        let mut io = IoSpace::new();
        let id = io
            .map(NE2000_BASE, 0x20, Box::new(Ne2000::new(NE2000_MAC)))
            .expect("fresh space has no conflicting mappings");
        self.nic = Some(id);
        io
    }

    fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive {
        let mut damage = Vec::new();
        let run = (|| {
            let id = self.nic.expect("machine built before drive");
            // 1. Probe.
            let v = call(engine, "ne_probe", &[])?;
            if v.as_int().unwrap_or(-1) != 0 {
                return Err(Fatal::Halt("ne2000: no card found at 0x300".into()));
            }
            match engine.global_values("ne_mac") {
                None => return Err(Fatal::Damage("driver has no ne_mac".into())),
                Some(words) => {
                    let got: Vec<u8> = words
                        .iter()
                        .take(6)
                        .map(|w| w.as_int().unwrap_or(-1) as u8)
                        .collect();
                    if got != NE2000_MAC {
                        damage.push(format!(
                            "probe decoded a wrong station address {got:02x?}"
                        ));
                    }
                }
            }
            // 2. Start.
            let v = call(engine, "ne_start", &[])?;
            if v.as_int().unwrap_or(-1) != 0
                || !engine
                    .io()
                    .device_mut::<Ne2000>(id)
                    .expect("nic mapped at build time")
                    .is_running()
            {
                return Err(Fatal::Halt("ne2000: interface failed to start".into()));
            }
            // 3. TX. The expected wire count tracks *successful* sends, so
            // one reported failure does not mislabel later healthy rounds.
            let mut sent = 0usize;
            for k in 0..TX_ROUNDS {
                let frame = tx_frame(k);
                for (i, pair) in frame.chunks_exact(2).enumerate() {
                    let w = u16::from_le_bytes([pair[0], pair[1]]);
                    engine.set_global_element("net_buf", i, Value::Int(w as i64));
                }
                let v = call(engine, "ne_send", &[Value::Int(frame.len() as i64)])?;
                if v.as_int().unwrap_or(-1) != 0 {
                    damage.push(format!("tx {k}: driver reported a send failure"));
                    continue;
                }
                sent += 1;
                let nic = engine
                    .io()
                    .device_mut::<Ne2000>(id)
                    .expect("nic mapped at build time");
                if nic.tx_log().len() != sent {
                    damage.push(format!(
                        "tx {k}: {} frames on the wire after {sent} successful sends \
                         (lost or duplicated)",
                        nic.tx_log().len(),
                    ));
                } else if nic.tx_log()[sent - 1] != frame {
                    damage.push(format!("tx {k}: frame corrupted on the wire"));
                }
            }
            // 4. RX, far enough to wrap the receive ring.
            for r in 0..RX_LENS.len() {
                let frame = rx_frame(r);
                let delivered = engine
                    .io()
                    .device_mut::<Ne2000>(id)
                    .expect("nic mapped at build time")
                    .inject_frame(&frame);
                if !delivered {
                    damage.push(format!("rx {r}: NIC dropped the frame (stopped)"));
                    continue;
                }
                let v = call(engine, "ne_recv", &[])?;
                let got_len = v.as_int().unwrap_or(-1);
                if got_len != frame.len() as i64 {
                    damage.push(format!(
                        "rx {r}: driver returned {got_len} for a {}-byte frame",
                        frame.len()
                    ));
                    continue;
                }
                let Some(words) = engine.global_values("net_buf") else {
                    return Err(Fatal::Damage("driver has no net_buf".into()));
                };
                let got: Vec<u8> = words
                    .iter()
                    .take(frame.len() / 2)
                    .flat_map(|w| (w.as_int().unwrap_or(0) as u16).to_le_bytes())
                    .collect();
                if got != frame {
                    damage.push(format!("rx {r}: payload corrupted in the ring"));
                }
            }
            // Phantom-packet check: the drained ring must read empty.
            let v = call(engine, "ne_recv", &[])?;
            if v.as_int().unwrap_or(0) != -1 {
                damage.push("phantom packet received from an empty ring".into());
            }
            Ok(())
        })();
        Drive::from_result(run, damage)
    }

    fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>) {
        let Some(nic) = self.nic.and_then(|id| io.device::<Ne2000>(id)) else {
            return;
        };
        if !nic.is_running() {
            damage.push("NIC left stopped: no further traffic would be seen".into());
        }
        if nic.programmed_mac() != NE2000_MAC {
            damage.push(format!(
                "station address misprogrammed: PAR holds {:02x?}",
                nic.programmed_mac()
            ));
        }
    }

    fn clean_detail(&self) -> Detail {
        Detail::Borrowed("packet stress completed, no damage")
    }
}
