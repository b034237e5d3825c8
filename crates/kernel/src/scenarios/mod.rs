//! The bundled scenarios: one driver-specific activity per module, all
//! running through the [`crate::scenario`] engine.
//!
//! | scenario | device model | workload |
//! |---|---|---|
//! | [`IdeBootScenario`] | PIIX4 IDE | probe, mount, integrity, write test — the paper's §4.2 boot |
//! | [`IdeStressScenario`] | PIIX4 IDE | boot plus repeated multi-pattern write/read-back and re-verification rounds |
//! | [`MouseStreamScenario`] | Logitech busmouse | synthetic motion-packet stream with per-packet delta/button verification |
//! | [`Ne2000StressScenario`] | NE2000 | PROM probe, ring setup, TX frame checks, RX ring traversal across the wrap point |
//!
//! Every scenario classifies into the same [`Outcome`](crate::scenario::Outcome)
//! taxonomy and is runnable through `mutagen::Campaign` via
//! [`ScenarioMachine`](crate::scenario::ScenarioMachine); the driver corpus
//! that pairs with each scenario lives in `devil_drivers::corpus`.

pub(crate) mod ide_boot;
mod ide_stress;
mod mouse_stream;
mod ne2000_stress;

pub use ide_boot::IdeBootScenario;
pub use ide_stress::IdeStressScenario;
pub use mouse_stream::MouseStreamScenario;
pub use ne2000_stress::Ne2000StressScenario;
