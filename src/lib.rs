//! # devil — a reproduction of the Devil driver-robustness evaluation
//!
//! This facade crate re-exports the whole reproduction of
//! *Improving Driver Robustness: an Evaluation of the Devil Approach*
//! (Réveillère & Muller, DSN-2001 / INRIA RR-4136):
//!
//! * [`core`] — the Devil IDL: parser, layered consistency checker, C stub
//!   generator (debug and production modes) and an executable stub runtime.
//! * [`hwsim`] — register-accurate simulated peripherals (IDE disk, NE2000,
//!   Logitech busmouse, PCI, graphics) behind a port-mapped bus.
//! * [`minic`] — a C-subset compiler and interpreter standing in for
//!   gcc + kernel execution of the drivers.
//! * [`mutagen`] — the mutation-analysis engine (literal / operator /
//!   identifier mutation operators for Devil and C).
//! * [`kernel`] — the simulated kernel boot harness and outcome classifier.
//! * [`drivers`] — the experiment corpus: five Devil specifications and the
//!   C / CDevil IDE drivers.
//! * [`cli`] — the command line of the `devil` binary and the
//!   `mutation_campaign` example.
//!
//! ## Quickstart
//!
//! ```
//! use devil::core::Spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse("busmouse.dil", devil::drivers::specs::BUSMOUSE)?;
//! let checked = spec.check()?;
//! assert_eq!(checked.device_name(), "logitech_busmouse");
//! # Ok(())
//! # }
//! ```

pub mod cli;

pub use devil_core as core;
pub use devil_drivers as drivers;
pub use devil_hwsim as hwsim;
pub use devil_kernel as kernel;
pub use devil_minic as minic;
pub use devil_mutagen as mutagen;
