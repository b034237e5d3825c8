//! Register-accurate simulated I/O hardware for the Devil reproduction.
//!
//! The Devil paper evaluates drivers against real ISA/PCI peripherals (an IDE
//! disk, an NE2000 Ethernet card, a Logitech busmouse, ...). This crate
//! provides behavioural models of those peripherals behind a single
//! [`IoSpace`] port-mapped bus, so that generated Devil stubs and C drivers
//! exercise the *same* protocol state machines the originals did.
//!
//! # Quick example
//!
//! ```
//! use devil_hwsim::{IoBus, IoSpace, devices::Busmouse};
//!
//! let mut io = IoSpace::new();
//! let mouse = io.map(0x23c, 4, Box::new(Busmouse::new())).unwrap();
//! // Write the signature register (base + 1) and read it back.
//! io.outb(0x23d, 0xA5).unwrap();
//! assert_eq!(io.inb(0x23d).unwrap(), 0xA5);
//! # let _ = mouse;
//! ```
//!
//! Device models live in [`devices`]; the bus fabric in [`bus`].
//!
//! # Campaign snapshots
//!
//! Mutation campaigns evaluate thousands of driver variants against the
//! same machine. Instead of rebuilding the [`IoSpace`] per variant, build
//! it once, capture a [`Snapshot`] with [`IoSpace::snapshot`], and rewind
//! with [`IoSpace::restore`] before each run — a memcpy-sized,
//! allocation-free reset that reuses the O(1) routing table. The
//! [`snap`] module documents the lifecycle and the
//! [`IoDevice::save`]/[`IoDevice::load`] contract device models must
//! implement to participate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod devices;
pub mod fault;
pub mod reference;
pub mod snap;

pub use bus::{
    Access, AccessKind, AccessSize, BusFault, DeviceFault, DeviceId, IoBus, IoDevice, IoSpace,
    MapError,
};
pub use fault::{FaultKind, FaultPlan, FaultRule, DEFAULT_FAULT_SEED};
pub use snap::{RestoreError, Snapshot, StateReader, StateWriter};
