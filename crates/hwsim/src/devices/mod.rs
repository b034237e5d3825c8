//! Behavioural models of the peripherals used in the paper's evaluation.
//!
//! | Model | Paper role |
//! |---|---|
//! | [`Busmouse`] | Logitech busmouse — the running example (Figure 3) |
//! | [`IdeController`] / [`IdeDisk`] | Intel PIIX4-style IDE channel — the Table 3/4 experiments |
//! | [`Ne2000`] | NE2000 (ns8390) Ethernet controller — Table 2 spec |
//! | [`PciConfigSpace`] / [`BusMasterIde`] | Intel 82371FB PCI bus-master IDE function — Table 2 spec |
//! | [`Permedia2`] | Permedia 2 graphics FIFO — Table 2 spec |

mod busmouse;
mod ide;
mod ne2000;
mod pci;
mod permedia2;

pub use busmouse::Busmouse;
pub use ide::{IdeController, IdeDisk, IdeGeometry, SECTOR_SIZE};
pub use ne2000::Ne2000;
pub use pci::{BusMasterIde, PciConfigSpace, PciFunction};
pub use permedia2::Permedia2;
