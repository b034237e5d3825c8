//! # devil-mutagen — the mutation-analysis engine
//!
//! Implements the error model of §3 of the paper: typographical and
//! inattention errors simulated by three operator families, for both the
//! Devil language and C:
//!
//! * **literal mutations** — insert, remove or replace one character of a
//!   literal constant, always within its semantic class (decimal digits,
//!   hexadecimal digits, octal digits, bit-string symbols `{0,1,*}`,
//!   bit-pattern symbols `{0,1,*,.}`);
//! * **operator mutations** — swap an operator for another of the same
//!   semantic class (Table 1 for C; range/set `,`/`..` and the mapping
//!   arrows for Devil);
//! * **identifier mutations** — replace an identifier with another defined
//!   in the same file; in plain C the pre-processor erases all abstraction
//!   so *any* identifier is a candidate, while Devil and CDevil swaps stay
//!   within the same semantic class (register/variable; `get_`/`set_`
//!   stub family; typed constants).
//!
//! Every generated mutant is syntactically valid and semantically different
//! from the original (§3.1) — candidates violating either rule are
//! discarded during generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c;
pub mod campaign;
pub mod devil;
pub mod ledger;
pub mod literal;
pub mod operator;
pub mod quarantine;
pub mod queue;
pub mod site;

pub use campaign::{
    effective_threads, panic_text, run_parallel, sample, Campaign, Recover, Supervise,
    Unsupervised,
};
pub use ledger::{source_fingerprint, Admission, Ledger, LedgerCounters, LedgerKey, Ticket};
pub use quarantine::Quarantine;
pub use queue::{JobQueue, QueueStats};
pub use site::{Mutant, MutationSite, SiteKind};
