//! # devil-bench — regenerating every table and figure
//!
//! One subcommand of the `devil` binary (`cargo run --release -- <subcommand>`)
//! per artefact of the paper's evaluation section:
//!
//! | artefact | subcommand |
//! |---|---|
//! | Table 1 (C operator mutation rules) | `table1` |
//! | Table 2 (Devil compiler mutation coverage) | `table2` |
//! | Table 3 (mutations on the C IDE driver) | `table3` |
//! | Table 4 (mutations on the CDevil IDE driver) | `table4` |
//! | Figure 2 (port/register/variable schematic) | `fig2` |
//! | Figure 4 (generated debug stub) | `fig4` |
//! | headline comparison (§4.2) | `repro` — runs Tables 1–4 and checks the paper's claims |
//!
//! The shared campaign machinery lives in [`tables`]; the command line
//! of every subcommand is the `devil` package's (`devil::cli`). Criterion
//! benches under `benches/` measure the compiler, the stub overhead
//! (debug vs production), mutant generation and the boot harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tables;
