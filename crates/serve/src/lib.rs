//! Campaign-as-a-service: a long-running mutant-classification server
//! and the open-loop load client that measures it.
//!
//! The batch engine (`devil_mutagen::Campaign`) answers "classify these
//! N mutants" and exits. This crate keeps the same classification
//! machinery resident: simulated machines stay built, include caches
//! stay lexed, and mutants arrive as requests over a byte stream —
//! which is how a CI fleet or a fuzzing frontend would actually consume
//! the service, and what makes *tail latency* a first-class number next
//! to throughput.
//!
//! # Protocol
//!
//! A symmetric, length-prefixed binary framing over any reliable byte
//! stream (TCP, or the in-process [`pipe`] for hermetic tests):
//!
//! ```text
//! frame    := len:u32le payload
//! payload  := tag:u8 body
//! requests := SUBMIT(1)  req_id scenario plan plan_seed file dead_line deadline_ms source
//!             STATS(2)   req_id
//!             DRAIN(3)   req_id grace_ms
//! replies  := OUTCOME(17)  req_id outcome_code detail
//!             SHED(18)     req_id
//!             STATS(19)    req_id counters
//!             ERR(20)      req_id message
//!             EXPIRED(21)  req_id
//!             DRAINING(22) req_id
//! ```
//!
//! Strings are `u32le`-length-prefixed UTF-8; integers little-endian;
//! outcomes cross the wire as their stable table-order code
//! (`Outcome::code`). Responses come back **in completion order**, not
//! submission order, correlated by `req_id` — that is what lets an
//! open-loop client keep many submissions in flight on one connection.
//! Exact encodings live in [`proto`].
//!
//! # Workload-mix config
//!
//! The load client takes a comma-separated mix spec,
//! `scenario[+faults][/driver][:mutant_fraction[:weight]]` — e.g.
//! `ide-boot/ide_piix4_c:0.8:2,mouse-stream+faults`. Grammar and
//! semantics are documented in [`load`].
//!
//! # Backpressure
//!
//! Admission is a bounded queue ([`devil_mutagen::JobQueue`]). A
//! submission that arrives when the queue is full is **shed**: answered
//! immediately with `SHED` rather than buffered, so the client always
//! learns each request's fate and an overloaded server degrades into an
//! explicit shed rate instead of unbounded queueing delay. The server
//! counts accepted/shed/expired/depth/max-depth; `STATS` requests read
//! them live, and the final counters come back at the end of a load run.
//!
//! # Failure taxonomy
//!
//! Every submission the server accepts resolves to exactly one terminal
//! reply — nothing is silently dropped, even when the workload is
//! hostile. The full accounting identity, on both the client's and the
//! server's books, is
//!
//! ```text
//! offered = completed + shed + expired + errors
//! ```
//!
//! | reply     | meaning                                                        |
//! |-----------|----------------------------------------------------------------|
//! | `OUTCOME` | classified; the paper's taxonomy (`Outcome::code`), including: |
//! |           | — `EngineError`: the *engine* panicked classifying this mutant. The worker caught the panic, discarded and rebuilt its workspace, and the service kept going (see `Campaign::supervised`). Repeat offenders are quarantined. |
//! |           | — `Deadline`: the run overran its `deadline_ms` wall-clock budget and was stopped cooperatively (fuel accounting untouched). |
//! | `SHED`    | refused at admission (queue full), or force-shed from the queue when a drain deadline passed |
//! | `EXPIRED` | spent its whole `deadline_ms` budget waiting in the queue; shed at pop without paying for a run |
//! | `ERR`     | never admitted: bad routing fields, or the `(file, source)` pair is quarantined after repeated engine failures |
//! | `DRAINING`| submitted after a drain began; resubmit elsewhere |
//!
//! A drain (`DRAIN` request, [`DrainHandle::drain`], or the binary's
//! SIGTERM handler) stops admissions, finishes the queued work within
//! the drain grace, then hangs up only after every reply has flushed.
//!
//! # Pieces
//!
//! * [`server`] — admission, the queue-fed worker pool, per-workload
//!   machine caching, TCP and in-process transports;
//! * [`load`] — the open-loop client: fixed offered rate, workload
//!   mixes, HDR latency histogram, backpressure accounting;
//! * [`proto`] — wire types and framing;
//! * [`hist`] — the fixed-footprint latency histogram;
//! * [`pipe`] — in-process duplex streams with TCP-like half-close.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod load;
pub mod pipe;
pub mod proto;
pub mod server;

pub use hist::Histogram;
pub use load::{parse_mix, run_load, LoadConfig, LoadReport, MixEntry};
pub use proto::{QuarantinedPair, Request, Response, ServiceStats, SubmitMutant};
pub use server::{
    serve_tcp, serve_with, ConnBreaker, DrainHandle, Duplex, InProcServer, ServeConfig,
};
