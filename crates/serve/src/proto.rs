//! The campaign service wire protocol: length-prefixed binary frames.
//!
//! Deliberately minimal and dependency-free — the same shape whether the
//! bytes cross a TCP socket or an in-process [`pipe`](crate::pipe):
//!
//! ```text
//! frame   := len:u32le payload
//! payload := tag:u8 fields...
//! u64/u32 := little-endian
//! string  := len:u32le utf8-bytes
//! ```
//!
//! Payload fields use the outcome ledger's codec
//! ([`devil_mutagen::codec`]).
//!
//! Requests carry a client-chosen `req_id`; every submission produces
//! **exactly one** response bearing the same id — a classified
//! [`Outcome`], a `Shed` rejection when the server's admission queue is
//! full (or when a drain shed it before a worker got to it), an
//! `Expired` when the submission's own `deadline_ms` passed while it was
//! still queued, or an `Err` for malformed routing (unknown scenario,
//! driver or fault plan) and for quarantined job keys. Responses arrive
//! in *completion* order, not submission order: the id is the only
//! correlation, which is what lets the client drive the server open-loop
//! with any number of requests in flight.
//!
//! A `Drain` request asks the server to begin graceful shutdown: stop
//! accepting connections, run what is queued until the grace period ends
//! (then shed the rest explicitly), flush every reply, and exit. It is
//! acknowledged immediately with `Draining`; all in-flight submissions
//! still get their one response.
//!
//! Outcomes cross the wire as [`Outcome::code`] (the index into
//! `Outcome::table_order()`), so the protocol inherits the taxonomy's
//! stability guarantees.

use devil_kernel::Outcome;
use devil_mutagen::codec::{put_str, put_u32, put_u64, Reader};
use std::io::{self, Read, Write};

/// Frames above this are rejected as malformed (largest legitimate frame
/// is a driver source of a few tens of KiB).
pub const MAX_FRAME: u32 = 16 << 20;

const REQ_SUBMIT: u8 = 1;
const REQ_STATS: u8 = 2;
const REQ_DRAIN: u8 = 3;
const REP_OUTCOME: u8 = 17;
const REP_SHED: u8 = 18;
const REP_STATS: u8 = 19;
const REP_ERR: u8 = 20;
const REP_EXPIRED: u8 = 21;
const REP_DRAINING: u8 = 22;

/// One mutant-classification request: which workload to run (scenario ×
/// fault plan) and what to run under it (a driver source, spliced with
/// one mutation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitMutant {
    /// Client-chosen correlation id, echoed on the response.
    pub req_id: u64,
    /// Catalog scenario name (base form, e.g. `ide-boot`).
    pub scenario: String,
    /// Bundled fault-plan name, or empty for fault-free hardware.
    pub plan: String,
    /// PRNG seed for the fault plan (ignored when `plan` is empty).
    pub plan_seed: u64,
    /// Driver file name — routes to the catalog's include headers.
    pub file: String,
    /// 1-based line of the mutation for dead-code refinement (0 = none).
    pub dead_line: u32,
    /// Wall-clock budget in milliseconds, counted from **admission** (so
    /// time spent queued is part of it): past the budget a queued job is
    /// answered `Expired` without running, and a running job is cut off
    /// and classified `Deadline`. 0 = no deadline.
    pub deadline_ms: u32,
    /// The full mutated driver source.
    pub source: String,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Classify one mutant.
    Submit(SubmitMutant),
    /// Snapshot the server's backpressure counters.
    Stats {
        /// Correlation id echoed on the stats response.
        req_id: u64,
    },
    /// Begin graceful shutdown: stop admitting, drain the queue, flush
    /// every reply, exit. Acknowledged with [`Response::Draining`].
    Drain {
        /// Correlation id echoed on the ack.
        req_id: u64,
        /// Grace period in milliseconds before still-queued jobs are shed
        /// explicitly (0 = the server's configured default).
        grace_ms: u32,
    },
}

/// One `(driver file, source fingerprint)` pair the server refuses at
/// admission, listed in [`ServiceStats::quarantined`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct QuarantinedPair {
    /// Driver file of the offending submissions.
    pub file: String,
    /// FNV fingerprint of the exact mutant source.
    pub fingerprint: u64,
    /// Engine-failure strikes recorded against the pair.
    pub strikes: u32,
}

/// Server-side counters reported by [`Response::Stats`] — the
/// backpressure ledger of the service.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Submissions admitted into the work queue.
    pub accepted: u64,
    /// Submissions classified and answered — including ledger hits
    /// answered at admission, which never enter the queue, so with a
    /// warm outcome ledger `completed` can exceed `accepted`.
    pub completed: u64,
    /// Submissions rejected because the queue was at capacity, plus jobs
    /// shed explicitly when a drain grace period ran out.
    pub shed: u64,
    /// Submissions whose own deadline passed while they were queued —
    /// answered [`Response::Expired`] without running.
    pub expired: u64,
    /// Queue depth at snapshot time.
    pub depth: u64,
    /// Highest queue depth observed — the backlog high-water mark.
    pub max_depth: u64,
    /// Worker threads classifying mutants.
    pub workers: u64,
    /// Submissions answered in O(1) from the outcome ledger (including
    /// the sampled fraction sent on to live verification).
    pub ledger_hits: u64,
    /// Submissions the outcome ledger had no entry for (0 when the
    /// server runs without a ledger).
    pub ledger_misses: u64,
    /// Ledger hits replayed against the live engine that matched the
    /// stored outcome (the `--verify-fraction` sample).
    pub ledger_verified: u64,
    /// Ledger hits whose live replay *disagreed* with the stored outcome
    /// — treated as ledger corruption: the entry was evicted, the fresh
    /// outcome recorded and served.
    pub ledger_diverged: u64,
    /// Compiles that resumed preprocessing from a driver's front-end
    /// checkpoint instead of compiling the driver's headers again,
    /// summed over the server's per-driver include caches.
    pub compiles_resumed: u64,
    /// Compiles that ran every front-end stage over the whole unit.
    pub compiles_full: u64,
    /// Every `(file, fingerprint)` pair currently refused at admission
    /// (strikes at or over the server's quarantine limit), with its
    /// durable strike count.
    pub quarantined: Vec<QuarantinedPair>,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The classified outcome of a submission.
    Outcome {
        /// Correlation id of the submission.
        req_id: u64,
        /// The paper-taxonomy classification.
        outcome: Outcome,
        /// One-line explanation, as produced by the classifier.
        detail: String,
    },
    /// The submission was rejected: the admission queue was full.
    Shed {
        /// Correlation id of the submission.
        req_id: u64,
    },
    /// Backpressure counters, answering [`Request::Stats`].
    Stats {
        /// Correlation id of the stats request.
        req_id: u64,
        /// The counter snapshot.
        stats: ServiceStats,
    },
    /// The submission could not be routed (unknown scenario, driver
    /// file or fault plan), or its job key is quarantined after repeated
    /// engine failures.
    Err {
        /// Correlation id of the submission.
        req_id: u64,
        /// What was wrong with it.
        message: String,
    },
    /// The submission's own `deadline_ms` passed while it waited in the
    /// queue; it was not run.
    Expired {
        /// Correlation id of the submission.
        req_id: u64,
    },
    /// Ack of a [`Request::Drain`]: the server has begun graceful
    /// shutdown.
    Draining {
        /// Correlation id of the drain request.
        req_id: u64,
    },
}

// ------------------------------------------------------------ encoding

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Request {
    /// Encode into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Submit(s) => {
                out.push(REQ_SUBMIT);
                put_u64(&mut out, s.req_id);
                put_str(&mut out, &s.scenario);
                put_str(&mut out, &s.plan);
                put_u64(&mut out, s.plan_seed);
                put_str(&mut out, &s.file);
                put_u32(&mut out, s.dead_line);
                put_u32(&mut out, s.deadline_ms);
                put_str(&mut out, &s.source);
            }
            Request::Stats { req_id } => {
                out.push(REQ_STATS);
                put_u64(&mut out, *req_id);
            }
            Request::Drain { req_id, grace_ms } => {
                out.push(REQ_DRAIN);
                put_u64(&mut out, *req_id);
                put_u32(&mut out, *grace_ms);
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut c = Reader::new(payload);
        let req = match c.u8()? {
            REQ_SUBMIT => Request::Submit(SubmitMutant {
                req_id: c.u64()?,
                scenario: c.str()?,
                plan: c.str()?,
                plan_seed: c.u64()?,
                file: c.str()?,
                dead_line: c.u32()?,
                deadline_ms: c.u32()?,
                source: c.str()?,
            }),
            REQ_STATS => Request::Stats { req_id: c.u64()? },
            REQ_DRAIN => Request::Drain { req_id: c.u64()?, grace_ms: c.u32()? },
            tag => return Err(malformed(&format!("unknown request tag {tag}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Outcome { req_id, outcome, detail } => {
                out.push(REP_OUTCOME);
                put_u64(&mut out, *req_id);
                out.push(outcome.code());
                put_str(&mut out, detail);
            }
            Response::Shed { req_id } => {
                out.push(REP_SHED);
                put_u64(&mut out, *req_id);
            }
            Response::Stats { req_id, stats } => {
                out.push(REP_STATS);
                put_u64(&mut out, *req_id);
                for v in [
                    stats.accepted,
                    stats.completed,
                    stats.shed,
                    stats.expired,
                    stats.depth,
                    stats.max_depth,
                    stats.workers,
                    stats.ledger_hits,
                    stats.ledger_misses,
                    stats.ledger_verified,
                    stats.ledger_diverged,
                    stats.compiles_resumed,
                    stats.compiles_full,
                ] {
                    put_u64(&mut out, v);
                }
                put_u32(&mut out, stats.quarantined.len() as u32);
                for q in &stats.quarantined {
                    put_str(&mut out, &q.file);
                    put_u64(&mut out, q.fingerprint);
                    put_u32(&mut out, q.strikes);
                }
            }
            Response::Err { req_id, message } => {
                out.push(REP_ERR);
                put_u64(&mut out, *req_id);
                put_str(&mut out, message);
            }
            Response::Expired { req_id } => {
                out.push(REP_EXPIRED);
                put_u64(&mut out, *req_id);
            }
            Response::Draining { req_id } => {
                out.push(REP_DRAINING);
                put_u64(&mut out, *req_id);
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut c = Reader::new(payload);
        let rep = match c.u8()? {
            REP_OUTCOME => {
                let req_id = c.u64()?;
                let code = c.u8()?;
                let outcome = Outcome::from_code(code)
                    .ok_or_else(|| malformed(&format!("bad outcome code {code}")))?;
                Response::Outcome { req_id, outcome, detail: c.str()? }
            }
            REP_SHED => Response::Shed { req_id: c.u64()? },
            REP_STATS => {
                let req_id = c.u64()?;
                let mut stats = ServiceStats {
                    accepted: c.u64()?,
                    completed: c.u64()?,
                    shed: c.u64()?,
                    expired: c.u64()?,
                    depth: c.u64()?,
                    max_depth: c.u64()?,
                    workers: c.u64()?,
                    ledger_hits: c.u64()?,
                    ledger_misses: c.u64()?,
                    ledger_verified: c.u64()?,
                    ledger_diverged: c.u64()?,
                    compiles_resumed: c.u64()?,
                    compiles_full: c.u64()?,
                    quarantined: Vec::new(),
                };
                let n = c.u32()?;
                for _ in 0..n {
                    stats.quarantined.push(QuarantinedPair {
                        file: c.str()?,
                        fingerprint: c.u64()?,
                        strikes: c.u32()?,
                    });
                }
                Response::Stats { req_id, stats }
            }
            REP_ERR => Response::Err { req_id: c.u64()?, message: c.str()? },
            REP_EXPIRED => Response::Expired { req_id: c.u64()? },
            REP_DRAINING => Response::Draining { req_id: c.u64()? },
            tag => return Err(malformed(&format!("unknown response tag {tag}"))),
        };
        c.finish()?;
        Ok(rep)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| malformed("frame too large"))?;
    if len > MAX_FRAME {
        return Err(malformed("frame too large"));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Read one length-prefixed frame; `None` on a clean EOF at a frame
/// boundary (the peer closed between messages).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len_bytes[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(malformed("eof inside frame header"));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(malformed("frame too large"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_submit() -> Request {
        Request::Submit(SubmitMutant {
            req_id: 0xDEAD_BEEF_1234,
            scenario: "ide-boot".into(),
            plan: "mixed".into(),
            plan_seed: 0xD5,
            file: "ide_piix4.c".into(),
            dead_line: 42,
            deadline_ms: 250,
            source: "int main() { return 0; }".into(),
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            sample_submit(),
            Request::Stats { req_id: 7 },
            Request::Drain { req_id: 8, grace_ms: 1_500 },
        ] {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let all = [
            Response::Outcome {
                req_id: 1,
                outcome: Outcome::RuntimeCheck,
                detail: "Devil assertion failed".into(),
            },
            Response::Shed { req_id: 2 },
            Response::Stats {
                req_id: 3,
                stats: ServiceStats {
                    accepted: 10,
                    completed: 7,
                    shed: 2,
                    expired: 1,
                    depth: 1,
                    max_depth: 5,
                    workers: 4,
                    ledger_hits: 6,
                    ledger_misses: 4,
                    ledger_verified: 2,
                    ledger_diverged: 1,
                    compiles_resumed: 40,
                    compiles_full: 2,
                    quarantined: vec![
                        QuarantinedPair {
                            file: "busmouse.c".into(),
                            fingerprint: 0xFEED_FACE,
                            strikes: 3,
                        },
                        QuarantinedPair {
                            file: "ide_piix4.c".into(),
                            fingerprint: 7,
                            strikes: 5,
                        },
                    ],
                },
            },
            Response::Stats { req_id: 11, stats: ServiceStats::default() },
            Response::Err { req_id: 4, message: "unknown scenario `nope`".into() },
            Response::Expired { req_id: 5 },
            Response::Draining { req_id: 6 },
        ];
        for rep in all {
            let payload = rep.encode();
            assert_eq!(Response::decode(&payload).unwrap(), rep);
        }
    }

    #[test]
    fn every_outcome_crosses_the_wire() {
        for outcome in Outcome::table_order() {
            let rep = Response::Outcome { req_id: 9, outcome, detail: String::new() };
            assert_eq!(Response::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample_submit().encode()).unwrap();
        write_frame(&mut buf, &Request::Stats { req_id: 1 }.encode()).unwrap();
        let mut r = &buf[..];
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::decode(&f1).unwrap(), sample_submit());
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::decode(&f2).unwrap(), Request::Stats { req_id: 1 });
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Truncated payload.
        assert!(Request::decode(&[REQ_SUBMIT, 1, 2]).is_err());
        // Unknown tags.
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
        // Trailing garbage.
        let mut payload = Request::Stats { req_id: 1 }.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
        // Bad outcome code.
        let mut rep =
            Response::Outcome { req_id: 1, outcome: Outcome::Boot, detail: String::new() }
                .encode();
        rep[9] = 200;
        assert!(Response::decode(&rep).is_err());
        // EOF mid-header.
        let mut r = &[0u8, 0][..];
        assert!(read_frame(&mut r).is_err());
        // Oversized frame length.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }
}
