//! The classification service, the campaigns' other front door: a traced
//! campaign run sends its sample through an `InProcServer` with one
//! worker, the default queue and a fresh ledger, over one connection from
//! the benchmark's own client, and checks every reply against the batch
//! outcome of the same mutant.
//!
//! Submissions go out closed-loop with a fixed window outstanding, below
//! the queue cap so nothing sheds. Some of them re-offer a mutant
//! answered during set-up, so the ledger serves lookups as well as
//! appends.

use crate::{ms_since, Metrics};
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::Outcome;
use devil_mutagen::{source_fingerprint, Ledger, LedgerKey, Mutant};
use devil_rng::XorShift64;
use devil_serve::proto::{read_frame, write_frame, Request, Response, ServiceStats, SubmitMutant};
use devil_serve::{InProcServer, ServeConfig};
use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// The scenario the campaigns' mutants are submitted under.
const SCENARIO: &str = "ide-boot";
/// Mutants answered during set-up: the repeats' pool.
const PRIMED: usize = 32;
/// Submissions outstanding at once (the queue holds 1,024).
const WINDOW: usize = 16;
/// Request id of the client's STATS polls.
const STATS_ID: u64 = 1 << 62;

/// What a submission carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The unmutated driver.
    Clean,
    /// A primed mutant, answered during set-up.
    Repeat(usize),
    /// A mutant offered once.
    Fresh(usize),
}

/// The driver and its mutants.
struct Pool<'a> {
    file: &'static str,
    source: &'static str,
    primed: Vec<&'a Mutant>,
    fresh: Vec<&'a Mutant>,
}

impl Pool<'_> {
    /// Source and dead-code line (0 for the clean driver) of a submission.
    fn source(&self, kind: Kind) -> (&str, u32) {
        match kind {
            Kind::Clean => (self.source, 0),
            Kind::Repeat(i) => (&self.primed[i].source, self.primed[i].line),
            Kind::Fresh(i) => (&self.fresh[i].source, self.fresh[i].line),
        }
    }

    fn submit(&self, id: u64, kind: Kind) -> Vec<u8> {
        let (source, dead_line) = self.source(kind);
        Request::Submit(SubmitMutant {
            req_id: id,
            scenario: SCENARIO.to_string(),
            plan: String::new(),
            plan_seed: 0,
            file: self.file.to_string(),
            dead_line,
            deadline_ms: 0,
            source: source.to_string(),
        })
        .encode()
    }
}

/// Markers the client's books keep beside outcome codes.
const REPLY_NONE: u8 = 255;
const REPLY_SHED: u8 = 254;
const REPLY_EXPIRED: u8 = 253;
const REPLY_ERR: u8 = 252;

/// One live server with a connected client.
struct Session {
    server: InProcServer,
    writer: devil_serve::pipe::PipeWriter,
    reader: devil_serve::pipe::PipeReader,
    ledger: PathBuf,
}

/// A ledger file of this process under `perfbench/out/`.
fn ledger_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("service-{}-{name}.ledger", std::process::id()))
}

/// The reply to one request sent on its own.
fn call(s: &mut Session, frame: &[u8]) -> Response {
    write_frame(&mut s.writer, frame).expect("in-process pipe accepts");
    let payload = read_frame(&mut s.reader)
        .expect("pipe readable")
        .expect("reply");
    Response::decode(&payload).expect("well-formed reply")
}

/// A server with a fresh ledger and a connected client (its start time
/// in ms), then the clean driver (the worker builds its machine) and
/// every primed mutant, one at a time; returns what set-up sent with the
/// outcome codes it was answered with.
fn start(pool: &Pool) -> (Session, f64, Vec<(Kind, u8)>) {
    let t = Instant::now();
    let ledger = ledger_path("served");
    if let Some(dir) = ledger.parent() {
        std::fs::create_dir_all(dir).expect("benchmark output directory");
    }
    let _ = std::fs::remove_file(&ledger);
    let server = InProcServer::start(ServeConfig {
        threads: 1,
        ledger: Some(ledger.clone()),
        ..ServeConfig::default()
    });
    let (reader, writer) = server.connect().split();
    let mut s = Session {
        server,
        writer,
        reader,
        ledger,
    };
    let reply = call(&mut s, &Request::Stats { req_id: STATS_ID }.encode());
    assert!(
        matches!(reply, Response::Stats { .. }),
        "expected STATS, got {reply:?}"
    );
    let start_ms = ms_since(t);

    let kinds = std::iter::once(Kind::Clean).chain((0..pool.primed.len()).map(Kind::Repeat));
    let sent = kinds
        .enumerate()
        .map(
            |(id, kind)| match call(&mut s, &pool.submit(id as u64, kind)) {
                Response::Outcome { outcome, .. } => (kind, outcome.code()),
                other => panic!("set-up submission not classified: {other:?}"),
            },
        )
        .collect();
    (s, start_ms, sent)
}

/// Close the connection, drain it, stop the server and remove its
/// ledger; returns the server's final STATS.
fn close(session: Session) -> ServiceStats {
    let Session {
        server,
        writer,
        mut reader,
        ledger,
    } = session;
    drop(writer);
    while let Ok(Some(_)) = read_frame(&mut reader) {}
    let stats = server.shutdown().expect("server exits cleanly");
    let _ = std::fs::remove_file(ledger);
    stats
}

/// The client's books of one closed-loop pass, indexed by submission.
struct Books {
    /// Outcome code, or one of the `REPLY_*` markers.
    reply: Vec<u8>,
    /// Request encode plus response decode time, ns.
    proto_ns: u64,
}

/// Send `shots`, request ids from `base`, each as soon as fewer than
/// `WINDOW` are outstanding, and wait for every reply.
fn closed_pass(s: &mut Session, pool: &Pool, shots: &[Kind], base: u64) -> Books {
    let reply: Vec<AtomicU8> = shots.iter().map(|_| AtomicU8::new(REPLY_NONE)).collect();
    let decode_ns = AtomicU64::new(0);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut encode_ns = 0;
    let Session { writer, reader, .. } = s;
    std::thread::scope(|scope| {
        let (reply, decode_ns) = (&reply, &decode_ns);
        let reading = scope.spawn(move || {
            while let Ok(Some(payload)) = read_frame(reader) {
                let t = Instant::now();
                let rep = Response::decode(&payload).expect("well-formed reply");
                decode_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let (id, code) = match rep {
                    Response::Outcome {
                        req_id, outcome, ..
                    } => (req_id, outcome.code()),
                    Response::Shed { req_id } => (req_id, REPLY_SHED),
                    Response::Expired { req_id } => (req_id, REPLY_EXPIRED),
                    Response::Err { req_id, .. } | Response::Draining { req_id } => {
                        (req_id, REPLY_ERR)
                    }
                    Response::Stats { .. } => return,
                };
                reply[(id - base) as usize].store(code, Ordering::Relaxed);
                done_tx.send(()).expect("client waits for replies");
            }
        });
        let mut outstanding = 0;
        for (k, &kind) in shots.iter().enumerate() {
            while outstanding >= WINDOW {
                done_rx.recv().expect("reader alive");
                outstanding -= 1;
            }
            let t = Instant::now();
            let frame = pool.submit(base + k as u64, kind);
            encode_ns += t.elapsed().as_nanos() as u64;
            write_frame(writer, &frame).expect("in-process pipe accepts");
            outstanding += 1;
        }
        for _ in 0..outstanding {
            done_rx.recv().expect("reader alive");
        }
        // A STATS reply ends the reader.
        write_frame(writer, &Request::Stats { req_id: STATS_ID }.encode())
            .expect("in-process pipe accepts");
        writer.flush().expect("in-process pipe accepts");
        reading.join().expect("reader thread");
    });
    Books {
        reply: reply.into_iter().map(AtomicU8::into_inner).collect(),
        proto_ns: encode_ns + decode_ns.into_inner(),
    }
}

/// The client's and the server's books over the whole session; pushes a
/// message for every identity that does not hold. Returns the failures
/// (sheds, expiries, refusals, unanswered, engine errors and deadlines).
fn check_books(
    shots: &[Kind],
    reply: &[u8],
    setup_sent: usize,
    server: &ServiceStats,
    errors: &mut Vec<String>,
) -> u64 {
    let n = reply.len() as u64;
    let count = |code: u8| reply.iter().filter(|r| **r == code).count() as u64;
    let (shed, expired, errs, unanswered) = (
        count(REPLY_SHED),
        count(REPLY_EXPIRED),
        count(REPLY_ERR),
        count(REPLY_NONE),
    );
    let completed = reply
        .iter()
        .filter(|r| Outcome::from_code(**r).is_some())
        .count() as u64;
    if unanswered > 0 {
        errors.push(format!("{unanswered} submissions never answered"));
    }
    if completed + shed + expired + errs != n {
        errors.push("client books: offered != completed + shed + expired + errors".into());
    }
    let offered = setup_sent as u64 + n;
    if server.completed + server.shed + server.expired + errs != offered {
        errors.push(format!(
            "STATS books: {} completed + {} shed + {} expired + {errs} errors != {offered} offered",
            server.completed, server.shed, server.expired
        ));
    }
    let repeats = shots
        .iter()
        .filter(|k| matches!(k, Kind::Repeat(_)))
        .count() as u64;
    if server.ledger_hits != repeats {
        errors.push(format!(
            "{} ledger hits for {repeats} repeats offered",
            server.ledger_hits
        ));
    }
    println!(
        "service: offered {n}: completed {completed} shed {shed} expired {expired} errors {errs}; \
         STATS accepted {} completed {} max_depth {} ledger hits {} misses {}",
        server.accepted,
        server.completed,
        server.max_depth,
        server.ledger_hits,
        server.ledger_misses
    );
    let engine_failures = reply
        .iter()
        .filter(|r| Outcome::from_code(**r).is_some_and(crate::pipeline::is_failure))
        .count();
    shed + expired + errs + unanswered + engine_failures as u64
}

/// The run's keys replayed through `Ledger::record` (each distinct mutant
/// once) and `Ledger::lookup` (every timed submission) on a scratch
/// ledger; microseconds per lookup and per append.
fn ledger_replay(pool: &Pool, distinct: &[(Kind, Outcome)], shots: &[Kind]) -> (f64, f64) {
    let rev = devil_drivers::corpus::spec_revision(DEFAULT_FUEL);
    let key = |kind: Kind| {
        let (source, line) = pool.source(kind);
        LedgerKey {
            file: pool.file.to_string(),
            source: source_fingerprint(source),
            scenario: SCENARIO.to_string(),
            plan: String::new(),
            plan_seed: 0,
            dead_line: line,
            spec_rev: rev,
        }
    };
    let path = ledger_path("replay");
    let ledger = Ledger::create(&path, rev).expect("scratch ledger");
    let keys: Vec<LedgerKey> = distinct.iter().map(|(k, _)| key(*k)).collect();
    let t = Instant::now();
    for ((_, o), k) in distinct.iter().zip(&keys) {
        ledger
            .record(k, o.code(), "")
            .expect("scratch ledger appends");
    }
    let append_us = t.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
    let lookups: Vec<LedgerKey> = shots.iter().map(|k| key(*k)).collect();
    let t = Instant::now();
    let found = lookups
        .iter()
        .filter(|k| ledger.lookup(k).is_some())
        .count();
    let lookup_us = t.elapsed().as_secs_f64() * 1e6 / lookups.len() as f64;
    assert_eq!(found, lookups.len(), "every submitted key was recorded");
    drop(ledger);
    let _ = std::fs::remove_file(path);
    (lookup_us, append_us)
}

/// Send `sample` (IDE-boot mutants of `file`, already classified as
/// `outcomes` on the batch path) through a one-worker server in one
/// closed-loop pass, one repeat of a primed mutant for every two fresh
/// ones, in an order `seed` picks. Checks the books and every outcome,
/// reports the service's per-layer metrics, and returns the submissions
/// offered and how many of them failed.
pub fn replay_sample(
    file: &'static str,
    source: &'static str,
    sample: &[Mutant],
    outcomes: &[Outcome],
    seed: u64,
    m: &mut Metrics,
    errors: &mut Vec<String>,
) -> (u64, u64) {
    // A mutant with the same (source, line) as an earlier one would be a
    // ledger hit; offer each key once.
    let mut seen = HashSet::new();
    let unique: Vec<usize> = (0..sample.len())
        .filter(|&i| seen.insert((source_fingerprint(&sample[i].source), sample[i].line)))
        .collect();
    let primed = PRIMED.min(unique.len());
    let pool = Pool {
        file,
        source,
        primed: unique[..primed].iter().map(|&i| &sample[i]).collect(),
        fresh: unique[primed..].iter().map(|&i| &sample[i]).collect(),
    };
    let batch = |kind: Kind| match kind {
        Kind::Repeat(i) => Some(outcomes[unique[i]]),
        Kind::Fresh(i) => Some(outcomes[unique[primed + i]]),
        Kind::Clean => None,
    };

    let (mut session, start_ms, setup_sent) = start(&pool);
    let fresh = pool.fresh.len();
    let mut rng = XorShift64::new(crate::mix(seed));
    let mut shots: Vec<Kind> = (0..fresh)
        .map(Kind::Fresh)
        .chain((0..fresh / 2).map(|_| Kind::Repeat(rng.below(primed as u64) as usize)))
        .collect();
    crate::shuffle(&mut shots, seed);
    let books = closed_pass(&mut session, &pool, &shots, setup_sent.len() as u64);
    let server = close(session);

    let failed = check_books(&shots, &books.reply, setup_sent.len(), &server, errors);
    let served = setup_sent
        .iter()
        .copied()
        .chain(shots.iter().copied().zip(books.reply.iter().copied()));
    for (k, (kind, code)) in served.enumerate() {
        if let Some(want) = batch(kind).filter(|w| w.code() != code) {
            errors.push(format!(
                "request {k}: service code {code} but batch {want:?}"
            ));
        }
    }
    let distinct: Vec<(Kind, Outcome)> = (0..primed)
        .map(Kind::Repeat)
        .chain((0..fresh).map(Kind::Fresh))
        .map(|kind| (kind, batch(kind).expect("mutants only")))
        .collect();
    let (lookup_us, append_us) = ledger_replay(&pool, &distinct, &shots);
    m.put("serve.start_ms", start_ms);
    m.put("mutagen.ledger_hits", server.ledger_hits as f64);
    m.put("mutagen.ledger_misses", server.ledger_misses as f64);
    m.put("mutagen.ledger_lookup_us", lookup_us);
    m.put("mutagen.ledger_append_us", append_us);
    m.put("serve.max_depth", server.max_depth as f64);
    m.put(
        "serve.proto_us",
        books.proto_ns as f64 / 1e3 / shots.len() as f64,
    );
    ((setup_sent.len() + shots.len()) as u64, failed)
}
