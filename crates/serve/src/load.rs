//! The open-loop load client: offered rate, workload mixes, tail
//! latency.
//!
//! A closed-loop client (send, wait, send) measures the *server's* pace,
//! not the service's behaviour under load: when the server slows down
//! the client slows with it, and queueing delay never appears in the
//! numbers. This client is **open-loop**: submission `n` is sent at
//! `start + n / freq` whether or not earlier responses have arrived, so
//! the offered rate is held fixed and every millisecond a response is
//! late shows up as measured latency. Coordinated omission is designed
//! out rather than corrected for.
//!
//! # Workload mix
//!
//! The mix is a comma-separated list of entries
//!
//! ```text
//! scenario[+faults][/driver][:mutant_fraction[:weight]]
//! ```
//!
//! * `scenario` — a catalog scenario name, optionally with one `+faults`
//!   suffix for the same workload under the catalog's default fault plan
//!   (`devil_drivers::corpus::parse_scenario` reads the name, as it does
//!   for `build_scenario`);
//! * `driver` — a driver label from the scenario's catalog entry
//!   (default: the scenario's first driver);
//! * `mutant_fraction` — the probability in `[0,1]` that a submission
//!   carries a sampled mutant rather than the clean golden source
//!   (default 1.0);
//! * `weight` — relative integer frequency of this entry in the mix
//!   (default 1).
//!
//! `ide-boot/ide_piix4_c:0.8:2,mouse-stream+faults` offers two IDE-boot
//! submissions (80% mutants) for every faulted mouse-stream one.
//!
//! # Backpressure
//!
//! The server's admission queue is bounded; when it is full, submissions
//! are *shed* — answered immediately with a shed notice instead of
//! queued. With [`LoadConfig::deadline_ms`] set, submissions that sit in
//! the server's queue past their wall-clock budget come back *expired*
//! instead of late. The client counts sheds and expiries separately from
//! completions, so a saturated server shows up as explicit rates, not as
//! silently missing work: `offered = completed + shed + expired +
//! errors` once the run drains.

use crate::hist::Histogram;
use crate::proto::{
    read_frame, write_frame, Request, Response, ServiceStats, SubmitMutant,
};
use crate::server::Duplex;
use devil_drivers::corpus::{default_fault_plan, find_variant, parse_scenario};
use devil_kernel::Outcome;
use devil_mutagen::sample;
use devil_rng::XorShift64;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One resolved entry of the workload mix; see the [module docs](self)
/// for the textual form.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// Base scenario name (no `+faults` suffix).
    pub scenario: String,
    /// Fault plan name, empty for fault-free hardware.
    pub plan: String,
    /// Seed for the fault plan's PRNG.
    pub plan_seed: u64,
    /// Driver label within the scenario's catalog entry.
    pub driver: String,
    /// Probability a submission is a mutant (vs the clean source).
    pub mutant_fraction: f64,
    /// Relative weight in the mix.
    pub weight: u32,
}

/// Parse a workload-mix spec (see the [module docs](self)).
pub fn parse_mix(spec: &str) -> Result<Vec<MixEntry>, String> {
    let mut mix = Vec::new();
    for raw in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let mut fields = raw.split(':');
        let name = fields.next().expect("split yields at least one field");
        let (scenario, driver) = match name.split_once('/') {
            Some((s, d)) => (s, Some(d)),
            None => (name, None),
        };
        let (case, plan) = parse_scenario(scenario)
            .ok_or_else(|| format!("unknown scenario `{scenario}` in mix entry `{raw}`"))?;
        let driver = match driver {
            None => &case.drivers[0],
            Some(d) => case.drivers.iter().find(|v| v.label == d).ok_or_else(|| {
                format!(
                    "unknown driver `{d}` for scenario `{}` in mix entry `{raw}`",
                    case.scenario
                )
            })?,
        };
        let mutant_fraction = match fields.next() {
            None => 1.0,
            Some(f) => {
                let v: f64 = f
                    .parse()
                    .map_err(|_| format!("bad mutant fraction `{f}` in mix entry `{raw}`"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!(
                        "mutant fraction `{f}` outside 0..=1 in mix entry `{raw}`"
                    ));
                }
                v
            }
        };
        let weight = match fields.next() {
            None => 1,
            Some(w) => w
                .parse::<u32>()
                .ok()
                .filter(|w| *w > 0)
                .ok_or_else(|| format!("bad weight `{w}` in mix entry `{raw}`"))?,
        };
        if let Some(extra) = fields.next() {
            return Err(format!("trailing field `{extra}` in mix entry `{raw}`"));
        }
        mix.push(MixEntry {
            scenario: case.scenario.to_string(),
            plan: plan.as_ref().map_or("", |p| p.name()).to_string(),
            plan_seed: default_fault_plan().seed(),
            driver: driver.label.to_string(),
            mutant_fraction,
            weight,
        });
    }
    if mix.is_empty() {
        return Err("empty workload mix".to_string());
    }
    Ok(mix)
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered rate in submissions per second.
    pub freq: f64,
    /// Total submissions to offer (run duration ≈ `total / freq`).
    pub total: u64,
    /// The workload mix.
    pub mix: Vec<MixEntry>,
    /// Seed for mutant sampling and mix picks.
    pub seed: u64,
    /// Print a progress line (with fresh server counters) this often;
    /// `None` runs silently.
    pub report_every: Option<Duration>,
    /// Per-submission wall-clock deadline in milliseconds, carried in
    /// each SUBMIT frame; 0 submits without a deadline.
    pub deadline_ms: u32,
}

impl Default for LoadConfig {
    /// A bare `devil load` or `devil selftest`: 250 submissions at 50/s
    /// over the IDE boot and the faulted mouse stream, silent, with no
    /// per-submission deadline.
    fn default() -> Self {
        LoadConfig {
            freq: 50.0,
            total: 250,
            mix: parse_mix("ide-boot,mouse-stream+faults")
                .expect("the default mix names catalog scenarios"),
            seed: 42,
            report_every: None,
            deadline_ms: 0,
        }
    }
}

/// Drain budget (the wait for the last replies once every submission is
/// offered) when no per-job deadline bounds the tail.
const DRAIN_WAIT_FALLBACK: Duration = Duration::from_secs(600);

/// Scheduling/delivery slack added on top of the per-job deadline when
/// deriving the drain budget.
const DRAIN_WAIT_SLACK: Duration = Duration::from_secs(5);

/// `send_ns` sentinel marking a request as answered; live requests hold
/// their send timestamp, so whatever still carries one at drain-timeout
/// time is a stuck request the error can name.
const SETTLED: u64 = u64::MAX;

/// How many sampled mutants each mix entry keeps in its pool.
const POOL_CAP: usize = 128;

/// Submission identifiers `>= STATS_BASE` are reserved for the client's
/// own stats polls.
const STATS_BASE: u64 = 1 << 63;
const FINAL_STATS: u64 = u64::MAX;

/// One pre-generated source the client can submit.
struct Shot {
    source: String,
    dead_line: u32,
}

/// A mix entry with its mutant pool materialised.
struct EntryPool {
    entry: MixEntry,
    file: &'static str,
    clean: Shot,
    mutants: Vec<Shot>,
}

fn build_pools(config: &LoadConfig) -> Result<Vec<EntryPool>, String> {
    config
        .mix
        .iter()
        .map(|entry| {
            let v = find_variant(&entry.scenario, &entry.driver)
                .ok_or_else(|| format!("mix entry resolves to no driver: {entry:?}"))?;
            let mut mutants: Vec<Shot> = sample(v.mutants(), 0.25, config.seed)
                .into_iter()
                .take(POOL_CAP)
                .map(|m| Shot { source: m.source, dead_line: m.line })
                .collect();
            if mutants.is_empty() && entry.mutant_fraction > 0.0 {
                // A driver with no mutation sites degrades to clean-only.
                mutants.push(Shot { source: v.source.to_string(), dead_line: 0 });
            }
            Ok(EntryPool {
                entry: entry.clone(),
                file: v.file,
                clean: Shot { source: v.source.to_string(), dead_line: 0 },
                mutants,
            })
        })
        .collect()
}

/// What one load run measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Submissions offered (sent on the wire).
    pub offered: u64,
    /// Submissions classified and answered with an outcome.
    pub completed: u64,
    /// Submissions shed by the server's admission queue.
    pub shed: u64,
    /// Submissions that sat queued past their wall-clock deadline.
    pub expired: u64,
    /// Submissions refused with a routing error (or turned away by a
    /// draining server).
    pub errors: u64,
    /// First send → last response, nanoseconds.
    pub elapsed_ns: u64,
    /// Per-submission latency (send → outcome received), nanoseconds,
    /// over completed submissions.
    pub latency: Histogram,
    /// Outcome tally in table order (zero entries omitted).
    pub outcomes: Vec<(Outcome, u64)>,
    /// The server's final counter snapshot, if it answered the closing
    /// stats request.
    pub server: Option<ServiceStats>,
}

impl LoadReport {
    /// Sustained completion rate over the run, submissions per second.
    pub fn sustained_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Render the human-readable run summary.
    pub fn summary(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "offered {} completed {} shed {} expired {} errors {} in {:.2}s\n\
             sustained {:.1} mutants/sec\n\
             latency p50 {:.2}ms p99 {:.2}ms p999 {:.2}ms max {:.2}ms\n",
            self.offered,
            self.completed,
            self.shed,
            self.expired,
            self.errors,
            self.elapsed_ns as f64 / 1e9,
            self.sustained_per_sec(),
            ms(self.latency.percentile(50.0)),
            ms(self.latency.percentile(99.0)),
            ms(self.latency.percentile(99.9)),
            ms(self.latency.max()),
        );
        for (o, n) in &self.outcomes {
            out.push_str(&format!("  {o:<20} {n:>6}\n"));
        }
        if let Some(s) = &self.server {
            out.push_str(&format!(
                "server: accepted {} completed {} shed {} expired {} max_depth {} workers {}\n",
                s.accepted, s.completed, s.shed, s.expired, s.max_depth, s.workers
            ));
            // The memoization books, next to the backpressure books: how
            // much of the offered work the outcome ledger absorbed
            // without a run, and how the verification sample fared.
            if s.ledger_hits + s.ledger_misses + s.ledger_verified + s.ledger_diverged > 0
            {
                out.push_str(&format!(
                    "ledger: hits {} misses {} verified {} diverged {}\n",
                    s.ledger_hits, s.ledger_misses, s.ledger_verified, s.ledger_diverged
                ));
            }
            if !s.quarantined.is_empty() {
                out.push_str(&format!("quarantined: {} offender(s)\n", s.quarantined.len()));
            }
        }
        out
    }
}

/// Drive an open-loop load run over `conn` and collect the report.
///
/// Blocks until every offered submission is answered (outcome, shed or
/// error), then asks the server for its final counters and hangs up.
pub fn run_load<S: Duplex>(conn: S, config: &LoadConfig) -> io::Result<LoadReport> {
    let pools = build_pools(config)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let weight_total: u64 = pools.iter().map(|p| u64::from(p.entry.weight)).sum();
    let (mut r, w, _breaker) = conn.split()?;

    let total = config.total;
    let send_ns: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    let offered = AtomicU64::new(0);
    let outstanding = AtomicU64::new(0);
    let load_done = AtomicBool::new(false);
    let (drain_tx, drain_rx) = mpsc::channel::<()>();
    let start = Instant::now();

    struct ReaderTally {
        completed: u64,
        shed: u64,
        expired: u64,
        errors: u64,
        latency: Histogram,
        outcome_counts: Vec<u64>,
        last_response_ns: u64,
        server: Option<ServiceStats>,
    }

    let report = std::thread::scope(|scope| -> io::Result<LoadReport> {
        let send_ns = &send_ns;
        let offered = &offered;
        let outstanding = &outstanding;
        let load_done = &load_done;

        let reader = scope.spawn(move || -> io::Result<ReaderTally> {
            let mut t = ReaderTally {
                completed: 0,
                shed: 0,
                expired: 0,
                errors: 0,
                latency: Histogram::new(),
                outcome_counts: vec![0; Outcome::table_order().len()],
                last_response_ns: 0,
                server: None,
            };
            while let Some(payload) = read_frame(&mut r)? {
                let rep = Response::decode(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let now_ns = start.elapsed().as_nanos() as u64;
                let mut settle = |req_id: u64| {
                    let sent = send_ns
                        .get(req_id as usize)
                        .map_or(now_ns, |s| s.swap(SETTLED, Ordering::SeqCst));
                    t.last_response_ns = now_ns;
                    if outstanding.fetch_sub(1, Ordering::SeqCst) == 1
                        && load_done.load(Ordering::SeqCst)
                    {
                        let _ = drain_tx.send(());
                    }
                    now_ns.saturating_sub(sent)
                };
                match rep {
                    Response::Outcome { req_id, outcome, .. } => {
                        let latency = settle(req_id);
                        t.latency.record(latency);
                        t.completed += 1;
                        t.outcome_counts[usize::from(outcome.code())] += 1;
                    }
                    Response::Shed { req_id } => {
                        settle(req_id);
                        t.shed += 1;
                    }
                    Response::Expired { req_id } => {
                        settle(req_id);
                        t.expired += 1;
                    }
                    Response::Err { req_id, message } => {
                        settle(req_id);
                        t.errors += 1;
                        eprintln!("request {req_id} refused: {message}");
                    }
                    Response::Draining { req_id } => {
                        // A submission turned away by a draining server:
                        // it will never classify, so it settles as an
                        // error rather than hanging the drain wait.
                        settle(req_id);
                        t.errors += 1;
                        eprintln!("request {req_id} turned away: server draining");
                    }
                    Response::Stats { req_id, stats } => {
                        if req_id == FINAL_STATS {
                            t.server = Some(stats);
                        } else {
                            eprintln!(
                                "[{:6.1}s] offered {} done {} shed {} | server depth {} (max {})",
                                now_ns as f64 / 1e9,
                                offered.load(Ordering::SeqCst),
                                t.completed,
                                t.shed + stats.shed,
                                stats.depth,
                                stats.max_depth,
                            );
                        }
                    }
                }
            }
            Ok(t)
        });

        // Writer: the open-loop pacing loop, on this thread.
        let mut w = BufWriter::new(w);
        // Distinct stream from the pool-sampling seed so the pick
        // sequence doesn't correlate with the sampled mutants.
        let mut rng = XorShift64::new(config.seed ^ 0x4F50_454E_4C4F_4F50);
        let mut next_stats = config.report_every.map(|d| (d, 0u64));
        let period_ns = if config.freq > 0.0 { 1e9 / config.freq } else { 0.0 };
        for n in 0..total {
            let due = Duration::from_nanos((n as f64 * period_ns) as u64);
            loop {
                let now = start.elapsed();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(Duration::from_millis(5)));
            }
            if let Some((every, k)) = &mut next_stats {
                if start.elapsed() >= *every * (*k as u32 + 1) {
                    let req = Request::Stats { req_id: STATS_BASE + *k };
                    write_frame(&mut w, &req.encode())?;
                    *k += 1;
                }
            }
            let pool = pick_entry(&pools, weight_total, &mut rng);
            let mutant =
                (rng.next_u64() as f64 / u64::MAX as f64) < pool.entry.mutant_fraction;
            let shot = if mutant && !pool.mutants.is_empty() {
                &pool.mutants[rng.below(pool.mutants.len() as u64) as usize]
            } else {
                &pool.clean
            };
            let req = Request::Submit(SubmitMutant {
                req_id: n,
                scenario: pool.entry.scenario.clone(),
                plan: pool.entry.plan.clone(),
                plan_seed: pool.entry.plan_seed,
                file: pool.file.to_string(),
                dead_line: shot.dead_line,
                deadline_ms: config.deadline_ms,
                source: shot.source.clone(),
            });
            // Stamp before the bytes can reach the server: the response
            // must always observe a recorded send time.
            send_ns[n as usize]
                .store(start.elapsed().as_nanos() as u64, Ordering::SeqCst);
            outstanding.fetch_add(1, Ordering::SeqCst);
            offered.fetch_add(1, Ordering::SeqCst);
            write_frame(&mut w, &req.encode())?;
            w.flush()?;
        }
        load_done.store(true, Ordering::SeqCst);
        if outstanding.load(Ordering::SeqCst) > 0 {
            // With a per-job deadline every outstanding submission must
            // resolve (outcome, expired or shed) within that budget of
            // its admission — so the drain wait needs only the deadline
            // plus delivery slack, not an arbitrary court of patience.
            let wait = if config.deadline_ms > 0 {
                Duration::from_millis(u64::from(config.deadline_ms)) + DRAIN_WAIT_SLACK
            } else {
                DRAIN_WAIT_FALLBACK
            };
            drain_rx.recv_timeout(wait).map_err(|_| {
                let stuck: Vec<u64> = send_ns
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        let v = s.load(Ordering::SeqCst);
                        v != SETTLED && v != 0
                    })
                    .map(|(n, _)| n as u64)
                    .collect();
                let shown = stuck
                    .iter()
                    .take(8)
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                let suffix = if stuck.len() > 8 { ", …" } else { "" };
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "drain timed out after {:.1}s: {} request(s) unanswered (req ids {shown}{suffix})",
                        wait.as_secs_f64(),
                        stuck.len(),
                    ),
                )
            })?;
        }
        write_frame(&mut w, &Request::Stats { req_id: FINAL_STATS }.encode())?;
        w.flush()?;
        drop(w); // half-close: the server answers what's left, then EOFs us

        let t = reader.join().expect("reader thread panicked")?;
        let outcomes = Outcome::table_order()
            .iter()
            .zip(&t.outcome_counts)
            .filter(|(_, n)| **n > 0)
            .map(|(o, n)| (*o, *n))
            .collect();
        Ok(LoadReport {
            offered: offered.load(Ordering::SeqCst),
            completed: t.completed,
            shed: t.shed,
            expired: t.expired,
            errors: t.errors,
            elapsed_ns: t.last_response_ns,
            latency: t.latency,
            outcomes,
            server: t.server,
        })
    })?;
    Ok(report)
}

fn pick_entry<'p>(
    pools: &'p [EntryPool],
    weight_total: u64,
    rng: &mut XorShift64,
) -> &'p EntryPool {
    let mut roll = rng.below(weight_total);
    for p in pools {
        let w = u64::from(p.entry.weight);
        if roll < w {
            return p;
        }
        roll -= w;
    }
    &pools[pools.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field of each entry: scenario, plan, plan seed, driver,
    /// mutant fraction and weight.
    fn fields(mix: &[MixEntry]) -> Vec<(&str, &str, u64, &str, f64, u32)> {
        mix.iter()
            .map(|e| {
                let (s, p, d) = (e.scenario.as_str(), e.plan.as_str(), e.driver.as_str());
                (s, p, e.plan_seed, d, e.mutant_fraction, e.weight)
            })
            .collect()
    }

    #[test]
    fn mix_spec_round_trips_fields_and_defaults() {
        use devil_hwsim::DEFAULT_FAULT_SEED as SEED;
        let mix = parse_mix("ide-boot/ide_piix4_c:0.8:2, mouse-stream+faults").unwrap();
        assert_eq!(
            fields(&mix),
            [
                ("ide-boot", "", SEED, "ide_piix4_c", 0.8, 2),
                ("mouse-stream", "mixed", SEED, "busmouse_c", 1.0, 1),
            ]
        );
        // The default mix of `devil load` and `devil selftest`.
        let mix = parse_mix("ide-boot,mouse-stream+faults").unwrap();
        assert_eq!(
            fields(&mix),
            [
                ("ide-boot", "", SEED, "ide_piix4_c", 1.0, 1),
                ("mouse-stream", "mixed", SEED, "busmouse_c", 1.0, 1),
            ]
        );
    }

    #[test]
    fn bad_mix_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("", "empty workload mix"),
            ("nope", "unknown scenario"),
            ("nope+faults", "unknown scenario `nope+faults`"),
            (
                "ide-boot+faults+faults",
                "unknown scenario `ide-boot+faults+faults`",
            ),
            (
                "mouse-stream+faults+faults/busmouse_c",
                "unknown scenario `mouse-stream+faults+faults`",
            ),
            (
                "mouse-stream+faults/ide_piix4_c",
                "unknown driver `ide_piix4_c`",
            ),
            ("ide-boot/nope", "unknown driver"),
            ("ide-boot:2.0", "outside 0..=1"),
            ("ide-boot:0.5:0", "bad weight"),
            ("ide-boot:0.5:1:extra", "trailing field"),
        ] {
            let err = parse_mix(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: {err}");
        }
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mix = parse_mix("ide-boot:1:3,mouse-stream:1:1").unwrap();
        let config = LoadConfig {
            freq: 1.0,
            total: 1,
            mix,
            seed: 7,
            report_every: None,
            deadline_ms: 0,
        };
        let pools = build_pools(&config).unwrap();
        let weight_total: u64 = pools.iter().map(|p| u64::from(p.entry.weight)).sum();
        let mut rng = XorShift64::new(99);
        let mut first = 0;
        for _ in 0..4000 {
            if pick_entry(&pools, weight_total, &mut rng).entry.scenario == "ide-boot" {
                first += 1;
            }
        }
        // 3:1 weighting → ~3000 of 4000; allow a wide deterministic band.
        assert!((2700..3300).contains(&first), "ide-boot picked {first}/4000");
    }
}
