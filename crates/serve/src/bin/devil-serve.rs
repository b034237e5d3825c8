//! The campaign service CLI: serve, load, drain, or a hermetic selftest.
//!
//! ```text
//! devil-serve serve [--addr=HOST:PORT] [--threads=N] [--queue-cap=N]
//!                   [--quarantine-limit=N] [--drain-grace=SECS]
//!                   [--ledger=PATH] [--verify-fraction=F]
//! devil-serve load  --addr=HOST:PORT [--mix=SPEC] [--freq=N] [--total=N]
//!                   [--seed=N] [--report-every=SECS] [--deadline-ms=N]
//! devil-serve drain --addr=HOST:PORT [--drain-grace=SECS]
//! devil-serve selftest [--mix=SPEC] [--freq=N] [--total=N] [--threads=N]
//!                      [--queue-cap=N] [--seed=N] [--deadline-ms=N]
//!                      [--ledger=PATH] [--verify-fraction=F]
//! ```
//!
//! * `serve` listens for classification requests until drained: SIGTERM
//!   or ctrl-c stops admissions, finishes the queued work (force-shedding
//!   whatever is left once `--drain-grace` elapses; 0 waits forever),
//!   flushes every pending reply, and exits 0. `--ledger=PATH` resumes a
//!   crash-safe outcome ledger at startup: previously classified mutants
//!   answer at admission without a run, quarantine strikes survive
//!   restarts, and `--verify-fraction=F` replays a deterministic sample
//!   of ledger hits against the live engine to audit the file;
//! * `load` drives an open-loop run against a running server and prints
//!   the latency/backpressure report;
//! * `drain` asks a running server to wind down over the wire — the same
//!   sequence as SIGTERM, triggered remotely;
//! * `selftest` runs both ends over an in-process pipe — no sockets —
//!   and exits non-zero unless every offered submission was answered.
//!
//! The mix spec grammar is documented in `devil_serve::load`; defaults
//! are chosen so the bare commands do something sensible
//! (`--mix=ide-boot,mouse-stream+faults --freq=50 --total=250`).

use devil_serve::{parse_mix, run_load, InProcServer, LoadConfig, ServeConfig};
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn parse_u64(flag: &str, v: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        fail(&format!("{flag} expects an unsigned integer, got `{v}`"))
    })
}

fn parse_u32(flag: &str, v: &str) -> u32 {
    v.parse().unwrap_or_else(|_| {
        fail(&format!(
            "{flag} expects an unsigned integer up to {}, got `{v}`",
            u32::MAX
        ))
    })
}

fn parse_f64(flag: &str, v: &str) -> f64 {
    match v.parse::<f64>() {
        Ok(n) if n > 0.0 && n.is_finite() => n,
        _ => fail(&format!("{flag} expects a positive number, got `{v}`")),
    }
}

#[derive(Debug)]
struct Args {
    addr: Option<String>,
    threads: usize,
    queue_cap: usize,
    mix: String,
    freq: f64,
    total: u64,
    seed: u64,
    report_every: Option<Duration>,
    deadline_ms: u32,
    drain_grace: Option<Duration>,
    quarantine_limit: u32,
    ledger: Option<std::path::PathBuf>,
    verify_fraction: f64,
}

impl Default for Args {
    fn default() -> Self {
        let defaults = ServeConfig::default();
        Args {
            addr: None,
            threads: 0,
            queue_cap: 1024,
            mix: "ide-boot,mouse-stream+faults".into(),
            freq: 50.0,
            total: 250,
            seed: 42,
            report_every: None,
            deadline_ms: 0,
            drain_grace: defaults.drain_grace,
            quarantine_limit: defaults.quarantine_limit,
            ledger: None,
            verify_fraction: defaults.verify_fraction,
        }
    }
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args::default();
    for arg in args {
        if let Some(v) = arg.strip_prefix("--addr=") {
            out.addr = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            out.threads = parse_u64("--threads", v) as usize;
        } else if let Some(v) = arg.strip_prefix("--queue-cap=") {
            out.queue_cap = parse_u64("--queue-cap", v).max(1) as usize;
        } else if let Some(v) = arg.strip_prefix("--mix=") {
            out.mix = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--freq=") {
            out.freq = parse_f64("--freq", v);
        } else if let Some(v) = arg.strip_prefix("--total=") {
            out.total = parse_u64("--total", v);
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            out.seed = parse_u64("--seed", v);
        } else if let Some(v) = arg.strip_prefix("--report-every=") {
            out.report_every = Some(Duration::from_secs_f64(parse_f64("--report-every", v)));
        } else if let Some(v) = arg.strip_prefix("--deadline-ms=") {
            out.deadline_ms = parse_u32("--deadline-ms", v);
        } else if let Some(v) = arg.strip_prefix("--drain-grace=") {
            // 0 disables the force-shed deadline: queued work runs out.
            let secs = parse_u64("--drain-grace", v);
            out.drain_grace = (secs != 0).then(|| Duration::from_secs(secs));
        } else if let Some(v) = arg.strip_prefix("--quarantine-limit=") {
            out.quarantine_limit = parse_u32("--quarantine-limit", v);
        } else if let Some(v) = arg.strip_prefix("--ledger=") {
            out.ledger = Some(std::path::PathBuf::from(v));
        } else if let Some(v) = arg.strip_prefix("--verify-fraction=") {
            out.verify_fraction = match v.parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => f,
                _ => fail(&format!(
                    "--verify-fraction expects a number in 0.0..=1.0, got `{v}`"
                )),
            };
        } else {
            fail(&format!("unknown argument `{arg}`"));
        }
    }
    out
}

fn serve_config(a: &Args) -> ServeConfig {
    ServeConfig {
        threads: a.threads,
        queue_cap: a.queue_cap,
        quarantine_limit: a.quarantine_limit,
        drain_grace: a.drain_grace,
        ledger: a.ledger.clone(),
        verify_fraction: a.verify_fraction,
        ..ServeConfig::default()
    }
}

fn load_config(a: &Args) -> LoadConfig {
    let mix = parse_mix(&a.mix).unwrap_or_else(|e| fail(&format!("bad --mix: {e}")));
    LoadConfig {
        freq: a.freq,
        total: a.total,
        mix,
        seed: a.seed,
        report_every: a.report_every,
        deadline_ms: a.deadline_ms,
        drain_wait: None,
    }
}

/// SIGTERM/SIGINT latch for the serve mode. Raw `signal(2)` FFI keeps
/// the build dependency-free; the handler only flips an atomic, which is
/// async-signal-safe, and a watcher thread turns the flip into a drain.
#[cfg(unix)]
mod sigwatch {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn latch(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, latch as *const () as usize);
            signal(SIGTERM, latch as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        fail("usage: devil-serve <serve|load|drain|selftest> [flags]  (see module docs)");
    };
    let a = parse_args(rest);
    match mode.as_str() {
        "serve" => {
            let addr = a.addr.as_deref().unwrap_or("127.0.0.1:7011");
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
            let config = serve_config(&a);
            eprintln!(
                "devil-serve listening on {addr} ({} workers, queue cap {})",
                devil_mutagen::effective_threads(config.threads),
                config.queue_cap
            );
            let drain = devil_serve::DrainHandle::new();
            #[cfg(unix)]
            {
                sigwatch::install();
                let watch = drain.clone();
                let grace = config.drain_grace;
                std::thread::spawn(move || loop {
                    if sigwatch::requested() {
                        eprintln!("devil-serve: signal received, draining");
                        watch.drain(grace);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                });
            }
            let stats = devil_serve::serve_tcp(&config, listener, &drain);
            eprintln!(
                "devil-serve drained: accepted {} completed {} shed {} expired {}",
                stats.accepted, stats.completed, stats.shed, stats.expired
            );
            if config.ledger.is_some() {
                eprintln!(
                    "ledger: hits {} misses {} verified {} diverged {} ({} quarantined)",
                    stats.ledger_hits,
                    stats.ledger_misses,
                    stats.ledger_verified,
                    stats.ledger_diverged,
                    stats.quarantined.len()
                );
            }
        }
        "load" => {
            let Some(addr) = a.addr.as_deref() else {
                fail("load mode needs --addr=HOST:PORT");
            };
            let conn = std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
            let _ = conn.set_nodelay(true);
            let report = run_load(conn, &load_config(&a))
                .unwrap_or_else(|e| fail(&format!("load run failed: {e}")));
            print!("{}", report.summary());
        }
        "drain" => {
            use devil_serve::proto::{read_frame, write_frame, Request, Response};
            use std::io::Write as _;
            let Some(addr) = a.addr.as_deref() else {
                fail("drain mode needs --addr=HOST:PORT");
            };
            let mut conn = std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
            let grace_ms = a
                .drain_grace
                .map_or(0, |g| u32::try_from(g.as_millis()).unwrap_or(u32::MAX));
            let req = Request::Drain { req_id: 1, grace_ms };
            write_frame(&mut conn, &req.encode())
                .and_then(|()| conn.flush())
                .unwrap_or_else(|e| fail(&format!("send drain: {e}")));
            match read_frame(&mut conn) {
                Ok(Some(payload)) => match Response::decode(&payload) {
                    Ok(Response::Draining { .. }) => eprintln!("server draining"),
                    Ok(other) => fail(&format!("unexpected reply {other:?}")),
                    Err(e) => fail(&format!("bad reply: {e}")),
                },
                Ok(None) => fail("server hung up before acknowledging the drain"),
                Err(e) => fail(&format!("read drain reply: {e}")),
            }
        }
        "selftest" => {
            let server = InProcServer::start(serve_config(&a));
            let report = run_load(server.connect(), &load_config(&a))
                .unwrap_or_else(|e| fail(&format!("selftest load failed: {e}")));
            let stats = server
                .shutdown()
                .unwrap_or_else(|e| fail(&format!("selftest server died: {e}")));
            print!("{}", report.summary());
            let answered =
                report.completed + report.shed + report.expired + report.errors;
            if answered != report.offered || stats.completed != report.completed {
                fail(&format!(
                    "selftest mismatch: offered {} answered {answered} (server completed {})",
                    report.offered, stats.completed
                ));
            }
            println!("selftest ok");
        }
        other => fail(&format!("unknown mode `{other}`; try serve, load, drain or selftest")),
    }
}
