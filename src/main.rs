//! `devil`: every artefact of the paper's evaluation, and the
//! classification service, as subcommands of one binary.
//!
//! ```text
//! devil table1 | table2 | fig2 | fig4
//! devil table3 [--scenario=NAME] [--all] [--fraction=F] [--seed=N] [--threads=N]
//!              [--fault-plan=NAME] [--fault-seed=N] [--ledger=PATH] [--resume]
//! devil table4 [the flags of table3] [--weak-types] [--no-asserts]
//! devil repro  [--fraction=F] [--seed=N]
//! devil serve  [--addr=HOST:PORT] [--threads=N] [--queue-cap=N] [--quarantine-limit=N]
//!              [--drain-grace=SECS] [--ledger=PATH] [--verify-fraction=F]
//! devil load   --addr=HOST:PORT [--mix=SPEC] [--freq=N] [--total=N] [--seed=N]
//!              [--report-every=SECS] [--deadline-ms=N]
//! devil drain  --addr=HOST:PORT [--drain-grace=SECS]
//! devil selftest [the flags of load and serve but --addr and --drain-grace]
//! ```
//!
//! * `table1`, `table2`, `fig2` and `fig4` print Tables 1 and 2 and
//!   Figures 2 and 4.
//! * `table3` and `table4` print one outcome table per plain-C (Table 3)
//!   or CDevil glue (Table 4) driver that the scenario catalog pairs with
//!   the scenario, the paper's IDE boot by default. `--weak-types` runs
//!   Table 4 against production stubs (plain integer typedefs), and
//!   `--no-asserts` against struct-typed stubs without run-time
//!   assertions, isolating what the type system alone buys.
//! * `repro` runs Tables 1–4 and the §4.2 headline, then checks the
//!   paper's qualitative claims, and exits 1 if one fails.
//! * `serve` answers classification requests until SIGTERM or ctrl-c
//!   drains it: admissions stop, the queued work finishes (what is still
//!   queued once `--drain-grace` elapses is shed), every pending reply is
//!   flushed, and it exits 0. `--ledger` resumes a crash-safe outcome
//!   ledger, whose hits answer at admission without a run.
//! * `load` drives an open-loop run against a running server and prints
//!   the latency and backpressure report; `drain` asks a running server
//!   to drain, as SIGTERM would.
//! * `selftest` runs both ends over an in-process pipe and exits 1 unless
//!   every offered submission was answered.
//!
//! `devil::cli::CampaignArgs` (`src/cli.rs`) parses, and documents, every
//! flag; a subcommand rejects the flags it does not take. A usage error
//! exits 2.

use devil::cli::{print_tables, usage_error, CampaignArgs};
use devil_bench::tables::{
    self, render_outcome_table, render_table1, render_table2, scenario_campaign, scenario_variants,
    CampaignOptions, Headline, OutcomeTable,
};
use devil_core::codegen::{generate, CodegenMode};
use devil_drivers::specs;
use devil_mutagen::c::CStyle;
use devil_serve::proto::{read_frame, write_frame, Request, Response};
use devil_serve::{run_load, DrainHandle, InProcServer};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const TABLE2_PAPER: &str = "(paper: 95.4 / 88.8 / 91.7 / 92.6 / 90.3 % detected)";
const TABLE3_PAPER: &str =
    "(paper: compile 26.7, crash 2.9, loop 11.2, halt 21.5, damaged 2.9, boot 34.7 %)";
const TABLE4_PAPER: &str = "(paper: compile 58.0, run-time 14.1, crash 0, loop 0.7, halt 4.9, damaged 0.5, boot 12.3, dead 9.4 %)";

/// Every subcommand, with the flags it takes.
const SUBCOMMANDS: &[(&str, &str, Run)] = &[
    ("table1", "", table1),
    ("table2", "", table2),
    ("table3", TABLE3_FLAGS, table3),
    ("table4", TABLE4_FLAGS, table4),
    ("fig2", "", fig2),
    ("fig4", "", fig4),
    ("repro", "--fraction --seed", repro),
    ("serve", SERVE_FLAGS, serve),
    ("load", LOAD_FLAGS, load),
    ("drain", "--addr --drain-grace", drain),
    ("selftest", SELFTEST_FLAGS, selftest),
];
const TABLE3_FLAGS: &str =
    "--scenario --all --fraction --seed --threads --fault-plan --fault-seed --ledger --resume";
const TABLE4_FLAGS: &str =
    "--scenario --all --fraction --seed --threads --fault-plan --fault-seed \
    --ledger --resume --weak-types --no-asserts";
const SERVE_FLAGS: &str =
    "--addr --threads --queue-cap --quarantine-limit --drain-grace --ledger --verify-fraction";
const LOAD_FLAGS: &str = "--addr --mix --freq --total --seed --report-every --deadline-ms";
const SELFTEST_FLAGS: &str = "--mix --freq --total --seed --report-every --deadline-ms --threads \
    --queue-cap --quarantine-limit --ledger --verify-fraction";

/// A subcommand's body; `Err` holds the message of a failed run.
type Run = fn(&CampaignArgs) -> Result<(), String>;

fn main() {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let Some(&(_, flags, run)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == sub) else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, ..)| *name).collect();
        let problem = match sub.as_str() {
            "" => "no subcommand".to_string(),
            _ => format!("unknown subcommand `{sub}`"),
        };
        usage_error(&format!("{problem}; usage: devil <{}> [FLAGS]", names.join("|")));
    };
    let flags: Vec<&str> = flags.split_whitespace().collect();
    let args = CampaignArgs::parse(argv, CampaignOptions::default(), &flags)
        .unwrap_or_else(|e| usage_error(&e));
    if let Err(e) = run(&args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn table1(_: &CampaignArgs) -> Result<(), String> {
    println!("Table 1: Mutation rules for C operators");
    println!("{}", render_table1());
    Ok(())
}

fn table2(_: &CampaignArgs) -> Result<(), String> {
    println!("Table 2: Mutation coverage of the Devil compiler");
    println!("{TABLE2_PAPER}\n");
    println!("{}", render_table2(&tables::table2()));
    Ok(())
}

fn table3(args: &CampaignArgs) -> Result<(), String> {
    print_tables(args, "Table 3: Mutations on C code", CStyle::PlainC, TABLE3_PAPER);
    Ok(())
}

fn table4(args: &CampaignArgs) -> Result<(), String> {
    print_tables(args, "Table 4: Mutations on CDevil code", CStyle::CDevil, TABLE4_PAPER);
    Ok(())
}

/// Figure 2: the port/register/variable layering of the busmouse
/// specification.
fn fig2(_: &CampaignArgs) -> Result<(), String> {
    let checked =
        specs::compile("busmouse.dil", specs::BUSMOUSE).expect("bundled busmouse spec compiles");
    println!("Figure 2: Schematic view of the Logitech busmouse specification\n");
    println!("{}", checked.render_schematic());
    Ok(())
}

/// Figure 4: the debug stub generated for the IDE `Drive` variable and
/// its register.
fn fig4(_: &CampaignArgs) -> Result<(), String> {
    let checked =
        specs::compile("ide_piix4.dil", specs::IDE_PIIX4).expect("bundled IDE spec compiles");
    let c = generate(&checked, CodegenMode::Debug);
    println!("Figure 4: Debug stub for the IDE Drive variable\n");
    // The Figure-4 slices: type representation, register stubs, variable
    // stubs for `Drive`.
    for needle in [
        "struct Drive_t_",
        "static void reg_set_select_reg",
        "static u8 reg_get_select_reg",
        "static void dil_set_Drive_raw",
        "static u32 dil_get_Drive_raw",
        "static Drive_t get_Drive",
        "static void set_Drive",
    ] {
        if let Some(start) = c.find(needle) {
            let slice = &c[start..];
            let end = slice.find("\n\n").unwrap_or(slice.len());
            println!("{}\n", &slice[..end]);
        }
    }
    println!("/* full header: {} lines */", c.lines().count());
    Ok(())
}

/// The Table 3/4 campaign on the `ide-boot` driver of one side of the split.
fn ide_boot_campaign(style: CStyle, opts: &CampaignOptions) -> OutcomeTable {
    let variants = scenario_variants("ide-boot", style);
    let v = variants.first().expect("the catalog pairs the IDE boot with both drivers");
    scenario_campaign("ide-boot", v, opts, None)
}

fn repro(args: &CampaignArgs) -> Result<(), String> {
    let opts = &args.opts;
    println!("==============================================================");
    println!(" Reproduction: Improving Driver Robustness (Devil, DSN-2001)");
    println!("==============================================================\n");

    println!("--- Table 1: mutation rules for C operators -----------------\n");
    println!("{}", render_table1());

    println!("--- Table 2: Devil compiler mutation coverage ----------------");
    println!("{TABLE2_PAPER}\n");
    let t2 = tables::table2();
    println!("{}", render_table2(&t2));

    println!("--- Table 3: mutations on the C IDE driver -------------------");
    println!("{TABLE3_PAPER}\n");
    let t3 = ide_boot_campaign(CStyle::PlainC, opts);
    println!("{}", render_outcome_table(&t3, ""));

    println!("--- Table 4: mutations on the CDevil IDE driver --------------");
    println!("{TABLE4_PAPER}\n");
    let t4 = ide_boot_campaign(CStyle::CDevil, opts);
    println!("{}", render_outcome_table(&t4, ""));

    println!("--- Headline (§4.2) ------------------------------------------");
    println!("(paper: 72% vs 26.7% detected — nearly 3x; 12.3% vs 34.7% undetected — 3x fewer)\n");
    let h = Headline::from_tables(&t3, &t4);
    println!("{}", h.render());

    // Shape assertions: the qualitative claims of the paper must hold.
    let mut failures = Vec::new();
    for row in &t2 {
        if row.pct() < 75.0 {
            failures.push(format!(
                "Table 2 shape: {} detected only {:.1}% (expected ~90%)",
                row.name,
                row.pct()
            ));
        }
    }
    if h.detection_factor() < 1.5 {
        failures
            .push(format!("headline shape: detection factor {:.2} < 1.5", h.detection_factor()));
    }
    if h.undetected_factor() < 1.5 {
        failures
            .push(format!("headline shape: undetected factor {:.2} < 1.5", h.undetected_factor()));
    }
    if failures.is_empty() {
        println!("shape check: PASS (Devil wins on both axes, spec coverage ~90%)");
        return Ok(());
    }
    for f in &failures {
        println!("shape check FAILURE: {f}");
    }
    Err(format!("shape check: {} of the paper's claims failed", failures.len()))
}

fn serve(args: &CampaignArgs) -> Result<(), String> {
    let addr = args.addr.as_deref().unwrap_or("127.0.0.1:7011");
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let config = &args.serve;
    eprintln!(
        "devil serve listening on {addr} ({} workers, queue cap {})",
        devil_mutagen::effective_threads(config.threads),
        config.queue_cap
    );
    let drain = DrainHandle::new();
    #[cfg(unix)]
    {
        sigwatch::install();
        let (watch, grace) = (drain.clone(), config.drain_grace);
        std::thread::spawn(move || loop {
            if sigwatch::requested() {
                eprintln!("devil serve: signal received, draining");
                watch.drain(grace);
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    let stats = devil_serve::serve_tcp(config, listener, &drain);
    eprintln!(
        "devil serve drained: accepted {} completed {} shed {} expired {}",
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
    Ok(())
}

/// The `--addr` that `load` and `drain` cannot run without.
fn required_addr<'a>(args: &'a CampaignArgs, sub: &str) -> &'a str {
    args.addr
        .as_deref()
        .unwrap_or_else(|| usage_error(&format!("`devil {sub}` needs --addr=HOST:PORT")))
}

fn load(args: &CampaignArgs) -> Result<(), String> {
    let addr = required_addr(args, "load");
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = conn.set_nodelay(true);
    let report = run_load(conn, &args.load).map_err(|e| format!("load run failed: {e}"))?;
    print!("{}", report.summary());
    Ok(())
}

fn drain(args: &CampaignArgs) -> Result<(), String> {
    let addr = required_addr(args, "drain");
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let grace_ms =
        args.serve.drain_grace.map_or(0, |g| u32::try_from(g.as_millis()).unwrap_or(u32::MAX));
    let req = Request::Drain { req_id: 1, grace_ms };
    write_frame(&mut conn, &req.encode())
        .and_then(|()| conn.flush())
        .map_err(|e| format!("send drain: {e}"))?;
    match read_frame(&mut conn) {
        Ok(Some(payload)) => match Response::decode(&payload) {
            Ok(Response::Draining { .. }) => {
                eprintln!("server draining");
                Ok(())
            }
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(format!("bad reply: {e}")),
        },
        Ok(None) => Err("server hung up before acknowledging the drain".into()),
        Err(e) => Err(format!("read drain reply: {e}")),
    }
}

fn selftest(args: &CampaignArgs) -> Result<(), String> {
    let server = InProcServer::start(args.serve.clone());
    let report =
        run_load(server.connect(), &args.load).map_err(|e| format!("selftest load failed: {e}"))?;
    let stats = server.shutdown().map_err(|e| format!("selftest server died: {e}"))?;
    print!("{}", report.summary());
    let answered = report.completed + report.shed + report.expired + report.errors;
    if answered != report.offered || stats.completed != report.completed {
        return Err(format!(
            "selftest mismatch: offered {} answered {answered} (server completed {})",
            report.offered, stats.completed
        ));
    }
    println!("selftest ok");
    Ok(())
}

/// SIGTERM/SIGINT latch for `serve`. Raw `signal(2)` FFI keeps the build
/// dependency-free; the handler only flips an atomic, which is
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
        // SAFETY: `latch` has the `void (*)(int)` signature `signal(2)`
        // expects and only stores to an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, latch as *const () as usize);
            signal(SIGTERM, latch as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}
