//! The command line of the `devil` binary and the `mutation_campaign`
//! example: one flag parser, [`CampaignArgs`], for every subcommand, the
//! exit-2 [`usage_error`] path, and [`print_tables`], the body of
//! `devil table3` and `devil table4`.
//!
//! The campaigns these run live in `devil_bench::tables`.

use devil_bench::tables::{
    campaign_spec_revision, parse_seed, render_outcome_table, scenario_campaign, scenario_variants,
    CampaignOptions, StubFlavor,
};
use devil_drivers::corpus::{find_case, scenario_names, DriverVariant};
use devil_hwsim::{FaultPlan, DEFAULT_FAULT_SEED};
use devil_mutagen::c::CStyle;
use devil_mutagen::Ledger;
use devil_serve::{parse_mix, LoadConfig, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

/// The command line of every `devil` subcommand and of the
/// `mutation_campaign` example: one parser, one spelling per flag, one
/// set of usage errors. Each caller names the flags it takes.
///
/// | flag | effect |
/// |---|---|
/// | `--scenario=NAME` | catalog scenario (`corpus::scenario_names()`; default `ide-boot`) |
/// | `--all` | classify every mutant (fraction 1) |
/// | `--fraction=F` | sampling fraction, in 0..=1 |
/// | `--seed=N` | sampling seed of a campaign, or of a load run's mutant pools and picks |
/// | `--threads=N` | worker threads of a campaign or of the service; 0 uses every core |
/// | `--fault-plan=NAME` | run on flaky hardware under a bundled plan (`FaultPlan::plan_names()`) |
/// | `--fault-seed=N` | the fault plan's PRNG seed |
/// | `--ledger=PATH` | a campaign checkpoints every outcome to this crash-safe ledger; the service resumes it at start |
/// | `--resume` | replay the ledger's records first, classify only the rest (needs `--ledger`) |
/// | `--weak-types` | compile against production stubs (ablation) |
/// | `--no-asserts` | compile against assertion-free stubs (ablation) |
/// | `--addr=HOST:PORT` | where the service listens, or is reached |
/// | `--queue-cap=N` | the service's admission-queue capacity (at least 1) |
/// | `--quarantine-limit=N` | engine failures before the service refuses a driver source; 0 never refuses |
/// | `--drain-grace=SECS` | force-shed what is still queued this long into a drain; 0 lets the backlog run out |
/// | `--verify-fraction=F` | share of ledger hits the service re-runs to audit the ledger, in 0..=1 |
/// | `--mix=SPEC` | the load run's workload mix (grammar in `devil_serve::load`) |
/// | `--freq=N` | offered submissions per second, positive |
/// | `--total=N` | submissions to offer |
/// | `--report-every=SECS` | print a progress line this often, positive |
/// | `--deadline-ms=N` | per-submission deadline; 0 submits without one |
///
/// Seeds are decimal or `0x`/`0X` hex. `--fault-plan` alone runs at seed
/// `DEFAULT_FAULT_SEED`, and `--fault-seed` alone under the `mixed` plan.
/// Without `--resume` the ledger file starts fresh; with it, a campaign
/// killed partway (even `kill -9`) finishes with a bit-identical result.
/// The service and load flags default to `ServeConfig::default()` and
/// `LoadConfig::without_mix()`, with `LoadConfig::DEFAULT_MIX`. Only a
/// caller that takes `--scenario` resolves the scenario, and only one
/// that takes `--mix` the load mix: either builds the scenario catalog,
/// which `table1` and `fig2` never need.
#[derive(Debug, Clone)]
pub struct CampaignArgs {
    /// The catalog scenario to campaign under.
    pub scenario: String,
    /// Sampling, threads, stub flavour and fault plan.
    pub opts: CampaignOptions,
    /// The outcome ledger file, if any.
    pub ledger: Option<PathBuf>,
    /// Replay the ledger's surviving records before classifying.
    pub resume: bool,
    /// Where the service listens, or is reached.
    pub addr: Option<String>,
    /// The service's settings, `--threads` and `--ledger` among them.
    pub serve: ServeConfig,
    /// The load run's settings, `--seed` among them; the mix stays empty
    /// unless the caller takes `--mix`.
    pub load: LoadConfig,
}

impl CampaignArgs {
    /// Parse `args` (the flags alone) over `defaults`, taking only the
    /// flags in `accepted` (spelled as before any `=`). `Err` holds the
    /// usage error to print, with [`usage_error`].
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        defaults: CampaignOptions,
        accepted: &[&str],
    ) -> Result<CampaignArgs, String> {
        const UP_TO_U32: &str = "an unsigned integer up to 4294967295";
        let mut parsed = CampaignArgs {
            scenario: "ide-boot".into(),
            opts: defaults,
            ledger: None,
            resume: false,
            addr: None,
            serve: ServeConfig::default(),
            load: LoadConfig::without_mix(),
        };
        let (mut plan, mut fault_seed, mut mix) = (None, None, None);
        let unit = |v: &str| v.parse().ok().filter(|f: &f64| (0.0..=1.0).contains(f));
        let positive = |v: &str| v.parse().ok().filter(|n: &f64| *n > 0.0 && n.is_finite());
        for arg in args {
            let (flag, value) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg.as_str(), None),
            };
            if !accepted.contains(&flag) {
                return Err(format!("unknown argument `{arg}`"));
            }
            let seed = |v| parse_seed(v).map_err(|e| format!("{flag}: {e}"));
            let expected = |what: &str| {
                format!("{flag}: expected {what}, got `{}`", value.unwrap_or_default())
            };
            match (flag, value) {
                ("--all", None) => parsed.opts.fraction = 1.0,
                ("--resume", None) => parsed.resume = true,
                ("--weak-types", None) => parsed.opts.stub_flavor = StubFlavor::Production,
                ("--no-asserts", None) => parsed.opts.stub_flavor = StubFlavor::DebugNoAsserts,
                ("--all" | "--resume" | "--weak-types" | "--no-asserts", Some(_)) => {
                    return Err(format!("`{flag}` takes no value"));
                }
                (_, None) => return Err(format!("`{flag}` needs a value: `{flag}=...`")),
                ("--scenario", Some(v)) => parsed.scenario = v.to_string(),
                ("--fraction", Some(v)) => {
                    parsed.opts.fraction = unit(v).ok_or_else(|| expected("a number in 0..=1"))?;
                }
                ("--seed", Some(v)) => {
                    let s = seed(v)?;
                    (parsed.opts.seed, parsed.load.seed) = (s, s);
                }
                ("--threads", Some(v)) => {
                    let n = v.parse().map_err(|_| expected("a thread count"))?;
                    (parsed.opts.threads, parsed.serve.threads) = (n, n);
                }
                ("--fault-plan", Some(v)) => plan = Some(v.to_string()),
                ("--fault-seed", Some(v)) => fault_seed = Some(seed(v)?),
                ("--ledger", Some(v)) => {
                    parsed.ledger = Some(PathBuf::from(v));
                    parsed.serve.ledger = parsed.ledger.clone();
                }
                ("--addr", Some(v)) => parsed.addr = Some(v.to_string()),
                ("--queue-cap", Some(v)) => {
                    let cap: usize = v.parse().map_err(|_| expected("a queue capacity"))?;
                    parsed.serve.queue_cap = cap.max(1);
                }
                ("--quarantine-limit", Some(v)) => {
                    parsed.serve.quarantine_limit = v.parse().map_err(|_| expected(UP_TO_U32))?;
                }
                ("--drain-grace", Some(v)) => {
                    let secs = v.parse().map_err(|_| expected("whole seconds"))?;
                    parsed.serve.drain_grace = (secs != 0).then(|| Duration::from_secs(secs));
                }
                ("--verify-fraction", Some(v)) => {
                    parsed.serve.verify_fraction =
                        unit(v).ok_or_else(|| expected("a number in 0..=1"))?;
                }
                ("--mix", Some(v)) => mix = Some(parse_mix(v).map_err(|e| format!("{flag}: {e}"))?),
                ("--freq", Some(v)) => {
                    parsed.load.freq = positive(v).ok_or_else(|| expected("a positive number"))?;
                }
                ("--total", Some(v)) => {
                    parsed.load.total = v.parse().map_err(|_| expected("a submission count"))?;
                }
                ("--report-every", Some(v)) => {
                    let every = positive(v).and_then(|s| Duration::try_from_secs_f64(s).ok());
                    let every = every.ok_or_else(|| expected("positive seconds up to 1.8e19"))?;
                    parsed.load.report_every = Some(every);
                }
                ("--deadline-ms", Some(v)) => {
                    parsed.load.deadline_ms = v.parse().map_err(|_| expected(UP_TO_U32))?;
                }
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        // Resolving a scenario or a mix builds the scenario catalog, so
        // only the subcommands that take one resolve it.
        if accepted.contains(&"--mix") {
            parsed.load.mix = match mix {
                Some(mix) => mix,
                None => parse_mix(LoadConfig::DEFAULT_MIX)
                    .expect("the default mix names catalog scenarios"),
            };
        }
        if accepted.contains(&"--scenario") && find_case(&parsed.scenario).is_none() {
            return Err(format!(
                "unknown scenario `{}`; try one of {:?}",
                parsed.scenario,
                scenario_names()
            ));
        }
        if parsed.resume && parsed.ledger.is_none() {
            return Err("--resume requires --ledger=PATH".into());
        }
        if plan.is_some() || fault_seed.is_some() {
            let name = plan.as_deref().unwrap_or("mixed");
            let seed = fault_seed.unwrap_or(DEFAULT_FAULT_SEED);
            parsed.opts.fault_plan = Some(FaultPlan::named(name, seed).ok_or_else(|| {
                format!("unknown fault plan `{name}`; try one of {:?}", FaultPlan::plan_names())
            })?);
        }
        Ok(parsed)
    }

    /// The `--ledger` file opened for the campaign on `v`, the `nth`
    /// driver of this run, stamped with `campaign_spec_revision`: the
    /// first driver starts the file fresh unless `--resume` (which
    /// replays its surviving records as hits), and every later one
    /// appends to it — their revisions differ, so their entries never
    /// collide. `None` without `--ledger`; a file that cannot be opened
    /// ends the process with status 2.
    pub fn open_ledger(&self, v: &DriverVariant, nth: usize) -> Option<Ledger> {
        let path = self.ledger.as_ref()?;
        let rev = campaign_spec_revision(v, &self.opts);
        let opened = if self.resume || nth > 0 {
            Ledger::resume(path, rev)
        } else {
            Ledger::create(path, rev)
        };
        Some(opened.unwrap_or_else(|e| {
            usage_error(&format!("cannot open ledger {}: {e}", path.display()))
        }))
    }
}

/// Print a usage error and end the process with status 2, the status of
/// every command-line mistake.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The body of `devil table3` and `devil table4`: print the table
/// heading (`title`, then the scenario, sampling, ablation and fault
/// plan), the paper's figures (`paper`) when the run is the paper's
/// setup, and one outcome table per `style` driver the catalog pairs with
/// the scenario, each after its ledger counts when `--ledger` is given.
pub fn print_tables(args: &CampaignArgs, title: &str, style: CStyle, paper: &str) {
    let (scenario, opts) = (&args.scenario, &args.opts);
    let ablation = match opts.stub_flavor {
        StubFlavor::Debug => "",
        StubFlavor::Production => ", WEAK TYPES ablation",
        StubFlavor::DebugNoAsserts => ", NO ASSERTS ablation",
    };
    let hardware = match &opts.fault_plan {
        Some(p) => format!(", fault plan `{}` seed {:#x}", p.name(), p.seed()),
        None => String::new(),
    };
    println!(
        "{title}, `{scenario}` scenario (sampling {:.0}%, seed {:#x}{ablation}{hardware})",
        opts.fraction * 100.0,
        opts.seed,
    );
    if scenario == "ide-boot" && opts.fault_plan.is_none() {
        println!("{paper}");
    }
    println!();
    let (kind, driver) = match style {
        CStyle::PlainC => ("plain-C", "C"),
        CStyle::CDevil => ("CDevil glue", "CDevil"),
    };
    let variants = scenario_variants(scenario, style);
    if variants.is_empty() {
        println!("the `{scenario}` corpus has no {kind} driver yet — nothing to mutate");
    }
    for (nth, v) in variants.iter().enumerate() {
        let ledger = args.open_ledger(v, nth);
        let t = scenario_campaign(scenario, v, opts, ledger.as_ref());
        if let Some(l) = &ledger {
            let c = l.counters();
            println!(
                "ledger {}: {} replayed, {} classified fresh",
                l.path().display(),
                c.hits,
                c.misses
            );
        }
        let heading = format!("Mutations on the {driver} driver `{}`", v.label);
        println!("{}", render_outcome_table(&t, &heading));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_bench::tables::DEFAULT_SEED;

    const EVERY_FLAG: &[&str] = &[
        "--scenario",
        "--all",
        "--fraction",
        "--seed",
        "--threads",
        "--fault-plan",
        "--fault-seed",
        "--ledger",
        "--resume",
        "--weak-types",
        "--no-asserts",
        "--addr",
        "--queue-cap",
        "--quarantine-limit",
        "--drain-grace",
        "--verify-fraction",
        "--mix",
        "--freq",
        "--total",
        "--report-every",
        "--deadline-ms",
    ];

    fn parse(args: &[&str], accepted: &[&str]) -> Result<CampaignArgs, String> {
        let args = args.iter().map(|a| a.to_string());
        CampaignArgs::parse(args, CampaignOptions::default(), accepted)
    }

    #[test]
    fn campaign_args_defaults_come_from_the_caller() {
        let a = parse(&[], EVERY_FLAG).unwrap();
        assert_eq!(a.scenario, "ide-boot");
        assert_eq!((a.opts.fraction, a.opts.seed, a.opts.threads), (0.25, DEFAULT_SEED, 0));
        assert_eq!(a.opts.stub_flavor, StubFlavor::Debug);
        assert!(a.opts.fault_plan.is_none() && a.ledger.is_none() && !a.resume);
        let defaults = CampaignOptions { fraction: 0.05, seed: 42, ..CampaignOptions::default() };
        let a = CampaignArgs::parse(Vec::new(), defaults, EVERY_FLAG).unwrap();
        assert_eq!((a.opts.fraction, a.opts.seed), (0.05, 42));
    }

    #[test]
    fn campaign_args_parse_every_flag() {
        let a = parse(
            &[
                "--scenario=mouse-stream",
                "--fraction=0.5",
                "--seed=0x1f",
                "--threads=3",
                "--fault-plan=bus-noise",
                "--fault-seed=0X2A",
                "--ledger=out.bin",
                "--resume",
                "--weak-types",
            ],
            EVERY_FLAG,
        )
        .unwrap();
        assert_eq!(a.scenario, "mouse-stream");
        assert_eq!((a.opts.fraction, a.opts.seed, a.opts.threads), (0.5, 0x1F, 3));
        assert_eq!(a.opts.stub_flavor, StubFlavor::Production);
        let plan = a.opts.fault_plan.expect("fault plan set");
        assert_eq!((plan.name(), plan.seed()), ("bus-noise", 0x2A));
        assert_eq!(a.ledger, Some(PathBuf::from("out.bin")));
        assert!(a.resume);

        let a = parse(&["--all", "--no-asserts", "--seed=1234"], EVERY_FLAG).unwrap();
        assert_eq!((a.opts.fraction, a.opts.seed), (1.0, 1234));
        assert_eq!(a.opts.stub_flavor, StubFlavor::DebugNoAsserts);
        let a = parse(&["--seed=0XDE71"], EVERY_FLAG).unwrap();
        assert_eq!(a.opts.seed, 0xDE71, "both hex prefixes");
    }

    #[test]
    fn service_flags_parse_into_the_serve_and_load_configs() {
        let a = parse(&[], EVERY_FLAG).unwrap();
        let serve = ServeConfig::default();
        assert_eq!((a.serve.queue_cap, a.serve.drain_grace), (serve.queue_cap, serve.drain_grace));
        assert_eq!((a.load.freq, a.load.total, a.load.seed, a.load.mix.len()), (50.0, 250, 42, 2));
        let a = parse(
            &[
                "--addr=127.0.0.1:9",
                "--threads=3",
                "--queue-cap=0",
                "--quarantine-limit=4294967295",
                "--drain-grace=0",
                "--ledger=svc.bin",
                "--verify-fraction=0.5",
                "--mix=mouse-stream/busmouse_c:0.5:3",
                "--freq=2.5",
                "--total=7",
                "--seed=0x2A",
                "--report-every=0.25",
                "--deadline-ms=9",
            ],
            EVERY_FLAG,
        )
        .unwrap();
        assert_eq!(a.addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!((a.serve.threads, a.serve.queue_cap, a.serve.quarantine_limit), (3, 1, u32::MAX));
        assert_eq!(a.serve.drain_grace, None, "a 0 grace never force-sheds");
        assert_eq!(a.serve.ledger, Some(PathBuf::from("svc.bin")));
        assert_eq!(a.serve.verify_fraction, 0.5);
        assert_eq!((a.load.mix[0].driver.as_str(), a.load.mix[0].weight), ("busmouse_c", 3));
        assert_eq!((a.load.freq, a.load.total, a.load.seed, a.load.deadline_ms), (2.5, 7, 0x2A, 9));
        assert_eq!(a.load.report_every, Some(Duration::from_millis(250)));
        assert_eq!((a.opts.threads, a.opts.seed), (3, 0x2A), "one value for both front doors");
        let a = parse(&["--drain-grace=18446744073709551615"], EVERY_FLAG).unwrap();
        assert_eq!(a.serve.drain_grace, Some(Duration::from_secs(u64::MAX)));
    }

    #[test]
    fn one_fault_flag_implies_the_others_default() {
        let a = parse(&["--fault-plan=flaky-status"], EVERY_FLAG).unwrap();
        let plan = a.opts.fault_plan.unwrap();
        assert_eq!((plan.name(), plan.seed()), ("flaky-status", DEFAULT_FAULT_SEED));
        let a = parse(&["--fault-seed=7"], EVERY_FLAG).unwrap();
        let plan = a.opts.fault_plan.unwrap();
        assert_eq!((plan.name(), plan.seed()), ("mixed", 7));
    }

    #[test]
    fn campaign_args_usage_errors() {
        let err = |args: &[&str], accepted: &[&str]| parse(args, accepted).unwrap_err();
        assert_eq!(err(&["--bogus"], EVERY_FLAG), "unknown argument `--bogus`");
        assert_eq!(err(&["ide-boot"], EVERY_FLAG), "unknown argument `ide-boot`");
        assert_eq!(
            err(&["--ledger=x.bin"], &["--fraction", "--seed"]),
            "unknown argument `--ledger=x.bin`",
            "a flag the CLI does not take is unknown to it"
        );
        assert_eq!(err(&["--all=yes"], EVERY_FLAG), "`--all` takes no value");
        assert_eq!(err(&["--seed"], EVERY_FLAG), "`--seed` needs a value: `--seed=...`");
        assert!(err(&["--fraction=most"], EVERY_FLAG).starts_with("--fraction: "));
        for out_of_range in ["--fraction=-1", "--fraction=NaN", "--fraction=2"] {
            let e = err(&[out_of_range], EVERY_FLAG);
            assert!(e.starts_with("--fraction: ") && e.contains("0..=1"), "{e}");
        }
        assert!(err(&["--threads=-1"], EVERY_FLAG).starts_with("--threads: "));
        let e = err(&["--seed=0xzz"], EVERY_FLAG);
        assert!(e.starts_with("--seed: ") && e.contains("0x/0X hex literal"), "{e}");
        assert!(err(&["--fault-seed=ten"], EVERY_FLAG).starts_with("--fault-seed: "));
        // The catalog's names, in table order; `+faults` is no `--scenario`.
        for name in ["no-such", "ide-boot+faults"] {
            assert_eq!(
                err(&[&format!("--scenario={name}")], EVERY_FLAG),
                format!(
                    "unknown scenario `{name}`; try one of \
                     [\"ide-boot\", \"ide-stress\", \"mouse-stream\", \"ne2000-stress\"]"
                )
            );
        }
        let e = err(&["--fault-plan=no-such"], EVERY_FLAG);
        assert!(e.starts_with("unknown fault plan `no-such`"), "{e}");
        assert_eq!(err(&["--resume"], EVERY_FLAG), "--resume requires --ledger=PATH");
        for bad in [
            "--deadline-ms=4294967296",
            "--quarantine-limit=-1",
            "--queue-cap=many",
            "--drain-grace=1.5",
            "--verify-fraction=NaN",
            "--freq=0",
            "--freq=inf",
            "--total=-1",
            "--report-every=0",
            "--report-every=1e300",
            "--mix=no-such",
        ] {
            let flag = bad.split('=').next().unwrap();
            let e = err(&[bad], EVERY_FLAG);
            assert!(e.starts_with(&format!("{flag}: ")), "{bad}: {e}");
        }
    }
}
