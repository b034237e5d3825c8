//! Campaign runners and table renderers of the `devil` binary and the
//! `mutation_campaign` example; their command line (`CampaignArgs`)
//! lives in the `devil` package's `cli` module.
//!
//! The Table 3/4 campaigns run through the scenario catalog
//! (`devil_drivers::corpus`), which is built once per process and
//! borrowed by every lookup here: [`scenario_campaign`] evaluates any
//! `(scenario, driver)` pairing with the snapshot-reset `ScenarioMachine`
//! engine (one machine per worker, dirty-journal restores per mutant), so
//! `devil table3`/`devil table4` can emit a paper-style table for every
//! `corpus::scenario_names()` entry, not just the IDE boot. A campaign
//! samples the catalog driver's own mutant population
//! (`DriverVariant::mutants`) whatever stubs it compiles against.

use devil_core::codegen::CodegenMode;
use devil_drivers::corpus::{find_case, scenario_catalog, DriverVariant};
use devil_drivers::{ide, specs};
use devil_hwsim::FaultPlan;
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{Outcome, ScenarioMachine};
use devil_minic::pp::IncludeCache;
use devil_minic::ResumeStats;
use devil_mutagen::c::CStyle;
use devil_mutagen::devil::DevilMutationModel;
use devil_mutagen::{run_parallel, sample, Campaign, Ledger, LedgerKey, Mutant};
use std::collections::{BTreeMap, HashSet};

/// Default seed for the 25% sample, matching the paper's methodology of
/// randomly testing a quarter of the generated mutants.
pub const DEFAULT_SEED: u64 = 0xDE71;
/// Default sampling fraction.
pub const DEFAULT_FRACTION: f64 = 0.25;

/// Parse a seed CLI argument: a decimal integer or a `0x`/`0X`-prefixed
/// hex literal. The error message names the accepted forms.
pub fn parse_seed(v: &str) -> Result<u64, String> {
    v.strip_prefix("0x")
        .or_else(|| v.strip_prefix("0X"))
        .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
        .map_err(|_| format!("expected a decimal integer or 0x/0X hex literal, got `{v}`"))
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Specification display name.
    pub name: &'static str,
    /// Non-comment line count.
    pub lines: usize,
    /// Number of mutation sites.
    pub sites: usize,
    /// Number of injected mutants.
    pub mutants: usize,
    /// Mutants rejected by the Devil compiler.
    pub detected: usize,
}

impl Table2Row {
    /// Percentage of detected mutants.
    pub fn pct(&self) -> f64 {
        if self.mutants == 0 {
            0.0
        } else {
            100.0 * self.detected as f64 / self.mutants as f64
        }
    }
}

/// Run the Table 2 campaign: inject every mutant into every bundled
/// specification and count how many the Devil compiler rejects.
pub fn table2() -> Vec<Table2Row> {
    specs::all()
        .into_iter()
        .map(|(name, file, src)| {
            let model = DevilMutationModel::new(src).expect("bundled specs parse");
            let mutants = model.mutants();
            let verdicts =
                run_parallel(&mutants, 0, |m| devil_core::compile(file, &m.source).is_err());
            let detected = verdicts.iter().filter(|d| **d).count();
            Table2Row {
                name,
                lines: specs::effective_lines(src),
                sites: model.sites().len(),
                mutants: mutants.len(),
                detected,
            }
        })
        .collect()
}

/// Render Table 2 in the paper's format.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<32} {:>6} {:>7} {:>9} {:>11}\n",
        "", "lines", "sites", "mutants", "% detected"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<32} {:>6} {:>7} {:>9} {:>10.1}%\n",
            r.name,
            r.lines,
            r.sites,
            r.mutants,
            r.pct()
        ));
    }
    out
}

// ------------------------------------------------------------ Tables 3 & 4

/// Options for a driver campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Fraction of mutants to evaluate (paper: 0.25).
    pub fraction: f64,
    /// Sampling seed.
    pub seed: u64,
    /// Worker threads (0 = every available core).
    pub threads: usize,
    /// Interpreter fuel per boot.
    pub fuel: u64,
    /// The stubs a CDevil IDE campaign compiles against (ignored for the
    /// other drivers): the debug stubs of Table 4, or an ablation of
    /// DESIGN.md §5 (`--no-asserts`, `--weak-types`).
    pub stub_mode: CodegenMode,
    /// Run the campaign on deterministically flaky hardware under this
    /// fault plan (`None` = fault-free hardware, the classic tables).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            fraction: DEFAULT_FRACTION,
            seed: DEFAULT_SEED,
            threads: 0,
            fuel: DEFAULT_FUEL,
            stub_mode: CodegenMode::Debug,
            fault_plan: None,
        }
    }
}

/// Aggregated campaign result: the paper's outcome table.
#[derive(Debug, Clone)]
pub struct OutcomeTable {
    /// Per-outcome `(distinct mutation sites, mutants)`.
    pub rows: BTreeMap<Outcome, (usize, usize)>,
    /// Total mutants evaluated.
    pub total_mutants: usize,
    /// Total distinct sites evaluated.
    pub total_sites: usize,
    /// Total mutants generated before sampling.
    pub generated: usize,
    /// How the campaign's compiles used the front-end checkpoint of its
    /// include cache.
    pub front_end: ResumeStats,
}

impl OutcomeTable {
    /// Fraction (0..=1) of evaluated mutants with the given outcome.
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        if self.total_mutants == 0 {
            return 0.0;
        }
        self.rows.get(&outcome).map_or(0, |(_, m)| *m) as f64 / self.total_mutants as f64
    }

    /// Fraction of mutants detected at compile or run time.
    pub fn detected_fraction(&self) -> f64 {
        self.fraction(Outcome::CompileCheck) + self.fraction(Outcome::RuntimeCheck)
    }

    /// Fraction of mutants that booted with no detection and no damage —
    /// the paper's "worst case".
    pub fn undetected_fraction(&self) -> f64 {
        self.fraction(Outcome::Boot)
    }
}

/// The include set a catalog variant compiles against: its catalog
/// headers (the debug stubs), except that the Table 4 ablations
/// regenerate the IDE CDevil glue's header, the only one they swap.
fn variant_headers(v: &DriverVariant, mode: CodegenMode) -> Vec<(String, String)> {
    if mode == CodegenMode::Debug || v.file != ide::IDE_CDEVIL_FILE {
        return v.headers.clone();
    }
    vec![(ide::IDE_HEADER_NAME.to_string(), ide::ide_header(mode))]
}

/// The spec-revision fingerprint a ledgered campaign stamps its entries
/// with: the workspace-wide revision (`devil_drivers::corpus::spec_revision`
/// — `.dil` specs, engine version, fuel) *plus* the headers this variant
/// actually compiles against under the chosen stub mode. Folding the
/// headers in means a Table 4 ablation (`--no-asserts`, `--weak-types`)
/// can share a ledger file with the debug-stub run without ever serving
/// its outcomes: the revisions differ, so foreign entries are stale, not
/// wrong.
pub fn campaign_spec_revision(v: &DriverVariant, opts: &CampaignOptions) -> u64 {
    let headers = variant_headers(v, opts.stub_mode);
    let spec_pairs = specs::all();
    let pairs = spec_pairs
        .iter()
        .map(|(_, file, src)| (*file, *src))
        .chain(headers.iter().map(|(name, text)| (name.as_str(), text.as_str())));
    devil_mutagen::ledger::spec_revision(pairs, opts.fuel)
}

/// Run one `(scenario, driver)` campaign, `scenario` a catalog base name
/// and the hardware's fault plan in `opts`, through the snapshot-reset
/// engine: one `ScenarioMachine` per worker thread, each mutant evaluated
/// as restore → compile → drive → classify. Every worker compiles through
/// one campaign-wide [`IncludeCache`], so the driver's prefix up to its
/// `#include` is compiled once per campaign; the table carries the
/// cache's [`ResumeStats`].
///
/// With a `ledger` (opened with [`campaign_spec_revision`] as its
/// revision), every classification is appended the moment a worker
/// produces it, and mutants whose key is already recorded are answered
/// from the ledger without a run, so a campaign killed partway (even
/// `kill -9`) resumes by rerunning only the missing mutants and produces
/// a bit-identical table.
pub fn scenario_campaign(
    scenario: &str,
    v: &DriverVariant,
    opts: &CampaignOptions,
    ledger: Option<&Ledger>,
) -> OutcomeTable {
    // The mutant set always comes from the *catalog* headers (the debug
    // stubs for the IDE glue): the §5 ablations swap only what the
    // mutants compile against, so every ablation samples the same seeded
    // mutant population and the tables stay comparable across them.
    let all_mutants = v.mutants();
    let generated = all_mutants.len();
    let mutants = sample(all_mutants, opts.fraction, opts.seed);
    let headers = variant_headers(v, opts.stub_mode);
    let inc_refs: Vec<(&str, &str)> =
        headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let cache = IncludeCache::new(&inc_refs);
    let fuel = opts.fuel;
    let fault_plan = opts.fault_plan.as_ref();
    let case = find_case(scenario).expect("a catalog scenario");
    let campaign = Campaign::new(
        || ScenarioMachine::with_scenario(case.build(fault_plan.cloned()), fuel),
        |machine: &mut ScenarioMachine<_>, m: &Mutant| {
            machine.run_cached(v.file, &m.source, &cache, Some(m.line), None).0
        },
    )
    .with_threads(opts.threads);
    let outcomes = match ledger {
        None => campaign.run(&mutants),
        Some(ledger) => {
            let rev = ledger.spec_rev();
            let (plan, plan_seed) = fault_plan.map_or(("", 0), |p| (p.name(), p.seed()));
            campaign.run_memoized(
                &mutants,
                ledger,
                |m| LedgerKey::new(v.file, &m.source, scenario, plan, plan_seed, m.line, rev),
                // The table campaigns record outcome codes only (the
                // detail never reaches a table); nondeterministic
                // outcomes are never checkpointed.
                |o| o.is_deterministic().then(|| (o.code(), String::new())),
                |code, _| Outcome::from_code(code),
            )
        }
    };
    let mut rows: BTreeMap<Outcome, (HashSet<usize>, usize)> = BTreeMap::new();
    let mut all_sites = HashSet::new();
    for (m, o) in mutants.iter().zip(outcomes) {
        let e = rows.entry(o).or_default();
        e.0.insert(m.site);
        e.1 += 1;
        all_sites.insert(m.site);
    }
    OutcomeTable {
        rows: rows.into_iter().map(|(k, (s, n))| (k, (s.len(), n))).collect(),
        total_mutants: mutants.len(),
        total_sites: all_sites.len(),
        generated,
        front_end: cache.resume_stats(),
    }
}

/// The catalog variants of `scenario` on one side of the Table 3/4 split:
/// plain-C drivers for Table 3, CDevil glue drivers for Table 4.
pub fn scenario_variants(scenario: &str, style: CStyle) -> Vec<DriverVariant> {
    let Some(case) = find_case(scenario) else { return Vec::new() };
    case.drivers.iter().filter(|v| v.style == style).cloned().collect()
}

// ------------------------------------------------- Fault attribution

/// One clean-driver-on-flaky-hardware experiment: a scenario/driver pair
/// under one named fault plan, run across several plan seeds, with the
/// classified outcomes tallied.
///
/// This is the robustness control for the whole outcome taxonomy: the
/// *driver* is unmutated, so every non-`Boot` outcome is caused purely by
/// injected hardware misbehaviour — and none of them may be a
/// compile-time or run-time *check*, because those two classes are the
/// paper's "driver bug detected" verdicts. [`AttributionRow::misattributed`]
/// counts exactly those, and the fault differential test pins it at zero.
#[derive(Debug, Clone)]
pub struct AttributionRow {
    /// Scenario the clean driver ran under (base name, without `+faults`).
    pub scenario: &'static str,
    /// Driver label from the catalog.
    pub driver: &'static str,
    /// Bundled fault-plan name.
    pub plan: &'static str,
    /// Outcome tally across the seeds.
    pub outcomes: BTreeMap<Outcome, usize>,
}

impl AttributionRow {
    /// Hardware-only faults classified as driver-bug detections
    /// (compile-time or run-time checks) — must be zero for a sound
    /// taxonomy.
    pub fn misattributed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(o, _)| o.is_detected())
            .map(|(_, n)| n)
            .sum()
    }
}

/// Run every clean catalog driver under each named fault `plan`, once per
/// seed in `seeds`, and tally the outcome attribution.
///
/// The clean driver is compiled once per worker (the bytecode holds
/// non-`Sync` constants, so the compiled program is the per-worker
/// workspace rather than shared); each seed is one campaign item (the
/// generalised `Campaign` iterating seeds instead of mutants), evaluated
/// on a freshly built `<scenario>+faults` machine — the plan seed is part
/// of machine construction, so seeds cannot share one snapshot.
pub fn fault_attribution(
    plans: &[&'static str],
    seeds: &[u64],
    threads: usize,
    fuel: u64,
) -> Vec<AttributionRow> {
    let mut rows = Vec::new();
    for case in scenario_catalog() {
        for v in &case.drivers {
            let incs: Vec<(&str, &str)> =
                v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            for plan in plans {
                let (file, source, incs) = (v.file, v.source, &incs);
                let outcomes: Vec<Outcome> = Campaign::new(
                    || {
                        devil_minic::compile_with_includes(file, source, incs)
                            .expect("clean catalog drivers compile")
                            .to_bytecode()
                    },
                    |compiled: &mut devil_minic::CompiledProgram, seed: &u64| {
                        let p = FaultPlan::named(plan, *seed).expect("bundled plan name");
                        ScenarioMachine::with_scenario(case.build(Some(p)), fuel)
                            .run_compiled(compiled)
                            .outcome
                    },
                )
                .with_threads(threads)
                .run(seeds);
                let mut tally: BTreeMap<Outcome, usize> = BTreeMap::new();
                for o in outcomes {
                    *tally.entry(o).or_default() += 1;
                }
                rows.push(AttributionRow {
                    scenario: case.scenario,
                    driver: v.label,
                    plan,
                    outcomes: tally,
                });
            }
        }
    }
    rows
}

/// Render the attribution table, one line per row, stable across runs —
/// the format the `fault_attribution.txt` golden file pins.
pub fn render_attribution(rows: &[AttributionRow]) -> String {
    let mut out = String::from(
        "clean drivers on flaky hardware: outcome attribution by fault plan\n",
    );
    for r in rows {
        let mut tally = String::new();
        for outcome in Outcome::table_order() {
            if let Some(n) = r.outcomes.get(&outcome) {
                tally.push_str(&format!(" {outcome:?}={n}"));
            }
        }
        out.push_str(&format!(
            "{:<14} {:<18} {:<14} misattributed={}{}\n",
            r.scenario,
            r.driver,
            r.plan,
            r.misattributed(),
            tally
        ));
    }
    out
}

/// Render an outcome table in the paper's Table 3/4 format.
pub fn render_outcome_table(t: &OutcomeTable, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<20} {:>16} {:>10} {:>22}\n",
        "", "mutation sites", "mutants", "mutants / total"
    ));
    for outcome in Outcome::table_order() {
        let (sites, mutants) = t.rows.get(&outcome).copied().unwrap_or((0, 0));
        if mutants == 0 && !matches!(outcome, Outcome::CompileCheck | Outcome::Boot) {
            continue;
        }
        out.push_str(&format!(
            "{:<20} {:>16} {:>10} {:>21.1}%\n",
            outcome.to_string(),
            sites,
            mutants,
            100.0 * mutants as f64 / t.total_mutants.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "{:<20} {:>16} {:>10}   (sampled from {} generated)\n",
        "Total",
        t.total_sites,
        t.total_mutants,
        t.generated
    ));
    out
}

/// The §4.2 headline numbers derived from two campaigns.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Detection rate of the C driver (compile + run time).
    pub c_detected: f64,
    /// Detection rate of the CDevil driver.
    pub cdevil_detected: f64,
    /// Undetected ("Boot") rate of the C driver.
    pub c_undetected: f64,
    /// Undetected rate of the CDevil driver.
    pub cdevil_undetected: f64,
}

impl Headline {
    /// Compute from the two campaign tables.
    pub fn from_tables(c: &OutcomeTable, cdevil: &OutcomeTable) -> Headline {
        Headline {
            c_detected: c.detected_fraction(),
            cdevil_detected: cdevil.detected_fraction(),
            c_undetected: c.undetected_fraction(),
            cdevil_undetected: cdevil.undetected_fraction(),
        }
    }

    /// Detection improvement factor (paper: ≈ 3×).
    pub fn detection_factor(&self) -> f64 {
        if self.c_detected == 0.0 {
            f64::INFINITY
        } else {
            self.cdevil_detected / self.c_detected
        }
    }

    /// Undetected-error reduction factor (paper: ≈ 3×).
    pub fn undetected_factor(&self) -> f64 {
        if self.cdevil_undetected == 0.0 {
            f64::INFINITY
        } else {
            self.c_undetected / self.cdevil_undetected
        }
    }

    /// Render the headline comparison.
    pub fn render(&self) -> String {
        format!(
            "detected:   C {:.1}%  vs  CDevil {:.1}%  ({:.1}x more errors caught)\n\
             undetected: C {:.1}%  vs  CDevil {:.1}%  ({:.1}x fewer silent errors)\n",
            100.0 * self.c_detected,
            100.0 * self.cdevil_detected,
            self.detection_factor(),
            100.0 * self.c_undetected,
            100.0 * self.cdevil_undetected,
            self.undetected_factor()
        )
    }
}

/// Render Table 1 (the C operator mutation classes).
pub fn render_table1() -> String {
    let ops = [
        "|", "&", "^", "<<", ">>", "+", "-", "&&", "||", "==", "!=", "~", "!", "|=", "&=", "^=",
        "<<=", ">>=", "+=", "-=",
    ];
    let mut out = String::from("operator   mutants\n");
    for op in ops {
        let ms = devil_mutagen::operator::c_operator_mutants(op);
        out.push_str(&format!("{:<10} {}\n", op, ms.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_all_classes() {
        let t = render_table1();
        assert!(t.contains("<<         >>"), "{t}");
        assert!(t.lines().count() > 15);
    }

    /// The `ide-boot` driver of one side of the Table 3/4 split.
    fn ide_boot_variant(style: CStyle) -> DriverVariant {
        let mut variants = scenario_variants("ide-boot", style);
        assert_eq!(variants.len(), 1, "the catalog pairs the IDE boot with one {style:?} driver");
        variants.remove(0)
    }

    #[test]
    fn driver_mutant_sets_are_nonempty_and_distinct() {
        let c = ide_boot_variant(CStyle::PlainC).mutants();
        let d = ide_boot_variant(CStyle::CDevil).mutants();
        assert!(c.len() > 500, "C mutants: {}", c.len());
        assert!(d.len() > 500, "CDevil mutants: {}", d.len());
    }

    #[test]
    fn tiny_campaign_produces_sane_rows() {
        // A very small sample to keep the test fast; the real numbers come
        // from `devil table3` in release mode.
        let opts = CampaignOptions {
            fraction: 0.01,
            seed: 7,
            threads: 4,
            fuel: 600_000,
            stub_mode: CodegenMode::Debug,
            fault_plan: None,
        };
        let t = scenario_campaign("ide-boot", &ide_boot_variant(CStyle::PlainC), &opts, None);
        assert!(t.total_mutants > 10);
        let accounted: usize = t.rows.values().map(|(_, m)| *m).sum();
        assert_eq!(accounted, t.total_mutants);
        let rendered = render_outcome_table(&t, "tiny");
        assert!(rendered.contains("Total"), "{rendered}");
    }

    #[test]
    fn seed_arguments_accept_decimal_and_both_hex_prefixes() {
        assert_eq!(parse_seed("1234"), Ok(1234));
        assert_eq!(parse_seed("0x1f"), Ok(0x1F));
        assert_eq!(parse_seed("0X1F"), Ok(0x1F));
        assert_eq!(parse_seed("0xDE71"), Ok(0xDE71));
        let err = parse_seed("0xzz").unwrap_err();
        assert!(err.contains("0x/0X hex literal"), "{err}");
        assert!(parse_seed("").is_err());
        assert!(parse_seed("-3").is_err());
    }

    #[test]
    fn headline_math() {
        let mk = |detected: usize, boot: usize, total: usize| OutcomeTable {
            rows: [
                (Outcome::CompileCheck, (1, detected)),
                (Outcome::Boot, (1, boot)),
            ]
            .into_iter()
            .collect(),
            total_mutants: total,
            total_sites: 2,
            generated: total,
            front_end: ResumeStats::default(),
        };
        let c = mk(27, 35, 100);
        let d = mk(72, 12, 100);
        let h = Headline::from_tables(&c, &d);
        assert!((h.detection_factor() - 72.0 / 27.0).abs() < 1e-9);
        assert!((h.undetected_factor() - 35.0 / 12.0).abs() < 1e-9);
        assert!(h.render().contains("x more errors caught"));
    }
}
