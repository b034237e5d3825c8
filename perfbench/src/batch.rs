//! The Table 3 and Table 4 campaign workloads. Every pass is one table
//! campaign made as `table3`/`table4` make it: the catalog lookup (which
//! generates the IDE debug stub header from its `.dil` spec), mutant
//! generation and the seeded 25% sample, then one `Campaign` worker whose
//! factory builds the `ide-boot` machine and which classifies every
//! sampled mutant with `ScenarioMachine::run`.

use crate::pipeline::{self, Counts, Machine, STAGES};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{ms_since, Metrics, Run, SetupSpans};
use devil_bench::tables::{scenario_variants, DEFAULT_FRACTION};
use devil_drivers::corpus::{build_scenario, DriverVariant};
use devil_drivers::ide;
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{run_mutant_in, Outcome, ScenarioMachine};
use devil_minic::pp::{self, IncludeCache};
use devil_mutagen::c::{CMutationModel, CStyle};
use devil_mutagen::{sample, Campaign, Mutant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The scenario both tables boot their mutants under.
const SCENARIO: &str = "ide-boot";

/// Every this many mutants of the sample, one is re-classified on the
/// rebuild-per-mutant reference path (fresh machine, uncached compile).
const REFERENCE_STRIDE: usize = 16;

/// The held-out seed: tallies pinned, never used while tuning.
const HELD_OUT_SEED: u64 = 0x5EED_1DE5;

/// One campaign workload.
pub struct Spec {
    /// Workload name on the command line.
    name: &'static str,
    /// The catalog's IDE driver of this style.
    style: CStyle,
    /// Outcome tallies the tables print for a seed, in table order.
    pinned: &'static [(u64, [u64; 8])],
}

/// Table 3: the plain-C IDE driver.
pub const TABLE3_C: Spec = Spec {
    name: "table3-c",
    style: CStyle::PlainC,
    pinned: &[
        // CompileCheck RuntimeCheck Crash InfiniteLoop Halt DamagedBoot Boot DeadCode
        (0xDE71, [382, 0, 19, 39, 233, 98, 703, 0]),
        (HELD_OUT_SEED, [363, 0, 24, 38, 267, 110, 672, 0]),
    ],
};

/// Table 4: the CDevil IDE driver against the debug stub header.
pub const TABLE4_CDEVIL: Spec = Spec {
    name: "table4-cdevil",
    style: CStyle::CDevil,
    pinned: &[
        (0xDE71, [963, 104, 17, 24, 154, 52, 269, 169]),
        (HELD_OUT_SEED, [907, 94, 16, 23, 166, 55, 308, 183]),
    ],
};

/// A campaign's work, made before its machine is built.
struct Work {
    variant: DriverVariant,
    /// The headers the mutants compile against.
    headers: Vec<(String, String)>,
    sample: Vec<Mutant>,
}

impl Work {
    fn header_refs(&self) -> Vec<(&str, &str)> {
        self.headers
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect()
    }
}

/// The tables' set-up: the catalog's driver and headers, then every
/// mutant and the seeded sample. Fills the stub and generation spans.
fn make_work(spec: &Spec, seed: u64, spans: &mut SetupSpans) -> Work {
    let t = Instant::now();
    let variant = scenario_variants(SCENARIO, spec.style)
        .into_iter()
        .next()
        .expect("the catalog pairs the IDE boot with both IDE drivers");
    // The tables' default debug-stub flavour generates the CDevil
    // driver's header once more; the plain-C driver has none.
    let headers = if variant.file == ide::IDE_CDEVIL_FILE {
        ide::cdevil_includes()
    } else {
        variant.headers.clone()
    };
    spans.stubgen_ms = ms_since(t);

    let t = Instant::now();
    let texts: Vec<&str> = variant.headers.iter().map(|(_, t)| t.as_str()).collect();
    let all = CMutationModel::new(variant.source, &texts, variant.style).mutants();
    let sample = sample(all, DEFAULT_FRACTION, seed);
    spans.generate_ms = ms_since(t);
    Work {
        variant,
        headers,
        sample,
    }
}

/// Passes every untraced run makes at least; more while `--seconds`
/// lasts. A table4-cdevil pass takes 13–17 s, so its mutants get four
/// readings each, where three left a run's fastest pass 11% apart
/// across seeds.
const MIN_PASSES: usize = 4;

/// No pass starts that would, at the pace of the slowest so far, end
/// later than this after the run began: where a table4-cdevil pass takes
/// over ~17.5 s, a run stops after three passes, and over ~23 s after
/// two, rather than overrun its time limit.
const PASS_BUDGET_S: f64 = 70.0;

/// One pass: its set-up, its outcomes and, per mutant, its start and end
/// in nanoseconds since the run's epoch, all in sample order.
struct Pass {
    /// From the start of the pass to its first mutant, s.
    setup_s: f64,
    spans: SetupSpans,
    outcomes: Vec<Outcome>,
    starts: Vec<u64>,
    ends: Vec<u64>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        let first = self.starts.iter().min().copied().unwrap_or(0);
        let last = self.ends.iter().max().copied().unwrap_or(0);
        (last - first) as f64 / 1e9
    }

    /// Each mutant's share of the pass's wall time, in ns: from its
    /// start to the next mutant's start (to its own end for the last),
    /// so the shares add up to the pass.
    fn shares(&self, order: &[usize]) -> Vec<u64> {
        let mut share = vec![0; order.len()];
        for (k, &i) in order.iter().enumerate() {
            let next = order.get(k + 1).map_or(self.ends[i], |&j| self.starts[j]);
            share[i] = next - self.starts[i];
        }
        share
    }
}

/// The run's fastest pass: each mutant's share of a pass and its
/// classification latency, both the least over the run's passes. The
/// host only ever adds time to a mutant, and on a shared host it does so
/// in phases of seconds that slow every pass they cover by up to 1.8×;
/// a median over passes flips with the share of the run such a phase
/// covers, while each mutant's fastest reading stays on its own cost.
struct FastestPass {
    wall_s: f64,
    /// Per-mutant latency in ms, ascending, with the mutant's outcome.
    latencies: Vec<(f64, String)>,
}

impl FastestPass {
    fn new(passes: &[Pass], order: &[usize]) -> FastestPass {
        let shares: Vec<Vec<u64>> = passes.iter().map(|p| p.shares(order)).collect();
        let n = order.len();
        let per_mutant = |f: &dyn Fn(usize, usize) -> u64| -> Vec<u64> {
            (0..n)
                .map(|i| (0..passes.len()).map(|p| f(p, i)).min().unwrap_or(0))
                .collect()
        };
        let wall_ns: u64 = per_mutant(&|p, i| shares[p][i]).iter().sum();
        let latency = per_mutant(&|p, i| passes[p].ends[i] - passes[p].starts[i]);
        let mut latencies: Vec<(f64, String)> = latency
            .into_iter()
            .zip(&passes[0].outcomes)
            .map(|(ns, o)| (ns as f64 / 1e6, format!("{o:?}")))
            .collect();
        latencies.sort_by(|a, b| a.0.total_cmp(&b.0));
        FastestPass {
            wall_s: wall_ns as f64 / 1e9,
            latencies,
        }
    }

    fn percentile_ms(&self, p: f64) -> Option<f64> {
        let sorted: Vec<f64> = self.latencies.iter().map(|(ms, _)| *ms).collect();
        percentile(&sorted, p)
    }
}

/// One table campaign from scratch, its sample classified in the order
/// `order` gives (made from the sample's size on the first pass). Returns
/// the pass and its work.
fn campaign_pass(
    spec: &Spec,
    seed: u64,
    order: &mut Vec<usize>,
    order_seed: u64,
    epoch: Instant,
) -> (Pass, Work) {
    let now = || epoch.elapsed().as_nanos() as u64;
    let begin = now();
    let mut spans = SetupSpans::default();
    let work = make_work(spec, seed, &mut spans);
    let n = work.sample.len();
    if order.is_empty() {
        *order = (0..n).collect();
        crate::shuffle(order, order_seed);
    }
    let refs = work.header_refs();
    let starts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let ends: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let build_ns = AtomicU64::new(0);
    let (v, sample) = (&work.variant, &work.sample);
    let outcomes = Campaign::new(
        || {
            let t = now();
            let built = build_scenario(SCENARIO).expect("catalog scenario builds");
            let machine = ScenarioMachine::with_scenario(built, DEFAULT_FUEL);
            build_ns.store(now() - t, Ordering::Relaxed);
            machine
        },
        |machine: &mut ScenarioMachine<_>, &i: &usize| {
            starts[i].store(now(), Ordering::Relaxed);
            let m = &sample[i];
            let o = machine.run(v.file, &m.source, &refs, Some(m.line)).0;
            ends[i].store(now(), Ordering::Relaxed);
            o
        },
    )
    .with_threads(1)
    .run(order);
    spans.build_ms = build_ns.into_inner() as f64 / 1e6;
    let mut in_sample_order = vec![Outcome::Boot; n];
    for (&i, o) in order.iter().zip(outcomes) {
        in_sample_order[i] = o;
    }
    let load =
        |v: Vec<AtomicU64>| -> Vec<u64> { v.into_iter().map(AtomicU64::into_inner).collect() };
    let starts = load(starts);
    let first = order.first().map_or(begin, |&i| starts[i]);
    let pass = Pass {
        setup_s: (first - begin) as f64 / 1e9,
        spans,
        outcomes: in_sample_order,
        starts,
        ends: load(ends),
    };
    (pass, work)
}

/// Check a pass's outcomes: pinned tally for a pinned seed, and the
/// reference path on every `REFERENCE_STRIDE`-th mutant.
fn verify(spec: &Spec, seed: u64, work: &Work, outcomes: &[Outcome]) -> Vec<String> {
    let mut errors = Vec::new();
    let tally = pipeline::tally(outcomes.iter().copied());
    println!(
        "tally:{}",
        tally
            .iter()
            .map(|(o, n)| format!(" {o:?}={n}"))
            .collect::<String>()
    );
    if let Some((_, want)) = spec.pinned.iter().find(|(s, _)| *s == seed) {
        let got: Vec<u64> = Outcome::table_order()[..8]
            .iter()
            .map(|o| tally[o])
            .collect();
        if got != want {
            errors.push(format!("tally {got:?} differs from the pinned {want:?}"));
        }
    }
    let refs = work.header_refs();
    for (i, m) in work.sample.iter().enumerate().step_by(REFERENCE_STRIDE) {
        let (want, _) = run_mutant_in(
            build_scenario(SCENARIO).expect("catalog scenario builds"),
            work.variant.file,
            &m.source,
            &refs,
            Some(m.line),
            DEFAULT_FUEL,
        );
        if outcomes[i] != want {
            errors.push(format!(
                "mutant {i}: {:?} but the reference path says {want:?}",
                outcomes[i]
            ));
        }
    }
    errors
}

/// Replay the sample stage by stage with spans, on a machine and an
/// include cache the benchmark builds itself, and report the per-layer
/// metrics. Returns the operations the service replay attempted and
/// failed.
fn traced_replay(
    work: &Work,
    order: &[usize],
    outcomes: &[Outcome],
    untraced_s: f64,
    args: &crate::Args,
    metrics: &mut Metrics,
    errors: &mut Vec<String>,
) -> (u64, u64) {
    let (file, n) = (work.variant.file, work.sample.len());
    // The include cache the replay's preprocessor reads, lexed by one
    // preprocess of the clean driver; the campaign's machine builds its
    // own on its first mutant.
    let t = Instant::now();
    let cache = IncludeCache::new(&work.header_refs());
    pp::preprocess_cached(file, work.variant.source, &cache).expect("clean driver preprocesses");
    let include_cache_ms = ms_since(t);
    let mut machine = Machine::build(build_scenario(SCENARIO).expect("catalog scenario builds"));

    let mut tr = Tracer::new(n * (STAGES.len() + 1));
    let mut counts = Counts::default();
    let t0 = tr.now();
    let mut traced = vec![Outcome::Boot; n];
    for &i in order {
        let m = &work.sample[i];
        traced[i] = pipeline::classify_traced(
            &mut tr,
            i as u64,
            &mut machine,
            &cache,
            file,
            &m.source,
            m.line,
            &mut counts,
        );
    }
    let traced_s = (tr.now() - t0) as f64 / 1e9;
    if let Some(i) = (0..n).find(|&i| traced[i] != outcomes[i]) {
        errors.push(format!(
            "mutant {i}: traced replay says {:?}, untraced pass {:?}",
            traced[i], outcomes[i]
        ));
    }
    crate::stage_metrics(metrics, &tr, n, untraced_s, traced_s);
    crate::count_metrics(metrics, &counts, &pipeline::tally(outcomes.iter().copied()));
    metrics.put("minic.include_cache_ms", include_cache_ms);
    crate::write_trace(&tr, args);
    // The other front door: the same sample through the service.
    crate::service::replay_sample(
        file,
        work.variant.source,
        &work.sample,
        outcomes,
        args.seed,
        metrics,
        errors,
    )
}

/// Run one campaign workload.
pub fn run(spec: &Spec, args: &crate::Args) -> Run {
    let (seed, trace) = (args.sample_seed, args.trace);
    let epoch = Instant::now();
    let mut order = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut work = None;
    let enough = |passes: &[Pass]| {
        let elapsed = epoch.elapsed().as_secs_f64();
        let slowest = passes.iter().map(Pass::wall_s).fold(0.0, f64::max);
        match passes.len() {
            0 => false,
            _ if trace => true,
            k => (k >= MIN_PASSES && elapsed >= args.seconds) || elapsed + slowest > PASS_BUDGET_S,
        }
    };
    while !enough(&passes) {
        let (pass, w) = campaign_pass(spec, seed, &mut order, args.seed, epoch);
        println!(
            "pass {}: set-up {:.1} ms, {:.3} s, {:.1} mutants/s",
            passes.len(),
            pass.setup_s * 1e3,
            pass.wall_s(),
            order.len() as f64 / pass.wall_s()
        );
        passes.push(pass);
        work = Some(w);
    }
    let work = work.expect("at least one pass");
    let n = work.sample.len();
    println!("{}: {n} mutants sampled", spec.name);
    let mut errors = Vec::new();
    if passes.iter().any(|q| q.outcomes != passes[0].outcomes) {
        errors.push("passes disagree on an outcome".to_string());
    }
    let outcomes = passes[0].outcomes.clone();
    let mut metrics = Metrics::default();
    let failed = outcomes
        .iter()
        .filter(|o| pipeline::is_failure(**o))
        .count()
        * passes.len();
    let mut attempted = (n * passes.len()) as u64;
    let mut failed = failed as u64;

    if trace {
        let (offered, refused) = traced_replay(
            &work,
            &order,
            &outcomes,
            passes[0].wall_s(),
            args,
            &mut metrics,
            &mut errors,
        );
        attempted += offered;
        failed += refused;
        passes[0].spans.put(&mut metrics);
    } else {
        let m = FastestPass::new(&passes, &order);
        let (p50, p99) = (m.percentile_ms(50.0), m.percentile_ms(99.0));
        let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
        // Set-up is mostly mutant generation, which allocates every
        // mutant's source: a slow phase of the host doubles it (11 to
        // 22 ms on table3-c), so its median over passes flips with the
        // phases as a pass's did, and its fastest reading does not.
        let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "fastest pass of {}: {:.3} s, {:.1} mutants/s; latency over {n} mutants p50 {p50:?} ms, p99 {p99:?} ms; set-up {:.2?} ms",
            passes.len(),
            m.wall_s,
            n as f64 / m.wall_s,
            setups.iter().map(|s| s * 1e3).collect::<Vec<_>>()
        );
        crate::print_cost_modes(&m.latencies);
        metrics.put("setup_s", setup_s);
        metrics.put("mutants_per_s", n as f64 / m.wall_s);
    }
    errors.extend(verify(spec, seed, &work, &outcomes));
    Run {
        errors,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass over three mutants run back to back in `order`, each taking
    /// `cost[i]` ns.
    fn pass(order: &[usize], cost: [u64; 3], start: u64) -> Pass {
        let (mut starts, mut ends) = (vec![0; 3], vec![0; 3]);
        let mut t = start;
        for &i in order {
            starts[i] = t;
            t += cost[i];
            ends[i] = t;
        }
        Pass {
            setup_s: 0.0,
            spans: SetupSpans::default(),
            outcomes: vec![Outcome::Boot; 3],
            starts,
            ends,
        }
    }

    #[test]
    fn shares_add_up_to_the_pass() {
        let order = [2, 0, 1];
        let p = pass(&order, [10, 20, 30], 100);
        assert_eq!(p.shares(&order), vec![10, 20, 30]);
        assert_eq!(p.wall_s(), 60e-9);
    }

    #[test]
    fn fastest_pass_takes_each_mutant_at_its_fastest() {
        // A phase that slows most passes by 1.8× moves the median pass;
        // it does not move each mutant's fastest reading.
        let order = [1, 0, 2];
        let passes = [
            pass(&order, [18, 36, 54], 0),
            pass(&order, [10, 20, 30], 200),
            pass(&order, [18, 36, 54], 400),
            pass(&order, [12, 18, 30], 600),
            pass(&order, [18, 36, 54], 800),
        ];
        let m = FastestPass::new(&passes, &order);
        assert_eq!(m.wall_s, (10 + 18 + 30) as f64 / 1e9);
        let ms: Vec<f64> = m.latencies.iter().map(|(ms, _)| *ms).collect();
        assert_eq!(ms, vec![10e-6, 18e-6, 30e-6]);
    }
}
