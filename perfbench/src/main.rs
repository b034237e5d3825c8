//! End-to-end and per-stage benchmark of the Table 3/4 mutation
//! campaigns, with the classification service as their second front
//! door.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3-c|table4-cdevil> \
//!     [--seed N] [--sample-seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in its own process, checks its outputs and prints,
//! as the last line of standard output, one JSON object: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a separate traced run. Earlier lines carry the host record
//! and the figures behind each metric. The process exits non-zero when a
//! correctness check fails. `BENCHMARK.json` at the repository root
//! lists the workloads and the metrics; `perfbench/README.md` describes
//! them.

mod batch;
mod host;
mod pipeline;
mod service;
mod stats;
mod trace;

use pipeline::{Counts, STAGES};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// A run still going after this long is stopped with an error: a wedged
/// server must not hold the benchmark past its time limit.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);

/// End-to-end metrics and their units, printed by every untraced run. A
/// campaign's user waits on the whole pass, so per-mutant latency
/// percentiles are printed beside the result, not reported as metrics.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("mutants_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, printed by every traced run. A
/// count that is zero on every run of both workloads (sheds, expiries,
/// engine errors, deadlines) is not among them: the gate fails the run
/// on any of those, and the result's `failed` counts them.
const PER_LAYER: [(&str, &str); 36] = [
    ("minic.pp_us", "us"),
    ("minic.parser_us", "us"),
    ("minic.check_us", "us"),
    ("minic.bytecode_us", "us"),
    ("hwsim.restore_us", "us"),
    ("kernel.drive_us", "us"),
    ("kernel.refine_us", "us"),
    ("bench.unattributed_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("mutagen.generate_ms", "ms"),
    ("core.stubgen_ms", "ms"),
    ("minic.include_cache_ms", "ms"),
    ("kernel.build_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("mutagen.ledger_hits", "count"),
    ("mutagen.ledger_misses", "count"),
    ("mutagen.ledger_lookup_us", "us"),
    ("mutagen.ledger_append_us", "us"),
    ("serve.max_depth", "count"),
    ("serve.proto_us", "us"),
    ("minic.pp_tokens", "count"),
    ("minic.rejects.pp", "count"),
    ("minic.rejects.parser", "count"),
    ("minic.rejects.check", "count"),
    ("minic.fused_ops", "count"),
    ("hwsim.io_accesses", "count"),
    ("kernel.outcome.CompileCheck", "count"),
    ("kernel.outcome.RuntimeCheck", "count"),
    ("kernel.outcome.Crash", "count"),
    ("kernel.outcome.InfiniteLoop", "count"),
    ("kernel.outcome.Halt", "count"),
    ("kernel.outcome.DamagedBoot", "count"),
    ("kernel.outcome.Boot", "count"),
    ("kernel.outcome.DeadCode", "count"),
    ("host.steal_pct", "%"),
    ("host.ref_loop_ms", "ms"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Named metric values with their declared units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record one declared metric.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.0.push((name.to_string(), value, unit));
    }

    fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                // A value that could not be measured is reported as null
                // beside a failed check, never as a number.
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload run produced.
pub struct Run {
    /// Failed correctness checks; empty when every output was right.
    pub errors: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (engine errors, deadlines, sheds, ...).
    pub failed: u64,
    /// The metrics to report.
    pub metrics: Metrics,
}

/// The set-up spans of one campaign pass, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupSpans {
    /// Catalog lookup and the stub header it generates.
    pub stubgen_ms: f64,
    /// Mutant generation and sampling.
    pub generate_ms: f64,
    /// The campaign's machine: `Scenario::build` and its snapshot.
    pub build_ms: f64,
}

impl SetupSpans {
    /// Report the spans as per-layer metrics.
    pub fn put(&self, m: &mut Metrics) {
        m.put("core.stubgen_ms", self.stubgen_ms);
        m.put("mutagen.generate_ms", self.generate_ms);
        m.put("kernel.build_ms", self.build_ms);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-stage self time per replayed mutant, the unattributed remainder
/// against an untraced pass of the same mutants, and the tracing
/// overhead.
pub fn stage_metrics(m: &mut Metrics, tr: &Tracer, mutants: usize, untraced_s: f64, traced_s: f64) {
    let totals = tr.self_times();
    let per_mutant_us =
        |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e3 / mutants as f64;
    let mut staged = 0.0;
    for stage in STAGES {
        let us = per_mutant_us(stage);
        staged += us;
        m.put(&format!("{stage}_us"), us);
    }
    m.put(
        "bench.unattributed_us",
        untraced_s * 1e6 / mutants as f64 - staged,
    );
    m.put(
        "bench.trace_overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
    );
    println!(
        "traced pass {traced_s:.3} s against untraced {untraced_s:.3} s over {mutants} mutants"
    );
}

/// The exact counts, and the outcome tally as `kernel.outcome.<Outcome>`.
pub fn count_metrics(
    m: &mut Metrics,
    c: &Counts,
    tally: &BTreeMap<devil_kernel::scenario::Outcome, u64>,
) {
    m.put("minic.pp_tokens", c.pp_tokens as f64);
    m.put("minic.rejects.pp", c.rejects_pp as f64);
    m.put("minic.rejects.parser", c.rejects_parser as f64);
    m.put("minic.rejects.check", c.rejects_check as f64);
    m.put("minic.fused_ops", c.fused_ops as f64);
    m.put("hwsim.io_accesses", c.io_accesses as f64);
    for (o, n) in tally.iter().filter(|(o, _)| !pipeline::is_failure(**o)) {
        m.put(&format!("kernel.outcome.{o:?}"), *n as f64);
    }
}

/// Scramble a seed (SplitMix64 finaliser), so that small, adjacent seeds
/// start unrelated generator streams.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = devil_rng::XorShift64::new(mix(seed));
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Print per-class latency medians and the classes around the p50 and
/// p99 ranks, so a reader can see that each percentile sits inside one
/// cost mode.
pub fn print_cost_modes(lat: &[(f64, String)]) {
    let mut by_class: std::collections::HashMap<&str, Vec<f64>> = std::collections::HashMap::new();
    for (ms, c) in lat {
        by_class.entry(c).or_default().push(*ms);
    }
    let mut classes: Vec<_> = by_class.into_iter().collect();
    classes.sort_by(|a, b| stats::median(&a.1).total_cmp(&stats::median(&b.1)));
    for (c, v) in &classes {
        println!(
            "  class {c:<28} n={:<5} median {:.3} ms",
            v.len(),
            stats::median(v)
        );
    }
    let mut sorted: Vec<&(f64, String)> = lat.iter().collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    for p in [50.0, 99.0] {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let window = &sorted[rank.saturating_sub(6)..(rank + 5).min(sorted.len())];
        let names: Vec<&str> = window.iter().map(|(_, c)| c.as_str()).collect();
        println!("  p{p} rank {rank}/{}: neighbours {names:?}", sorted.len());
    }
}

/// Write a traced run's spans to `perfbench/out/`.
pub fn write_trace(tr: &Tracer, args: &Args) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-{:#x}-{:#x}.jsonl",
            args.workload, args.sample_seed, args.seed
        ));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("{} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// The command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Order of the work: the sequence mutants are classified or
    /// submitted in.
    pub seed: u64,
    /// Content of the work: the tables' sampling seed, which picks the
    /// mutants.
    pub sample_seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        sample_seed: devil_bench::tables::DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = devil_bench::tables::parse_seed(&value)?,
            "--sample-seed" => args.sample_seed = devil_bench::tables::parse_seed(&value)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| {
                        format!("--seconds: expected a positive number, got `{value}`")
                    })?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "CHECK FAILED: run still going after {} s",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
    let cpu0 = host::cpu_times();
    let ref_start = host::ref_loop_ms();
    let mut run = match args.workload.as_str() {
        "table3-c" => batch::run(&batch::TABLE3_C, &args),
        "table4-cdevil" => batch::run(&batch::TABLE4_CDEVIL, &args),
        other => {
            eprintln!("unknown workload `{other}`; try table3-c or table4-cdevil");
            std::process::exit(2);
        }
    };
    let ref_end = host::ref_loop_ms();
    let steal = host::steal_pct(cpu0, host::cpu_times());
    let ref_ms = (ref_start + ref_end) / 2.0;
    println!(
        "host: {} steal_pct={steal:.2} ref_loop_ms start={ref_start:.3} end={ref_end:.3} workload={} seed={:#x} sample_seed={:#x}",
        host::describe(),
        args.workload,
        args.seed,
        args.sample_seed,
    );
    if args.trace {
        run.metrics.put("host.steal_pct", steal);
        run.metrics.put("host.ref_loop_ms", ref_ms);
    } else {
        run.metrics.put("peak_rss_mb", host::peak_rss_mb());
    }

    let declared = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut names = run.metrics.names();
    names.sort_unstable();
    let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    if names != want {
        run.errors.push(format!(
            "reported metrics {names:?} differ from the declared {want:?}"
        ));
    }
    if let Some((n, v, _)) = run.metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        run.errors.push(format!("metric {n} is {v}"));
    }
    for e in &run.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = run.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        run.metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let body = json
            .split(&format!("\"{list}\": ["))
            .nth(1)
            .expect("metric list present");
        let body = &body[..body.find(']').expect("list closes")];
        let field = |obj: &str, key: &str| {
            let rest = obj
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .expect("field present");
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b, "same seed, same order");
        shuffle(&mut b, 8);
        assert_ne!(a, b, "another seed, another order");
        b.sort_unstable();
        assert_eq!(b, (0..100).collect::<Vec<_>>());
    }
}
