//! The per-mutant pipeline, replayed stage by stage through the public
//! calls of each layer, in the order `ScenarioMachine::run_cached` makes
//! them: preprocess, parse, check, lower, restore, drive, refine.
//!
//! Each call is wrapped in a span, and the exact counts that show a
//! faster stage did the same work are taken at the same boundaries.

use crate::trace::Tracer;
use devil_hwsim::snap::Snapshot;
use devil_hwsim::IoSpace;
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{self, Outcome, Scenario};
use devil_minic::pp::IncludeCache;
use devil_minic::{check, parser, pp, CPhase, Program};
use std::collections::BTreeMap;

/// A boxed catalog scenario, as the tables and the server hold them.
pub type BoxedScenario = Box<dyn Scenario + Send>;

/// A machine the benchmark builds itself: `Scenario::build` followed by
/// `IoSpace::snapshot`, restored before every mutant.
pub struct Machine {
    scenario: BoxedScenario,
    io: IoSpace,
    pristine: Snapshot,
}

impl Machine {
    /// Build the scenario's machine and take its pristine snapshot.
    pub fn build(mut scenario: BoxedScenario) -> Machine {
        let io = scenario.build();
        let pristine = io.snapshot();
        Machine {
            scenario,
            io,
            pristine,
        }
    }
}

/// Exact counts taken at the stage boundaries. They repeat exactly for
/// one seed, so two versions of the program can be compared on them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Tokens out of the preprocessor, over every mutant it accepted.
    pub pp_tokens: u64,
    /// Mutants rejected while preprocessing or lexing.
    pub rejects_pp: u64,
    /// Mutants rejected by the parser.
    pub rejects_parser: u64,
    /// Mutants rejected by the type checker.
    pub rejects_check: u64,
    /// Superinstructions in the lowered programs.
    pub fused_ops: u64,
    /// Port reads and writes the driven mutants made.
    pub io_accesses: u64,
}

/// Span names of the stages, in pipeline order.
pub const STAGES: [&str; 7] = [
    "minic.pp",
    "minic.parser",
    "minic.check",
    "minic.bytecode",
    "hwsim.restore",
    "kernel.drive",
    "kernel.refine",
];

/// Classify one mutant through the public stage calls, one span per
/// call under a `bench.mutant` span with id `id`.
#[allow(clippy::too_many_arguments)]
pub fn classify_traced(
    tr: &mut Tracer,
    id: u64,
    machine: &mut Machine,
    cache: &IncludeCache,
    file: &str,
    source: &str,
    dead_line: u32,
    counts: &mut Counts,
) -> Outcome {
    let start = tr.now();
    let root = tr.record("bench.mutant", id, None, start, start);
    let outcome = stages(
        tr, id, root, machine, cache, file, source, dead_line, counts,
    );
    let end = tr.now();
    tr.close(root, end);
    outcome
}

#[allow(clippy::too_many_arguments)]
fn stages(
    tr: &mut Tracer,
    id: u64,
    root: usize,
    machine: &mut Machine,
    cache: &IncludeCache,
    file: &str,
    source: &str,
    dead_line: u32,
    counts: &mut Counts,
) -> Outcome {
    let p = Some(root);
    let rejected = |counts: &mut Counts, phase: CPhase| {
        match phase {
            CPhase::Preprocess | CPhase::Lex => counts.rejects_pp += 1,
            CPhase::Parse => counts.rejects_parser += 1,
            CPhase::Check => counts.rejects_check += 1,
        }
        Outcome::CompileCheck
    };
    let tokens = match tr.span("minic.pp", id, p, || {
        pp::preprocess_cached(file, source, cache)
    }) {
        Ok(t) => t,
        Err(e) => return rejected(counts, e.phase),
    };
    counts.pp_tokens += tokens.0.len() as u64;
    let unit = match tr.span("minic.parser", id, p, || parser::parse(tokens)) {
        Ok(u) => u,
        Err(e) => return rejected(counts, e.phase),
    };
    let structs = match tr.span("minic.check", id, p, || check::check(&unit)) {
        Ok(s) => s,
        Err(e) => return rejected(counts, e.phase),
    };
    let program = Program { unit, structs };
    let compiled = tr.span("minic.bytecode", id, p, || program.to_bytecode());
    counts.fused_ops += compiled.fused_op_count() as u64;
    let Machine {
        scenario,
        io,
        pristine,
    } = machine;
    tr.span("hwsim.restore", id, p, || {
        io.restore(pristine)
            .expect("pristine snapshot matches its own machine")
    });
    let before = io.read_count() + io.write_count();
    let report = tr.span("kernel.drive", id, p, || {
        scenario::run_compiled_bounded(&**scenario, &compiled, io, DEFAULT_FUEL, None)
    });
    counts.io_accesses += io.read_count() + io.write_count() - before;
    let dead = (dead_line != 0).then_some(dead_line);
    tr.span("kernel.refine", id, p, || {
        scenario::refine_dead_code(&program, report, file, dead)
    })
    .0
}

/// Outcomes tallied in table order, every outcome present.
pub fn tally(outcomes: impl IntoIterator<Item = Outcome>) -> BTreeMap<Outcome, u64> {
    let mut t: BTreeMap<Outcome, u64> =
        Outcome::table_order().into_iter().map(|o| (o, 0)).collect();
    for o in outcomes {
        *t.entry(o).or_default() += 1;
    }
    t
}

/// Outcomes that say the harness, not the driver, failed.
pub fn is_failure(o: Outcome) -> bool {
    matches!(o, Outcome::EngineError | Outcome::Deadline)
}
