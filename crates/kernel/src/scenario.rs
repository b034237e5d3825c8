//! The scenario engine: run *any* device workload over *any* mutant.
//!
//! The paper evaluates mutated drivers under driver-specific activities —
//! booting from the IDE disk, moving the mouse, pushing network traffic.
//! This module is the layer that makes every such activity a first-class
//! campaign workload:
//!
//! * a [`Scenario`] describes one activity: how to **build** its machine
//!   (devices + host-side setup), how to **drive** the workload through a
//!   compiled driver, and how to **inspect** the quiesced machine for
//!   ground-truth damage afterwards;
//! * a [`ScenarioEngine`] is the execution-engine surface a scenario
//!   drives — implemented by both the bytecode [`Vm`] (the production
//!   path) and the tree-walking [`Interpreter`] (the differential
//!   oracle), so every scenario gets VM-vs-interpreter differential
//!   coverage for free;
//! * a [`ScenarioMachine`] owns one built machine plus its pristine
//!   [`Snapshot`] and evaluates each mutant as *restore → compile →
//!   drive → classify* — the reset-per-mutant lifecycle documented in
//!   `devil_hwsim::snap`. One `ScenarioMachine` per campaign worker is
//!   the intended shape (see `devil_mutagen::Campaign`).
//!
//! Every run classifies into the same paper taxonomy ([`Outcome`], §4.2
//! cases 1–7): a `panic` with a Devil assertion is a run-time check, an
//! unhandled fault a crash, fuel exhaustion an infinite loop, a fatal
//! workload failure a halt, verified wrong results or ground-truth damage
//! a damaged boot, and a spotless run a (latent) boot. The bundled
//! scenarios, the paper's IDE boot first among them, live in
//! [`crate::scenarios`].
//!
//! A run's machine is always the one its scenario built: a
//! [`ScenarioMachine`] builds it once and restores it per mutant,
//! [`run_mutant_in`] builds a fresh one, and a caller of [`run_compiled`]
//! or [`run_interp`] passes the machine [`Scenario::build`] returned.
//! Over any other machine a scenario cannot find the devices its
//! ground-truth inspection reads.
//!
//! # Writing a scenario
//!
//! ```ignore
//! struct Blink { led: Option<DeviceId> }
//! impl Scenario for Blink {
//!     fn name(&self) -> &'static str { "blink" }
//!     fn build(&mut self) -> IoSpace {
//!         let mut io = IoSpace::new();
//!         self.led = Some(io.map(0x80, 1, Box::new(Led::new())).unwrap());
//!         io // snapshot is taken right after build returns
//!     }
//!     fn drive(&self, e: &mut dyn ScenarioEngine) -> Drive {
//!         let mut damage = Vec::new();
//!         let run = (|| {
//!             let v = call(e, "led_on", &[])?; // Fatal::Run on engine errors
//!             if v.as_int() != Some(0) {
//!                 return Err(Fatal::Halt("led: driver failed".into()));
//!             }
//!             Ok(())
//!         })();
//!         Drive::from_result(run, damage)
//!     }
//!     fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>) {
//!         // ground truth straight off the device model
//!     }
//! }
//! ```
//!
//! The snapshot-lifecycle contract a scenario must uphold (all setup in
//! `build`, injections per-run in `drive`, never remap devices) is
//! documented in `devil_hwsim::snap`.

use crate::kapi::MachineHost;
use devil_hwsim::snap::Snapshot;
use devil_hwsim::IoSpace;
use devil_minic::bytecode::LowerCache;
use devil_minic::interp::{Interpreter, RunError};
use devil_minic::pp::IncludeCache;
use devil_minic::value::Value;
use devil_minic::vm::Vm;
use devil_minic::{CompiledProgram, Coverage, Program};
pub use devil_minic::Deadline;
use std::fmt;

/// A classification detail string. Borrowed for the common fixed verdicts
/// ("boot completed, no damage", "mutated line never executed", ...), so
/// classifying the bulk of a campaign's mutants allocates nothing.
pub type Detail = std::borrow::Cow<'static, str>;

/// The paper's outcome classes (§4.2 cases 1–7 plus compile time) —
/// every scenario classifies into this one taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// Rejected by the compiler (Table 3/4 row 1).
    CompileCheck,
    /// Case 1 — a Devil run-time assertion caught the error and reported
    /// the faulty source line.
    RuntimeCheck,
    /// Case 4 — the kernel crashed silently; a hardware reset would be
    /// needed.
    Crash,
    /// Case 5 — the kernel looped forever and never completed the
    /// workload: the run exhausted its fuel, or the bytecode VM proved
    /// that its state repeats, which ends the run exactly as running out
    /// of fuel would (see [`DEFAULT_FUEL`](crate::boot::DEFAULT_FUEL)).
    InfiniteLoop,
    /// Case 6 — the kernel halted with a panic message.
    Halt,
    /// Case 7 — the workload completed but left visible damage (corrupted
    /// filesystem, wrong motion deltas, mangled frames, ...).
    DamagedBoot,
    /// Case 3 — the workload completed with no observable damage: the
    /// error is latent, the *worst* outcome for the developer.
    Boot,
    /// Case 2 — the mutated code never executed; the run says nothing.
    DeadCode,
    /// The campaign engine itself failed on this mutant (a classify panic
    /// caught by worker supervision). Not a statement about the driver:
    /// the harness crashed, was isolated, and the campaign went on.
    EngineError,
    /// The run's wall-clock deadline passed before the workload finished.
    /// Unlike [`Outcome::InfiniteLoop`] (a deterministic fuel-exhaustion
    /// verdict) this says the *harness* gave up waiting in real time.
    Deadline,
}

impl Outcome {
    /// Whether the error was *detected* (at compile or run time) — the
    /// paper's headline metric.
    pub fn is_detected(self) -> bool {
        matches!(self, Outcome::CompileCheck | Outcome::RuntimeCheck)
    }

    /// Stable wire code for this outcome — what the campaign service
    /// protocol puts on the wire. Codes are the index of the outcome in
    /// [`Outcome::table_order`], so they are as stable as the table
    /// layout itself.
    pub fn code(self) -> u8 {
        Outcome::table_order()
            .iter()
            .position(|o| *o == self)
            .expect("table_order is exhaustive") as u8
    }

    /// Decode a wire code produced by [`Outcome::code`]; `None` for
    /// out-of-range codes (a malformed or future-version frame).
    pub fn from_code(code: u8) -> Option<Outcome> {
        Outcome::table_order().get(usize::from(code)).copied()
    }

    /// Whether this outcome is a pure function of the classification
    /// inputs (driver source, scenario, fault plan, spec revision) and so
    /// may be memoized in an outcome ledger. [`Outcome::EngineError`]
    /// (a harness crash) and [`Outcome::Deadline`] (a wall-clock race)
    /// say something about the run, not the mutant — replaying them from
    /// a cache would be wrong, so they are never persisted.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, Outcome::EngineError | Outcome::Deadline)
    }

    /// Stable display order used by the tables. New variants are only ever
    /// *appended* so the wire codes of existing outcomes never move.
    pub fn table_order() -> [Outcome; 10] {
        [
            Outcome::CompileCheck,
            Outcome::RuntimeCheck,
            Outcome::Crash,
            Outcome::InfiniteLoop,
            Outcome::Halt,
            Outcome::DamagedBoot,
            Outcome::Boot,
            Outcome::DeadCode,
            Outcome::EngineError,
            Outcome::Deadline,
        ]
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::CompileCheck => "Compile-time check",
            Outcome::RuntimeCheck => "Run-time check",
            Outcome::Crash => "Crash",
            Outcome::InfiniteLoop => "Infinite loop",
            Outcome::Halt => "Halt",
            Outcome::DamagedBoot => "Damaged boot",
            Outcome::Boot => "Boot",
            Outcome::DeadCode => "Dead code",
            Outcome::EngineError => "Engine error",
            Outcome::Deadline => "Deadline",
        };
        f.write_str(s)
    }
}

/// Everything observed during one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The classified outcome (never `CompileCheck`/`DeadCode` here; those
    /// are assigned by the mutant pipeline).
    pub outcome: Outcome,
    /// Console (`printk`) output.
    pub console: Vec<String>,
    /// One-line explanation (borrowed for the fixed verdicts).
    pub detail: Detail,
    /// Packed source lines executed (see `devil_minic::token::pack_line`),
    /// as a per-file bitmap — moved out of the engine, never cloned.
    pub coverage: Coverage,
}

/// Map an engine error to an outcome.
pub fn classify_run_error(e: &RunError) -> (Outcome, Detail) {
    match e {
        RunError::Panic { message, file, line } => {
            if message.starts_with("Devil assertion failed") {
                (Outcome::RuntimeCheck, format!("{message} ({file}:{line})").into())
            } else {
                (Outcome::Halt, format!("kernel panic: {message} ({file}:{line})").into())
            }
        }
        RunError::Fault { kind, file, line } => {
            (Outcome::Crash, format!("silent crash: {kind} at {file}:{line}").into())
        }
        RunError::OutOfFuel => {
            (Outcome::InfiniteLoop, Detail::Borrowed("boot never completed"))
        }
        RunError::DeadlineExpired => {
            (Outcome::Deadline, Detail::Borrowed("wall-clock deadline exceeded"))
        }
        RunError::NoSuchFunction(n) => {
            (Outcome::Halt, format!("kernel panic: missing driver entry `{n}`").into())
        }
    }
}

/// The execution-engine surface a scenario drives: call driver entry
/// points, exchange data through driver globals, and reach the simulated
/// machine to inject events between calls.
///
/// Implemented by both the bytecode [`Vm`] (the production path) and the
/// tree-walking [`Interpreter`] (the differential oracle); both are
/// observationally identical by construction, pinned over every scenario's
/// mutant sets by `tests/scenario_differential.rs` and
/// `tests/vm_differential.rs`.
pub trait ScenarioEngine {
    /// Call a driver entry point.
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, RunError>;
    /// Snapshot a driver global's elements (`None` for unknown names).
    fn global_values(&mut self, name: &str) -> Option<Vec<Value>>;
    /// Read one element of a driver global without snapshotting the whole
    /// object — the allocation-free path for scalar globals.
    fn global_value(&mut self, name: &str, idx: usize) -> Option<Value>;
    /// Overwrite one element of a driver global array.
    fn set_global_element(&mut self, name: &str, idx: usize, value: Value) -> bool;
    /// The simulated machine — for mid-drive event injection (mouse
    /// motion, network frames) and device-state checks.
    fn io(&mut self) -> &mut IoSpace;
}

impl ScenarioEngine for Vm<'_, MachineHost<'_>> {
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, RunError> {
        Vm::call(self, name, args)
    }
    fn global_values(&mut self, name: &str) -> Option<Vec<Value>> {
        Vm::global_values(self, name)
    }
    fn global_value(&mut self, name: &str, idx: usize) -> Option<Value> {
        Vm::global_value(self, name, idx)
    }
    fn set_global_element(&mut self, name: &str, idx: usize, value: Value) -> bool {
        Vm::set_global_element(self, name, idx, value)
    }
    fn io(&mut self) -> &mut IoSpace {
        self.host_mut().io()
    }
}

impl ScenarioEngine for Interpreter<'_, MachineHost<'_>> {
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, RunError> {
        Interpreter::call(self, name, args)
    }
    fn global_values(&mut self, name: &str) -> Option<Vec<Value>> {
        Interpreter::global_values(self, name)
    }
    fn global_value(&mut self, name: &str, idx: usize) -> Option<Value> {
        Interpreter::global_value(self, name, idx)
    }
    fn set_global_element(&mut self, name: &str, idx: usize, value: Value) -> bool {
        Interpreter::set_global_element(self, name, idx, value)
    }
    fn io(&mut self) -> &mut IoSpace {
        self.host_mut().io()
    }
}

/// A workload-terminating failure observed while driving a scenario.
#[derive(Debug)]
pub enum Fatal {
    /// The engine stopped the driver: panic, fault, fuel exhaustion, or a
    /// missing entry point. Classified by [`classify_run_error`].
    Run(RunError),
    /// The kernel halted with a panic message (the paper's case 6).
    Halt(Detail),
    /// The workload could not even assess the driver (e.g. a transfer
    /// buffer is missing): visible damage, nothing more to learn.
    Damage(Detail),
}

impl From<RunError> for Fatal {
    fn from(e: RunError) -> Self {
        Fatal::Run(e)
    }
}

/// What [`Scenario::drive`] observed: an optional fatal failure plus the
/// accumulated non-fatal damage findings.
#[derive(Debug, Default)]
pub struct Drive {
    /// The failure that terminated the workload, if any.
    pub fatal: Option<Fatal>,
    /// Non-fatal wrong results (checksum mismatches, corrupted frames,
    /// wrong motion deltas, ...) — each one line, joined for the report.
    pub damage: Vec<String>,
}

impl Drive {
    /// Combine a `?`-style drive body with the damage list it filled.
    pub fn from_result(result: Result<(), Fatal>, damage: Vec<String>) -> Self {
        Drive { fatal: result.err(), damage }
    }
}

/// Call a driver entry point, mapping engine errors to [`Fatal::Run`] so
/// drive bodies can use `?`.
pub fn call(
    engine: &mut dyn ScenarioEngine,
    name: &str,
    args: &[Value],
) -> Result<Value, Fatal> {
    engine.call(name, args).map_err(Fatal::Run)
}

/// One driver-specific activity the campaign engine can run mutants under.
///
/// Implementations must uphold the snapshot-lifecycle contract documented
/// in `devil_hwsim::snap`: all machine setup in [`Scenario::build`], all
/// per-run event injection in [`Scenario::drive`], no device remapping
/// ever.
pub trait Scenario {
    /// Stable kebab-case name — used by the CLI, golden files and benches.
    fn name(&self) -> &'static str;

    /// Build this scenario's machine: map the devices and run every piece
    /// of host-side setup. Called once per [`ScenarioMachine`]; the
    /// pristine snapshot is captured right after it returns. May stash
    /// device ids on `self` for [`Scenario::drive`]/[`Scenario::inspect`].
    fn build(&mut self) -> IoSpace;

    /// Drive the workload through the engine: call entry points, inject
    /// events, verify what the driver reports. Engine access is dynamic so
    /// one implementation serves both the VM and the oracle interpreter.
    fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive;

    /// Ground truth over the quiesced machine (pending ticks already
    /// delivered): inspect device models directly and push any damage a
    /// successful-looking drive would hide — the "take the disk out and
    /// fsck it" step.
    fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>);

    /// Detail string for a run with no fatal and no damage.
    fn clean_detail(&self) -> Detail {
        Detail::Borrowed("workload completed, no damage")
    }

    /// Detail string for a run that exhausted its fuel (the paper's
    /// infinite-loop outcome).
    fn hung_detail(&self) -> Detail {
        Detail::Borrowed("workload never completed")
    }
}

impl<S: Scenario + ?Sized> Scenario for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn build(&mut self) -> IoSpace {
        (**self).build()
    }
    fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive {
        (**self).drive(engine)
    }
    fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>) {
        (**self).inspect(io, damage)
    }
    fn clean_detail(&self) -> Detail {
        (**self).clean_detail()
    }
    fn hung_detail(&self) -> Detail {
        (**self).hung_detail()
    }
}

/// Any scenario, run on deterministically flaky hardware.
///
/// Wraps an inner [`Scenario`] and installs a
/// [`FaultPlan`](devil_hwsim::FaultPlan) on the machine the inner
/// scenario builds, producing the `<name>+faults` variant of every
/// workload without copying any scenario code. A plan with **no rules**
/// (the bundled `none` plan) skips the installation entirely: an empty
/// interposer is observationally identical to no interposer but would
/// still forfeit the block-transfer fast paths, so `--fault-plan=none`
/// runs at full fault-free speed. Everything else —
/// driving, ground-truth inspection, classification — delegates to the
/// inner scenario: fault injection perturbs only what the driver sees on
/// the wire, never the device models, so `inspect` still reads true
/// hardware state.
///
/// Because the interposer is installed inside `build`, the pristine
/// snapshot a [`ScenarioMachine`] captures includes the fault cursor at
/// its seed position: every mutant (and every fault-campaign run) replays
/// the same fault sequence from the same point, and rebuild-vs-reset
/// equivalence holds exactly as for fault-free scenarios.
#[derive(Debug)]
pub struct FaultScenario<S> {
    inner: S,
    plan: devil_hwsim::FaultPlan,
    name: &'static str,
}

impl<S: Scenario> FaultScenario<S> {
    /// Wrap `inner` so its machine runs under `plan`.
    pub fn new(inner: S, plan: devil_hwsim::FaultPlan) -> Self {
        let name = intern_fault_name(inner.name());
        FaultScenario { inner, plan, name }
    }

    /// The fault plan this variant installs.
    pub fn plan(&self) -> &devil_hwsim::FaultPlan {
        &self.plan
    }
}

/// Intern `<base>+faults` as a `&'static str`.
///
/// [`Scenario::name`] returns `&'static str` (the campaign machinery
/// keys goldens and benches on it), so the derived variant name must be
/// leaked — bounded by the number of *distinct* scenario names, which is
/// the size of the scenario catalog, not the number of wrapper
/// instances.
fn intern_fault_name(base: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut names = NAMES.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    let full = format!("{base}+faults");
    if let Some(&existing) = names.iter().find(|&&n| n == full) {
        return existing;
    }
    let leaked: &'static str = Box::leak(full.into_boxed_str());
    names.push(leaked);
    leaked
}

impl<S: Scenario> Scenario for FaultScenario<S> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn build(&mut self) -> IoSpace {
        let mut io = self.inner.build();
        // A plan with no rules injects nothing, but an *installed*
        // interposer still declines the block-transfer fast paths and
        // costs ~2× on block-heavy workloads. The noop-plan-identity
        // suite proves the two paths bit-identical, so route `none`
        // (and any other empty plan) straight to the fault-free path.
        if !self.plan.rules().is_empty() {
            io.install_faults(self.plan.clone());
        }
        io
    }
    fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive {
        self.inner.drive(engine)
    }
    fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>) {
        self.inner.inspect(io, damage)
    }
    fn clean_detail(&self) -> Detail {
        self.inner.clean_detail()
    }
    fn hung_detail(&self) -> Detail {
        self.inner.hung_detail()
    }
}

/// Classify one finished drive against the paper taxonomy.
fn classify<S: Scenario + ?Sized>(scenario: &S, drive: Drive) -> (Outcome, Detail) {
    match drive.fatal {
        // Fuel exhaustion gets the scenario's own wording ("boot never
        // completed" is only right for the boot).
        Some(Fatal::Run(RunError::OutOfFuel)) => {
            (Outcome::InfiniteLoop, scenario.hung_detail())
        }
        Some(Fatal::Run(e)) => classify_run_error(&e),
        Some(Fatal::Halt(msg)) => (Outcome::Halt, msg),
        Some(Fatal::Damage(msg)) => (Outcome::DamagedBoot, msg),
        None if drive.damage.is_empty() => (Outcome::Boot, scenario.clean_detail()),
        None => (Outcome::DamagedBoot, drive.damage.join("; ").into()),
    }
}

/// Shared tail of both engine flavours: quiesce, ground-truth inspect,
/// classify.
fn finish<S: Scenario + ?Sized>(
    scenario: &S,
    io: &mut IoSpace,
    mut drive: Drive,
    console: Vec<String>,
    coverage: devil_minic::Coverage,
) -> ScenarioReport {
    // Deliver pending lazy ticks first so timer-driven device state is
    // current when inspected outside an access sequence.
    io.sync();
    scenario.inspect(io, &mut drive.damage);
    let (outcome, detail) = classify(scenario, drive);
    ScenarioReport { outcome, console, detail, coverage }
}

/// Run one compiled (bytecode) driver under a scenario — the campaign hot
/// path. `io` must be the machine `scenario` built (typically just
/// restored).
pub fn run_compiled<S: Scenario + ?Sized>(
    scenario: &S,
    compiled: &CompiledProgram,
    io: &mut IoSpace,
    fuel: u64,
) -> ScenarioReport {
    run_compiled_bounded(scenario, compiled, io, fuel, None)
}

/// [`run_compiled`] with an optional wall-clock [`Deadline`]: the VM
/// probes it cooperatively (never touching fuel or coverage accounting,
/// so in-time runs are bit-identical to unbounded runs) and an overrun
/// classifies as [`Outcome::Deadline`].
pub fn run_compiled_bounded<S: Scenario + ?Sized>(
    scenario: &S,
    compiled: &CompiledProgram,
    io: &mut IoSpace,
    fuel: u64,
    deadline: Option<Deadline>,
) -> ScenarioReport {
    let mut host = MachineHost::new(io);
    let mut vm = Vm::new(compiled, &mut host, fuel).with_deadline(deadline);
    let drive = scenario.drive(&mut vm);
    let coverage = vm.take_coverage();
    drop(vm);
    let console = std::mem::take(&mut host.console);
    drop(host);
    finish(scenario, io, drive, console, coverage)
}

/// Run one driver under a scenario through the tree-walking interpreter —
/// the differential oracle the VM path is validated against. Not used by
/// campaigns. `io` must be the machine `scenario` built.
pub fn run_interp<S: Scenario + ?Sized>(
    scenario: &S,
    program: &Program,
    io: &mut IoSpace,
    fuel: u64,
) -> ScenarioReport {
    let mut host = MachineHost::new(io);
    let mut interp = Interpreter::new(program, &mut host, fuel);
    let drive = scenario.drive(&mut interp);
    let coverage = interp.take_coverage();
    drop(interp);
    let console = std::mem::take(&mut host.console);
    drop(host);
    finish(scenario, io, drive, console, coverage)
}

/// Refine a `Boot` outcome into `DeadCode` when the mutated line was never
/// executed. `dead_site` is the 1-based line of the mutation in
/// `file_name`.
pub fn refine_dead_code(
    program: &Program,
    report: ScenarioReport,
    file_name: &str,
    dead_site: Option<u32>,
) -> (Outcome, Detail) {
    if report.outcome == Outcome::Boot {
        if let Some(line) = dead_site {
            if let Some(fid) = program.unit.file_id(file_name) {
                let packed = devil_minic::token::pack_line(fid, line);
                if !report.coverage.contains(packed) {
                    return (Outcome::DeadCode, Detail::Borrowed("mutated line never executed"));
                }
            }
        }
    }
    (report.outcome, report.detail)
}

/// Full mutant pipeline, rebuild-per-machine flavour: compile the mutant,
/// build a fresh machine for `scenario`, drive, classify — including the
/// dead-code refinement.
///
/// Campaigns evaluating many mutants should use [`ScenarioMachine`]
/// instead, which builds the machine once and snapshot-restores it per
/// mutant; this function is the one-shot path and the reference the
/// differential scenario tests compare the reset engine against.
pub fn run_mutant_in<S: Scenario>(
    mut scenario: S,
    file_name: &str,
    source: &str,
    includes: &[(&str, &str)],
    dead_site: Option<u32>,
    fuel: u64,
) -> (Outcome, Detail) {
    let program = match devil_minic::compile_with_includes(file_name, source, includes) {
        Ok(p) => p,
        Err(e) => return (Outcome::CompileCheck, e.to_string().into()),
    };
    let mut io = scenario.build();
    let report = run_compiled(&scenario, &program.to_bytecode(), &mut io, fuel);
    refine_dead_code(&program, report, file_name, dead_site)
}

/// A reusable machine for mutation campaigns over any [`Scenario`].
///
/// Builds the scenario's machine **once** ([`Scenario::build`]), captures
/// its pristine state as a [`Snapshot`], and then evaluates each mutant as
/// *compile → lower → restore → drive → classify*:
///
/// * compile resumes from the front-end checkpoint of the driver's
///   `#include` prefix (the machine's own include cache for
///   [`ScenarioMachine::run`], a shared one for
///   [`ScenarioMachine::run_cached`]);
/// * lowering goes through the machine's [`LowerCache`], so the first
///   mutant of a driver lowers every function and each later one lowers
///   only the functions it changed and those that inlined them — what a
///   campaign pays per mutant is the changed function, not the 200-odd
///   stub-header functions;
/// * the per-mutant reset is a (journal-assisted) memcpy instead of a
///   machine reconstruction.
///
/// Every step gives exactly what the one-shot [`run_mutant_in`] gives.
/// The lowering cache holds `Rc`s, so a machine stays on the thread that
/// built it: use one `ScenarioMachine` per worker thread, e.g. as the
/// workspace of a `devil_mutagen::Campaign`, which builds each worker's
/// workspace on that worker:
///
/// ```ignore
/// let outcomes = Campaign::new(
///     || ScenarioMachine::with_scenario(build_scenario("mouse-stream").unwrap(), DEFAULT_FUEL),
///     |machine, mutant| machine.run(file, &mutant.source, &includes, Some(mutant.line)).0,
/// )
/// .run(&mutants);
/// ```
#[derive(Debug)]
pub struct ScenarioMachine<S: Scenario> {
    scenario: S,
    io: IoSpace,
    pristine: Snapshot,
    fuel: u64,
    /// The include cache, built lazily on the first mutant that compiles
    /// against a given include set and reused while the set is unchanged
    /// — which in a mutation campaign is every mutant, since only the
    /// driver file is spliced. The first mutant compiled through it
    /// records the front-end checkpoint of the driver's prefix up to its
    /// `#include`, which later mutants resume from.
    include_cache: Option<IncludeCache>,
    /// Every lowering of `run` and `run_cached` goes through it.
    lowering: LowerCache,
}

impl<S: Scenario> ScenarioMachine<S> {
    /// Build the scenario's machine and capture its pristine snapshot.
    pub fn with_scenario(mut scenario: S, fuel: u64) -> Self {
        let io = scenario.build();
        let pristine = io.snapshot();
        ScenarioMachine {
            scenario,
            io,
            pristine,
            fuel,
            include_cache: None,
            lowering: LowerCache::new(),
        }
    }

    /// Evaluate one mutant: compile it (resuming from the include cache's
    /// front-end checkpoint), lower it through the machine's lowering
    /// cache, rewind the machine to its pristine snapshot, drive the
    /// scenario through the bytecode VM, and classify — including the
    /// dead-code refinement. Produces exactly the same classification as
    /// the rebuild-per-mutant path ([`run_mutant_in`]), without rebuilding
    /// anything.
    pub fn run(
        &mut self,
        file_name: &str,
        source: &str,
        includes: &[(&str, &str)],
        dead_site: Option<u32>,
    ) -> (Outcome, Detail) {
        let program = match self.compile_mutant(file_name, source, includes) {
            Ok(p) => p,
            Err(e) => return (Outcome::CompileCheck, e.to_string().into()),
        };
        self.drive_and_classify(&program, file_name, dead_site, None)
    }

    /// Like [`ScenarioMachine::run`], compiling against an externally
    /// shared [`IncludeCache`], and bounding the drive by an optional
    /// wall-clock [`Deadline`] (an overrun classifies as
    /// [`Outcome::Deadline`]). The cache is `Sync`: build it once per
    /// campaign and let every worker's machine borrow it, so the driver's
    /// prefix up to its `#include` is compiled once per *campaign*
    /// instead of once per worker.
    pub fn run_cached(
        &mut self,
        file_name: &str,
        source: &str,
        cache: &IncludeCache,
        dead_site: Option<u32>,
        deadline: Option<Deadline>,
    ) -> (Outcome, Detail) {
        let program = match devil_minic::compile_with_cache(file_name, source, cache) {
            Ok(p) => p,
            Err(e) => return (Outcome::CompileCheck, e.to_string().into()),
        };
        self.drive_and_classify(&program, file_name, dead_site, deadline)
    }

    /// Rewind to pristine and run an already-lowered program, returning
    /// the full report (no dead-code refinement) — the bench-facing
    /// per-mutant unit.
    pub fn run_compiled(&mut self, compiled: &CompiledProgram) -> ScenarioReport {
        self.run_compiled_bounded(compiled, None)
    }

    /// [`ScenarioMachine::run_compiled`] with an optional wall-clock
    /// deadline.
    fn run_compiled_bounded(
        &mut self,
        compiled: &CompiledProgram,
        deadline: Option<Deadline>,
    ) -> ScenarioReport {
        self.io
            .restore(&self.pristine)
            .expect("pristine snapshot matches its own machine");
        run_compiled_bounded(&self.scenario, compiled, &mut self.io, self.fuel, deadline)
    }

    fn drive_and_classify(
        &mut self,
        program: &Program,
        file_name: &str,
        dead_site: Option<u32>,
        deadline: Option<Deadline>,
    ) -> (Outcome, Detail) {
        let compiled = self.lowering.lower(program);
        let report = self.run_compiled_bounded(&compiled, deadline);
        refine_dead_code(program, report, file_name, dead_site)
    }

    /// Compile one mutant, compiling only what follows the driver's
    /// `#include` when the include set is unchanged since the previous
    /// mutant (see `devil_minic::compile_with_cache`).
    fn compile_mutant(
        &mut self,
        file_name: &str,
        source: &str,
        includes: &[(&str, &str)],
    ) -> Result<Program, devil_minic::CError> {
        if includes.is_empty() {
            return devil_minic::compile(file_name, source);
        }
        let reusable = self
            .include_cache
            .as_ref()
            .is_some_and(|c| c.matches(includes));
        if !reusable {
            self.include_cache = Some(IncludeCache::new(includes));
        }
        let cache = self.include_cache.as_ref().expect("cache just ensured");
        devil_minic::compile_with_cache(file_name, source, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::ide_boot::tests::{rebuild_and_run, MINI_DRIVER};

    #[test]
    fn outcome_codes_round_trip_in_table_order() {
        for (i, outcome) in Outcome::table_order().into_iter().enumerate() {
            assert_eq!(outcome.code(), i as u8);
            assert_eq!(Outcome::from_code(i as u8), Some(outcome));
        }
        assert_eq!(Outcome::from_code(10), None);
        assert_eq!(Outcome::from_code(u8::MAX), None);
        // The supervision/deadline variants were appended, so the codes
        // PR 7 put on the wire are unchanged.
        assert_eq!(Outcome::DeadCode.code(), 7);
        assert_eq!(Outcome::EngineError.code(), 8);
        assert_eq!(Outcome::Deadline.code(), 9);
    }

    #[test]
    fn empty_fault_plan_skips_the_interposer() {
        struct Empty;
        impl Scenario for Empty {
            fn name(&self) -> &'static str {
                "empty"
            }
            fn build(&mut self) -> IoSpace {
                IoSpace::new()
            }
            fn drive(&self, _engine: &mut dyn ScenarioEngine) -> Drive {
                Drive::default()
            }
            fn inspect(&self, _io: &mut IoSpace, _damage: &mut Vec<String>) {}
        }

        let mut none =
            FaultScenario::new(Empty, devil_hwsim::FaultPlan::none(0xBEEF));
        assert!(none.build().faults().is_none(), "empty plan must not install");

        let mut mixed = FaultScenario::new(
            Empty,
            devil_hwsim::FaultPlan::named("mixed", 0xBEEF).unwrap(),
        );
        assert!(mixed.build().faults().is_some(), "real plan must install");
    }

    #[test]
    fn outcome_display_and_order() {
        assert_eq!(Outcome::table_order().len(), 10);
        assert_eq!(Outcome::RuntimeCheck.to_string(), "Run-time check");
        assert_eq!(Outcome::EngineError.to_string(), "Engine error");
        assert_eq!(Outcome::Deadline.to_string(), "Deadline");
        assert!(Outcome::CompileCheck.is_detected());
        assert!(Outcome::RuntimeCheck.is_detected());
        assert!(!Outcome::Boot.is_detected());
        assert!(!Outcome::EngineError.is_detected());
        assert!(!Outcome::Deadline.is_detected());
    }

    #[test]
    fn outcome_table_order_is_complete_and_unique() {
        // Completeness gate: adding an `Outcome` variant without teaching
        // `table_order` about it fails this match (and therefore the
        // build), not just the table rendering.
        fn index_of(o: Outcome) -> usize {
            match o {
                Outcome::CompileCheck => 0,
                Outcome::RuntimeCheck => 1,
                Outcome::Crash => 2,
                Outcome::InfiniteLoop => 3,
                Outcome::Halt => 4,
                Outcome::DamagedBoot => 5,
                Outcome::Boot => 6,
                Outcome::DeadCode => 7,
                Outcome::EngineError => 8,
                Outcome::Deadline => 9,
            }
        }
        let mut seen = [0usize; 10];
        for o in Outcome::table_order() {
            seen[index_of(o)] += 1;
        }
        assert_eq!(seen, [1; 10], "every variant exactly once in table_order");
    }

    #[test]
    fn devil_assertion_panic_classifies_as_runtime_check() {
        let e = RunError::Panic {
            message: "Devil assertion failed in file drv.c line 12".into(),
            file: "drv.c".into(),
            line: 12,
        };
        assert_eq!(classify_run_error(&e).0, Outcome::RuntimeCheck);
        let e = RunError::Panic { message: "hd: controller stuck".into(), file: "d".into(), line: 1 };
        assert_eq!(classify_run_error(&e).0, Outcome::Halt);
    }

    #[test]
    fn fixed_verdicts_borrow_their_detail_strings() {
        // The common classifications must not allocate a detail per
        // mutant: a clean boot, a dead-code refinement and a fuel
        // exhaustion all return borrowed strings.
        let (_, detail) = rebuild_and_run(MINI_DRIVER, None);
        assert!(matches!(detail, Detail::Borrowed(_)), "clean boot detail is borrowed");
        let (o, detail) = classify_run_error(&RunError::OutOfFuel);
        assert_eq!(o, Outcome::InfiniteLoop);
        assert!(matches!(detail, Detail::Borrowed(_)), "fuel detail is borrowed");
    }
}
