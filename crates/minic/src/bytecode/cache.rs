//! The per-machine lowering cache (see [`LowerCache`]).

use super::{BFunc, BGlobal, CompiledProgram, Lowering, Names};
use crate::ast::Item;
use crate::types::StructTable;
use crate::Program;
use std::rc::Rc;
use std::sync::Arc;

/// Driver files a cache keeps entries for; the least recently used is
/// dropped first.
const MAX_DRIVERS: usize = 4;

/// Program shapes kept per driver file, and definitions and lowerings
/// kept per item.
const WAYS: usize = 2;

/// Lowers programs to exactly what [`Program::to_bytecode`] returns, and
/// lowers each function and global again only when its inputs changed.
///
/// Every mutant in a campaign is the clean driver with one token spliced
/// in, so almost every item of a mutant lowers exactly as the clean
/// driver's does. Lowering one item reads three things:
///
/// * the item's own definition;
/// * the definitions of the functions its lowering resolved as callees:
///   the inliner reads a callee's arity and statement count even when it
///   declines to inline, and a callee's whole body (and its callees) when
///   it inlines;
/// * the program's shape: its function and global name lists, its struct
///   table and its file list, from which every callee, global and field
///   index the ops carry is taken.
///
/// Each lowered item owns its tables, so a lowering whose three inputs
/// are unchanged equals what lowering the item again would give, and the
/// cache hands it out again as the same `Rc`.
///
/// Entries are kept per driver file (the unit's main file) and, within a
/// driver, per program shape; a machine serving two drivers of one
/// scenario keeps both. Within an entry each function and global has a
/// slot holding the versions of its definition seen lately, each under an
/// id, and its lowerings, each recording the ids of the definitions it
/// read. A lowering is reused when its own id and every id it recorded
/// are the current program's. A resumed compile shares its header items
/// with every other compile resumed from the same checkpoint (one
/// `Arc<[Item]>`), so a header item is recognised by that allocation and
/// its position, without walking its tree; only the driver's own items
/// are compared by value.
///
/// Memory is bounded whatever the input: four driver files, two shapes
/// per driver, and per item two definitions and two lowerings. A full
/// bound replaces the value reused least recently, and one never reused
/// before any other. A mutant's version of the item it changed is never
/// reused, while the clean version of an item is reused by every mutant
/// that leaves it alone, so once that has happened the clean version
/// stays, whatever order the mutants come in.
///
/// Lowered programs hold `Rc` values, so a cache lives with one thread's
/// machine: each `ScenarioMachine` owns one.
///
/// ```
/// use devil_minic::{bytecode::LowerCache, compile};
///
/// let clean = compile("d.c", "int a(void) { return 1; } int b(void) { return 2; }").unwrap();
/// let mutant = compile("d.c", "int a(void) { return 1; } int b(void) { return 3; }").unwrap();
/// let mut cache = LowerCache::new();
/// cache.lower(&clean);
/// // Lowers `b` again and reuses `a`.
/// assert_eq!(cache.lower(&mutant), mutant.to_bytecode());
/// ```
#[derive(Debug, Default)]
pub struct LowerCache {
    /// One per driver file, the most recently used last.
    drivers: Vec<Driver>,
}

/// The entries of one driver file.
#[derive(Debug)]
struct Driver {
    file: String,
    shapes: Ways<Entry>,
}

/// What the cache keeps for one program shape of one driver.
#[derive(Debug)]
struct Entry {
    shape: Shape,
    names: Names,
    funcs: Vec<Slot<BFunc>>,
    globals: Vec<Slot<BGlobal>>,
    /// The id the next definition the entry has not seen gets.
    next_id: u64,
}

/// The parts of a program that every item's lowering reads.
#[derive(Debug)]
struct Shape {
    files: Vec<String>,
    funcs: Vec<String>,
    globals: Vec<String>,
    structs: StructTable,
}

impl Shape {
    fn of(program: &Program) -> Shape {
        Shape {
            files: program.unit.files.clone(),
            funcs: program.unit.functions().map(|f| f.name.clone()).collect(),
            globals: program.unit.globals().map(|g| g.name.clone()).collect(),
            structs: program.structs.clone(),
        }
    }

    fn matches(&self, program: &Program) -> bool {
        self.files == program.unit.files
            && program.unit.functions().map(|f| &f.name).eq(&self.funcs)
            && program.unit.globals().map(|g| &g.name).eq(&self.globals)
            && self.structs == program.structs
    }
}

/// One function's or global's definitions and lowerings.
#[derive(Debug)]
struct Slot<L> {
    defs: Ways<Def>,
    lowerings: Ways<Lowered<L>>,
}

/// One definition of an item, under the id lowerings record it by.
#[derive(Debug)]
struct Def {
    id: u64,
    item: DefRef,
}

/// Where a kept definition lives.
#[derive(Debug)]
enum DefRef {
    /// Item `.1` of a resumed compile's shared prefix.
    Shared(Arc<[Item]>, usize),
    /// A copy of an item of the unit's own.
    Own(Item),
}

impl DefRef {
    /// Keep `item`, item `at` of a unit whose shared prefix is `prefix`.
    fn of(item: &Item, at: usize, prefix: &Arc<[Item]>) -> DefRef {
        if at < prefix.len() {
            DefRef::Shared(prefix.clone(), at)
        } else {
            DefRef::Own(item.clone())
        }
    }

    /// Whether this is the definition `item`, item `at` of a unit whose
    /// shared prefix is `prefix`. A prefix shared with the unit is
    /// compared by allocation, anything else by value.
    fn is(&self, item: &Item, at: usize, prefix: &Arc<[Item]>) -> bool {
        match self {
            DefRef::Shared(items, i) if Arc::ptr_eq(items, prefix) => *i == at,
            DefRef::Shared(items, i) => items[*i] == *item,
            DefRef::Own(own) => own == item,
        }
    }
}

/// One lowering of an item: valid while the item's definition has id
/// `own` and each function it read, by index, has the id recorded.
#[derive(Debug)]
struct Lowered<L> {
    own: u64,
    reads: Box<[(u16, u64)]>,
    lowered: Rc<L>,
}

impl<L> Slot<L> {
    fn new() -> Self {
        Slot { defs: Ways::new(), lowerings: Ways::new() }
    }

    /// The id of `item`'s definition (item `at` of its unit, whose shared
    /// prefix is `prefix`), a new one when the slot does not hold it.
    fn def_id(&mut self, item: &Item, at: usize, prefix: &Arc<[Item]>, next_id: &mut u64) -> u64 {
        let make = || {
            *next_id += 1;
            Def { id: *next_id - 1, item: DefRef::of(item, at, prefix) }
        };
        self.defs.get_or_insert(|d| d.item.is(item, at, prefix), make).id
    }

    /// The lowering of this item for definition `own` when the program's
    /// functions have the definition ids `ids`: a kept one whose inputs
    /// match, else the one `lower` makes, kept.
    fn lowered(&mut self, own: u64, ids: &[u64], lower: impl FnOnce() -> (L, Vec<u16>)) -> Rc<L> {
        let current = |l: &Lowered<L>| {
            l.own == own && l.reads.iter().all(|&(f, id)| ids[f as usize] == id)
        };
        let make = || {
            let (lowered, reads) = lower();
            let reads = reads.iter().map(|&f| (f, ids[f as usize])).collect();
            Lowered { own, reads, lowered: Rc::new(lowered) }
        };
        self.lowerings.get_or_insert(current, make).lowered.clone()
    }
}

/// At most [`WAYS`] values, each stamped with when it was last reused
/// (0: never). Once every way is taken, a new value replaces the one with
/// the oldest stamp.
#[derive(Debug)]
struct Ways<T> {
    ways: Vec<(T, u64)>,
    /// Reuses so far: the stamp of the next one.
    clock: u64,
}

impl<T> Ways<T> {
    fn new() -> Self {
        Ways { ways: Vec::with_capacity(WAYS), clock: 0 }
    }

    /// The value `hit` accepts, stamped as reused now; else the value
    /// `make` builds, kept.
    fn get_or_insert(&mut self, hit: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> &mut T {
        let at = match self.ways.iter().position(|(value, _)| hit(value)) {
            Some(at) => {
                self.clock += 1;
                self.ways[at].1 = self.clock;
                at
            }
            None if self.ways.len() < WAYS => {
                self.ways.push((make(), 0));
                self.ways.len() - 1
            }
            None => {
                let (at, _) = self
                    .ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, reused))| *reused)
                    .expect("a full set of ways is not empty");
                self.ways[at] = (make(), 0);
                at
            }
        };
        &mut self.ways[at].0
    }
}

impl LowerCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lower `program`: equal to [`Program::to_bytecode`], with every item
    /// whose inputs match a kept lowering shared from it rather than
    /// lowered again.
    pub fn lower(&mut self, program: &Program) -> CompiledProgram {
        let entry = self.entry(program);
        let prefix = program.unit.prefix();
        let mut func_ids = Vec::with_capacity(entry.funcs.len());
        let mut global_ids = Vec::with_capacity(entry.globals.len());
        for (at, item) in program.unit.items().enumerate() {
            let next_id = &mut entry.next_id;
            match item {
                Item::Func(_) => {
                    let slot = &mut entry.funcs[func_ids.len()];
                    func_ids.push(slot.def_id(item, at, prefix, next_id));
                }
                Item::Global(_) => {
                    let slot = &mut entry.globals[global_ids.len()];
                    global_ids.push(slot.def_id(item, at, prefix, next_id));
                }
                Item::Proto(_) => {}
            }
        }
        let lw = Lowering::new(program, &entry.names, true);
        let globals = program
            .unit
            .globals()
            .zip(&mut entry.globals)
            .zip(&global_ids)
            .map(|((g, slot), &own)| slot.lowered(own, &func_ids, || lw.global(g)))
            .collect();
        let funcs = entry
            .funcs
            .iter_mut()
            .zip(&func_ids)
            .enumerate()
            .map(|(fidx, (slot, &own))| slot.lowered(own, &func_ids, || lw.function(fidx)))
            .collect();
        CompiledProgram { funcs, globals, files: program.unit.files.clone() }
    }

    /// The entry for `program`'s driver file and shape, made if missing.
    fn entry(&mut self, program: &Program) -> &mut Entry {
        let file = program.unit.files.first().map_or("", String::as_str);
        match self.drivers.iter().position(|d| d.file == file) {
            Some(at) => {
                let driver = self.drivers.remove(at);
                self.drivers.push(driver);
            }
            None => {
                if self.drivers.len() == MAX_DRIVERS {
                    self.drivers.remove(0);
                }
                self.drivers.push(Driver { file: file.to_string(), shapes: Ways::new() });
            }
        }
        let driver = self.drivers.last_mut().expect("the driver was just pushed");
        driver.shapes.get_or_insert(|e| e.shape.matches(program), || Entry::new(program))
    }
}

impl Entry {
    fn new(program: &Program) -> Entry {
        Entry {
            shape: Shape::of(program),
            names: Names::of(program),
            funcs: program.unit.functions().map(|_| Slot::new()).collect(),
            globals: program.unit.globals().map(|_| Slot::new()).collect(),
            next_id: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::IncludeCache;
    use crate::{compile, compile_with_cache};

    /// Lower `program` through `cache`, check the result against a full
    /// lowering, and return it.
    fn lower_checked(cache: &mut LowerCache, program: &Program) -> CompiledProgram {
        let cached = cache.lower(program);
        assert!(cached == program.to_bytecode(), "the cache and a full lowering differ");
        cached
    }

    /// Whether function `name` of `a` and `b` is one shared lowering.
    fn shared(a: &CompiledProgram, b: &CompiledProgram, name: &str) -> bool {
        let f = |p: &CompiledProgram| p.funcs[p.function(name).expect("function exists") as usize].clone();
        Rc::ptr_eq(&f(a), &f(b))
    }

    /// A helper of `stmts` statements, a caller that calls it, and an
    /// unrelated function.
    fn with_helper(stmts: usize) -> Program {
        let body = "a = a + 1; ".repeat(stmts - 1);
        compile(
            "d.c",
            &format!(
                "static int helper(int a) {{ {body}return a; }}
                 int caller(int x) {{ return helper(x) + 1; }}
                 int other(void) {{ return 7; }}"
            ),
        )
        .expect("test program compiles")
    }

    #[test]
    fn a_callee_crossing_the_inline_limit_relowers_its_callers() {
        // 16 statements inline, 17 do not; shrink and grow both ways.
        for (clean, mutant) in [(16, 17), (17, 16)] {
            let (clean, mutant) = (with_helper(clean), with_helper(mutant));
            let caller = |p: &Program| p.to_bytecode().funcs[1].clone();
            assert!(caller(&clean) != caller(&mutant), "the caller's lowering depends on the limit");
            let mut cache = LowerCache::new();
            let a = lower_checked(&mut cache, &clean);
            let b = lower_checked(&mut cache, &mutant);
            assert!(!shared(&a, &b, "helper") && !shared(&a, &b, "caller"));
            assert!(shared(&a, &b, "other"), "an unrelated function is reused");
            // The clean program again reuses every clean lowering.
            let c = lower_checked(&mut cache, &clean);
            assert!(["helper", "caller", "other"].iter().all(|f| shared(&a, &c, f)));
        }
    }

    #[test]
    fn renames_initialisers_and_structs_fall_back() {
        let clean = "struct s { int a; int b; };
            int k = 5;
            int f(void) { return 1; }
            int g(void) { struct s v; v.b = k; return v.b + f(); }
            int h(void) { return 3; }";
        let mutants = [
            // A renamed function: another shape.
            clean.replace("int h(void)", "int j(void)"),
            // A changed global initialiser: the global only.
            clean.replace("k = 5", "k = 6"),
            // A changed struct: another shape.
            clean.replace("int b; }", "int b; int c; }"),
        ];
        let clean = compile("d.c", clean).unwrap();
        let mut cache = LowerCache::new();
        let first = lower_checked(&mut cache, &clean);
        for source in &mutants {
            let mutant = compile("d.c", source).unwrap();
            lower_checked(&mut cache, &mutant);
            let again = lower_checked(&mut cache, &clean);
            assert!(shared(&first, &again, "g") && Rc::ptr_eq(&first.globals[0], &again.globals[0]));
        }
        let initialiser = compile("d.c", &mutants[1]).unwrap();
        let lowered = lower_checked(&mut cache, &initialiser);
        assert!(!Rc::ptr_eq(&first.globals[0], &lowered.globals[0]));
        assert!(["f", "g", "h"].iter().all(|f| shared(&first, &lowered, f)));
    }

    #[test]
    fn resumed_header_items_are_reused_by_their_shared_prefix() {
        let header = "static int twice(int v) { return v * 2; }\nint base = 4;\n";
        let includes = [("h.h", header)];
        let cache = IncludeCache::new(&includes);
        let driver = |n: u32| format!("#include \"h.h\"\nint f(void) {{ return twice(base) + {n}; }}\n");
        let clean = compile_with_cache("d.c", &driver(1), &cache).unwrap();
        let mutant = compile_with_cache("d.c", &driver(2), &cache).unwrap();
        assert!(Arc::ptr_eq(clean.unit.prefix(), mutant.unit.prefix()), "both resumed");
        let mut lowering = LowerCache::new();
        let a = lower_checked(&mut lowering, &clean);
        let b = lower_checked(&mut lowering, &mutant);
        assert!(shared(&a, &b, "twice") && !shared(&a, &b, "f"));
        // A full compile of the same source shares no prefix: its header
        // items compare by value and are reused all the same.
        let full = crate::compile_with_includes("d.c", &driver(2), &includes).unwrap();
        let c = lower_checked(&mut lowering, &full);
        assert!(shared(&b, &c, "twice") && shared(&b, &c, "f"));
    }

    #[test]
    fn memory_stays_bounded() {
        let mut cache = LowerCache::new();
        for n in 0..40 {
            let file = format!("d{}.c", n % 9);
            let p = compile(&file, &format!("int f(void) {{ return {n}; }} int v{} = 1;", n % 5))
                .unwrap();
            lower_checked(&mut cache, &p);
        }
        assert!(cache.drivers.len() <= MAX_DRIVERS);
        for driver in &cache.drivers {
            assert!(driver.shapes.ways.len() <= WAYS);
            for (entry, _) in &driver.shapes.ways {
                for slot in &entry.funcs {
                    assert!(slot.defs.ways.len() <= WAYS && slot.lowerings.ways.len() <= WAYS);
                }
            }
        }
    }

    #[test]
    fn the_clean_version_survives_runs_of_mutants_in_one_function() {
        let source = |a: u32, b: u32| format!("int f(void) {{ return {a}; }} int g(void) {{ return {b}; }}");
        let clean = compile("d.c", &source(0, 0)).unwrap();
        let mut cache = LowerCache::new();
        lower_checked(&mut cache, &compile("d.c", &source(0, 9)).unwrap());
        let first = lower_checked(&mut cache, &clean);
        for n in 1..6 {
            lower_checked(&mut cache, &compile("d.c", &source(n, 0)).unwrap());
        }
        let again = lower_checked(&mut cache, &clean);
        assert!(shared(&first, &again, "f") && shared(&first, &again, "g"));
    }
}
