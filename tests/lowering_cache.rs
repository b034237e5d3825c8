//! The lowering cache against a full lowering.
//!
//! `ScenarioMachine` lowers every mutant through its own
//! `devil_minic::bytecode::LowerCache`, which lowers again only the
//! functions and globals whose inputs it has not seen and shares the rest
//! by `Rc`. Whatever the cache held before, what it returns must equal
//! `Program::to_bytecode` of the same program, every op and table of
//! every item.
//!
//! * All builds: a seeded sample of both IDE populations, interleaved
//!   through one machine, gets the outcomes separate machines give, and
//!   one cache lowers each program as separate caches and a full lowering
//!   do.
//! * Release builds: every mutant of every catalog driver's full
//!   population that compiles, lowered through one warm cache in
//!   generation order and in a shuffled order, and the two IDE populations
//!   interleaved through one cache.

use devil::drivers::corpus::{build_scenario, find_case, scenario_catalog, DriverVariant};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::scenario::ScenarioMachine;
use devil::minic::bytecode::LowerCache;
use devil::minic::compile_with_cache;
use devil::minic::pp::IncludeCache;
use devil::mutagen::{sample, Mutant};

fn includes(v: &DriverVariant) -> Vec<(&str, &str)> {
    v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect()
}

/// The `ide-boot` scenario's two drivers, plain C first.
fn ide_drivers() -> &'static [DriverVariant] {
    &find_case("ide-boot").expect("ide-boot is in the catalog").drivers
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = seed | 1;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// `a` and `b` taken in turn, the rest of the longer one after.
fn interleave<'a, T>(a: &'a [T], b: &'a [T]) -> Vec<(usize, &'a T)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    for i in 0..a.len().max(b.len()) {
        out.extend(a.get(i).map(|m| (0, m)));
        out.extend(b.get(i).map(|m| (1, m)));
    }
    out
}

#[test]
fn interleaved_ide_drivers_match_separate_machines_and_caches() {
    let fraction = if cfg!(debug_assertions) { 0.01 } else { 0.05 };
    let drivers = ide_drivers();
    assert_eq!(drivers.len(), 2, "both IDE drivers boot under ide-boot");
    let samples: Vec<Vec<Mutant>> =
        drivers.iter().map(|v| sample(v.mutants(), fraction, 0x10E5)).collect();
    let machine = || ScenarioMachine::with_scenario(build_scenario("ide-boot").unwrap(), DEFAULT_FUEL);
    let mut one = machine();
    let mut separate = [machine(), machine()];
    let compile_caches: Vec<IncludeCache> =
        drivers.iter().map(|v| IncludeCache::new(&includes(v))).collect();
    let mut one_cache = LowerCache::new();
    let mut separate_caches = [LowerCache::new(), LowerCache::new()];
    let mut compiled = 0;
    for (d, m) in interleave(&samples[0], &samples[1]) {
        let v = &drivers[d];
        let refs = includes(v);
        let got = one.run(v.file, &m.source, &refs, Some(m.line));
        let want = separate[d].run(v.file, &m.source, &refs, Some(m.line));
        assert_eq!(got, want, "{} site {}: one machine and separate ones differ", v.label, m.site);
        if let Ok(program) = compile_with_cache(v.file, &m.source, &compile_caches[d]) {
            let lowered = one_cache.lower(&program);
            assert!(lowered == separate_caches[d].lower(&program), "{} site {}", v.label, m.site);
            assert!(lowered == program.to_bytecode(), "{} site {}", v.label, m.site);
            compiled += 1;
        }
    }
    assert!(compiled > 0, "some sampled mutants compile");
}

/// Lower the clean driver and then every mutant of `order` that compiles
/// through `cache`, each checked against a full lowering. Returns how
/// many compiled.
fn lowers_like_to_bytecode(
    cache: &mut LowerCache,
    order: &[(&DriverVariant, &IncludeCache, &Mutant)],
) -> usize {
    let mut compiled = 0;
    for (v, compile_cache, m) in order {
        let Ok(program) = compile_with_cache(v.file, &m.source, compile_cache) else {
            continue;
        };
        assert!(
            cache.lower(&program) == program.to_bytecode(),
            "{} site {} ({}): the cache and a full lowering differ",
            v.label,
            m.site,
            m.description
        );
        compiled += 1;
    }
    compiled
}

/// A cache warmed with the clean `v`.
fn warm(v: &DriverVariant, compile_cache: &IncludeCache) -> LowerCache {
    let mut cache = LowerCache::new();
    let clean = compile_with_cache(v.file, v.source, compile_cache).expect("clean driver compiles");
    assert!(cache.lower(&clean) == clean.to_bytecode());
    cache
}

#[test]
#[cfg_attr(debug_assertions, ignore = "lowers every catalog mutant twice; run in release")]
fn every_catalog_mutant_lowers_through_a_warm_cache_as_in_full() {
    let mut seen = Vec::new();
    for case in scenario_catalog() {
        for v in &case.drivers {
            if seen.contains(&v.label) {
                continue;
            }
            seen.push(v.label);
            let compile_cache = IncludeCache::new(&includes(v));
            let mutants = v.mutants();
            let in_order: Vec<_> = mutants.iter().map(|m| (v, &compile_cache, m)).collect();
            let shuffled: Vec<_> = shuffled(in_order.len(), 0x5EED).into_iter().map(|i| in_order[i]).collect();
            // The two orders on two threads, each with its own cache.
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| lowers_like_to_bytecode(&mut warm(v, &compile_cache), &in_order));
                let b = lowers_like_to_bytecode(&mut warm(v, &compile_cache), &shuffled);
                (a.join().expect("generation order passes"), b)
            });
            assert_eq!(a, b, "{}: both orders compile the same mutants", v.label);
            assert!(a > 0, "{}: some mutants compile", v.label);
        }
    }
    assert!(seen.len() >= 5, "every catalog driver ran: {seen:?}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "lowers both IDE populations; run in release")]
fn both_ide_populations_interleave_through_one_cache() {
    let drivers = ide_drivers();
    let compile_caches: Vec<IncludeCache> =
        drivers.iter().map(|v| IncludeCache::new(&includes(v))).collect();
    let populations: Vec<Vec<Mutant>> = drivers.iter().map(DriverVariant::mutants).collect();
    let order: Vec<_> = interleave(&populations[0], &populations[1])
        .into_iter()
        .map(|(d, m)| (&drivers[d], &compile_caches[d], m))
        .collect();
    let mut cache = warm(&drivers[0], &compile_caches[0]);
    let compiled = lowers_like_to_bytecode(&mut cache, &order);
    assert!(compiled > 0);
}
