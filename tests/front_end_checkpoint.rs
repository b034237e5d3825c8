//! Front-end checkpoint differential: compiling a source through an
//! `IncludeCache`, which resumes preprocessing, parsing and checking from
//! the checkpoint of the driver's header prefix, must return exactly what
//! compiling the whole unit returns — the same `Program`, or the same
//! `CError`.
//!
//! Two input sets. Every `ide_piix4_cdevil` and `busmouse_cdevil` mutant
//! against the debug header, plus a seeded 10% of each against the
//! no-asserts and production headers: all of them must resume
//! preprocessing and parsing. Release builds run the full sets; debug
//! builds (the tier-1 run) a small seeded sample. And arbitrary remainders
//! appended to the clean prefix — random bytes, token soup, operator
//! splices — since the service compiles untrusted C through this path.
//!
//! Release builds also pin what the front end answers for every catalog
//! compile, so a change to it that moves any verdict fails.

use devil::core::codegen::{generate, CodegenMode};
use devil::drivers::{busmouse, ide, specs};
use devil::minic::pp::IncludeCache;
use devil::minic::{compile_with_cache, compile_with_includes, CPhase, ResumeStats};
use devil::mutagen::c::{CMutationModel, CStyle};
use devil::mutagen::operator::c_operator_mutants;
use devil::mutagen::sample;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One CDevil driver and the header variants it is compiled against.
struct Driver {
    file: &'static str,
    source: &'static str,
    header_name: &'static str,
    debug: String,
    no_asserts: String,
    production: String,
}

fn drivers() -> Vec<Driver> {
    let bm = specs::compile("busmouse.dil", specs::BUSMOUSE).expect("bundled spec compiles");
    vec![
        Driver {
            file: ide::IDE_CDEVIL_FILE,
            source: ide::IDE_CDEVIL_DRIVER,
            header_name: ide::IDE_HEADER_NAME,
            debug: ide::ide_header(CodegenMode::Debug),
            no_asserts: ide::ide_header(CodegenMode::DebugNoAsserts),
            production: ide::ide_header(CodegenMode::Production),
        },
        Driver {
            file: busmouse::BM_CDEVIL_FILE,
            source: busmouse::BM_CDEVIL_DRIVER,
            header_name: busmouse::BM_HEADER_NAME,
            debug: busmouse::bm_debug_header(),
            no_asserts: generate(&bm, CodegenMode::DebugNoAsserts),
            production: generate(&bm, CodegenMode::Production),
        },
    ]
}

/// Compile every source through one fresh cache and in full, asserting
/// equal results. Returns the cache's counts and how many sources failed
/// to preprocess.
fn differential<'s>(
    file: &str,
    includes: &[(&str, &str)],
    sources: impl IntoIterator<Item = &'s str>,
) -> (ResumeStats, u64) {
    let cache = IncludeCache::new(includes);
    let mut pp_errors = 0;
    for (i, source) in sources.into_iter().enumerate() {
        let resumed = compile_with_cache(file, source, &cache);
        let full = compile_with_includes(file, source, includes);
        assert!(
            resumed == full,
            "{file} source {i}: checkpoint and full compile differ"
        );
        if let Err(e) = &full {
            pp_errors += u64::from(matches!(e.phase, CPhase::Preprocess | CPhase::Lex));
        }
    }
    (cache.resume_stats(), pp_errors)
}

#[test]
fn every_cdevil_mutant_resumes_and_matches_the_full_compile() {
    // Debug builds take a sample so the tier-1 run stays quick.
    let fraction = if cfg!(debug_assertions) { 0.01 } else { 1.0 };
    for d in drivers() {
        let model = CMutationModel::new(d.source, &[&d.debug], CStyle::CDevil);
        let mutants = sample(model.mutants(), fraction, 0xC4EC);
        let tenth = sample(mutants.clone(), 0.1, 0x7E47);
        for (header, set) in [
            (&d.debug, &mutants),
            (&d.no_asserts, &tenth),
            (&d.production, &tenth),
        ] {
            let includes = [(d.header_name, header.as_str())];
            let (stats, pp_errors) =
                differential(d.file, &includes, set.iter().map(|m| m.source.as_str()));
            let n = set.len() as u64;
            assert_eq!(
                stats.pp, n,
                "{}: every mutant resumes preprocessing: {stats:?}",
                d.file
            );
            assert_eq!(
                stats.parse,
                n - pp_errors,
                "{}: and parsing: {stats:?}",
                d.file
            );
            assert_eq!(stats.full(), 0, "{}: {stats:?}", d.file);
        }
    }
}

/// What the front end answers for one driver's population against one
/// header: how many sources compile, how many each phase rejects
/// (preprocess, lex, parse, check), and an FNV-1a over the error texts in
/// population order.
#[derive(Debug, PartialEq, Eq)]
struct Verdicts {
    driver: &'static str,
    header: &'static str,
    compiled: u64,
    rejected: [u64; 4],
    errors_fnv: u64,
}

/// Compile the clean `source`, then every mutant in `mutants`, through
/// one fresh cache over `includes`, as a campaign does.
fn verdicts(
    (driver, header): (&'static str, &'static str),
    file: &str,
    source: &str,
    mutants: &[devil::mutagen::Mutant],
    includes: &[(&str, &str)],
) -> Verdicts {
    let cache = IncludeCache::new(includes);
    let sources = std::iter::once(source).chain(mutants.iter().map(|m| m.source.as_str()));
    let mut v = Verdicts { driver, header, compiled: 0, rejected: [0; 4], errors_fnv: 0 };
    let mut errors = String::new();
    for source in sources {
        match compile_with_cache(file, source, &cache) {
            Ok(_) => v.compiled += 1,
            Err(e) => {
                let phase = [CPhase::Preprocess, CPhase::Lex, CPhase::Parse, CPhase::Check];
                v.rejected[phase.iter().position(|&p| p == e.phase).expect("a phase")] += 1;
                errors.push_str(&format!("{e}\n"));
            }
        }
    }
    v.errors_fnv = devil::mutagen::ledger::fnv1a(errors.as_bytes());
    v
}

/// The front end's answer for every catalog driver and each of its
/// mutants against its catalog headers, and for the IDE CDevil population
/// against the no-asserts and production headers too, pinned. A change
/// to the front end that moves any compile from `Ok` to `Err`, from one
/// phase to another, or to another message, fails here.
#[test]
#[cfg_attr(debug_assertions, ignore = "compiles 40,141 sources; run in release")]
fn every_catalog_compile_keeps_its_pinned_verdict() {
    let mut seen = Vec::new();
    let mut got = Vec::new();
    for case in devil::drivers::corpus::scenario_catalog() {
        for v in &case.drivers {
            if seen.contains(&v.label) {
                continue;
            }
            seen.push(v.label);
            let mutants = v.mutants();
            let mut headers = vec![("catalog", v.headers.clone())];
            if v.file == ide::IDE_CDEVIL_FILE {
                for (header, mode) in [
                    ("no-asserts", CodegenMode::DebugNoAsserts),
                    ("production", CodegenMode::Production),
                ] {
                    let text = ide::ide_header(mode);
                    headers.push((header, vec![(ide::IDE_HEADER_NAME.to_string(), text)]));
                }
            }
            for (header, includes) in headers {
                let refs: Vec<(&str, &str)> =
                    includes.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
                got.push(verdicts((v.label, header), v.file, v.source, &mutants, &refs));
            }
        }
    }
    let pin = |driver, header, compiled, rejected, errors_fnv| Verdicts {
        driver,
        header,
        compiled,
        rejected,
        errors_fnv,
    };
    let pinned = [
        pin("ide_piix4_c", "catalog", 4419, [0, 32, 502, 943], 0xb516dfe42ec732f2),
        pin("ide_piix4_cdevil", "catalog", 3313, [69, 33, 234, 3361], 0xdab0eeeea0a3619d),
        pin("ide_piix4_cdevil", "no-asserts", 3331, [69, 33, 219, 3358], 0x138a84886741cb40),
        pin("ide_piix4_cdevil", "production", 3873, [51, 33, 232, 2821], 0x7c0b310a0eeb1379),
        pin("busmouse_c", "catalog", 2020, [90, 2, 152, 179], 0x614c50ba50066624),
        pin("busmouse_cdevil", "catalog", 600, [9, 2, 52, 225], 0x3a2630bb8e337548),
        pin("ne2000_c", "catalog", 7731, [0, 37, 660, 1456], 0xd0ccedc5a00f6381),
    ];
    assert_eq!(got, pinned);
}

/// The clean IDE driver split at its cut, and a cache whose checkpoint
/// the clean driver pinned.
struct Fixture {
    prefix: String,
    remainder: String,
    includes: Vec<(String, String)>,
    cache: IncludeCache,
}

fn ide_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let source = ide::IDE_CDEVIL_DRIVER;
        let cut = source.find("#include").expect("driver includes its header");
        let cut = cut + source[cut..].find('\n').expect("include line ends") + 1;
        let includes = ide::cdevil_includes();
        let refs: Vec<(&str, &str)> = includes
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let cache = IncludeCache::new(&refs);
        compile_with_cache(ide::IDE_CDEVIL_FILE, source, &cache).expect("clean driver compiles");
        assert_eq!(
            cache.resume_stats().check,
            1,
            "the clean driver pins the checkpoint"
        );
        Fixture {
            prefix: source[..cut].to_string(),
            remainder: source[cut..].to_string(),
            includes,
            cache,
        }
    })
}

/// The checkpoint and the full compile agree on `prefix + remainder`.
fn same_result(remainder: &str) {
    let f = ide_fixture();
    let refs: Vec<(&str, &str)> = f
        .includes
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let source = format!("{}{remainder}", f.prefix);
    let resumed = compile_with_cache(ide::IDE_CDEVIL_FILE, &source, &f.cache);
    let full = compile_with_includes(ide::IDE_CDEVIL_FILE, &source, &refs);
    assert!(
        resumed == full,
        "checkpoint and full compile differ on {remainder:?}"
    );
}

/// Words the token soup draws from: C syntax, directives, header names
/// (stubs, constants, builtins, macros) and the driver's own globals.
const SOUP: &[&str] = &[
    "int",
    "void",
    "static",
    "struct",
    "typedef",
    "unsigned",
    "char",
    "u8",
    "u32",
    "Drive_t",
    "return",
    "if",
    "while",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "=",
    "==",
    "+",
    "-",
    "*",
    "&",
    "|",
    "!",
    "~",
    "<<",
    "?",
    ":",
    ".",
    "->",
    "0",
    "1",
    "0x1f0",
    "'\"'",
    "\"s\"",
    "/*",
    "*/",
    "//",
    "\\\n",
    "\n",
    "#define K 9\n",
    "#undef dil_eq\n",
    "#include \"ide_piix4.dil.h\"\n",
    "#ifdef X\n",
    "#endif\n",
    "udelay",
    "inb",
    "outb",
    "panic",
    "io_buf",
    "MASTER",
    "dil_eq",
    "dil_val",
    "dil_assert",
    "get_busy",
    "NOT_BUSY",
    "set_Drive",
    "dil_ensure_init",
    "x",
    "f",
];

/// Operators the mutation model splices within their classes.
const OPERATORS: &[&str] = &["==", "!=", "&&", "||", "<<", ">>", "+", "-", "&", "|", "!"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 400 }))]

    /// Random bytes after the prefix.
    #[test]
    fn random_byte_remainders_match(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        same_result(&String::from_utf8_lossy(&bytes));
    }

    /// Token soup after the prefix, spaced or glued.
    #[test]
    fn token_soup_remainders_match(
        words in prop::collection::vec(prop::sample::select(SOUP.to_vec()), 0..48),
        glue in prop::sample::select(vec![" ", "", "\n"]),
    ) {
        same_result(&words.join(glue));
    }

    /// The clean remainder with operator mutations spliced in, the shape
    /// of a mutant with several faults.
    #[test]
    fn operator_splices_match(picks in prop::collection::vec(any::<u64>(), 1..6)) {
        let mut rest = ide_fixture().remainder.clone();
        for pick in picks {
            let sites: Vec<(usize, &str)> = OPERATORS
                .iter()
                .flat_map(|op| rest.match_indices(op).collect::<Vec<_>>())
                .collect();
            let (at, op) = sites[(pick % sites.len() as u64) as usize];
            let alts = c_operator_mutants(op);
            let alt = alts[(pick >> 32) as usize % alts.len()];
            rest = format!("{}{alt}{}", &rest[..at], &rest[at + op.len()..]);
        }
        same_result(&rest);
    }
}
