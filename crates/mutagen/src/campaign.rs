//! Campaign execution: seeded sampling and the parallel evaluation engine.
//!
//! The paper's Table 3/4 experiment generates ~2000 mutants and randomly
//! tests 25% of them; each test compiles the mutant and (when it compiles)
//! boots a kernel with it. [`sample`] reproduces the seeded random
//! selection; [`Campaign`] fans the classification out over worker
//! threads, since every mutant run is independent.
//!
//! # The campaign engine
//!
//! Evaluating a mutant needs a *machine* — a simulated I/O space, a disk
//! image, bound stub instances. Rebuilding that per mutant dominated
//! campaign time, so the engine is built around per-worker **workspaces**:
//!
//! * [`Campaign::new`] takes a `build` closure and a `classify` closure;
//! * each worker thread calls `build()` exactly once and owns the
//!   resulting workspace for its whole life;
//! * every mutant is classified with `classify(&mut workspace, mutant)`,
//!   which is expected to *reset* the workspace (snapshot restore) rather
//!   than reconstruct it — see `devil_hwsim::snap` and the kernel crate's
//!   `ScenarioMachine` for the concrete reset-per-mutant lifecycle.
//!
//! Everything is dependency-free: sampling uses a splitmix64-seeded
//! Fisher–Yates shuffle, and there is **one worker pool**, built on
//! [`std::thread::scope`] and fed by a [`JobQueue`]. Every worker loops
//! pop → classify → deliver until the queue is closed and drained, and
//! one of the workers is the calling thread. The two front doors differ
//! only in what they put in the queue and where outcomes go:
//!
//! * **batch** ([`Campaign::run`], [`Campaign::run_memoized`],
//!   [`run_parallel`]) — a closed queue pre-filled with the items, each
//!   tagged with its index; each outcome is put back in its item's slot,
//!   so results come back in item order and no item is cloned;
//! * **service** ([`Campaign::run_queue`]) — the live admission queue;
//!   each outcome goes wherever its item says (a reply channel).
//!
//! Memoization is one stage for both doors: [`Ledger::admit`] before a
//! job is queued and [`Ledger::settle`] once its outcome exists.
//!
//! # Worker supervision
//!
//! The paper's whole subject is hostile inputs, and some of them are
//! hostile to the *harness*: a mutant that makes `classify` itself panic.
//! By default that is treated as a harness bug and aborts the campaign
//! (fail loudly, never return a hole in the results). A long-running
//! service cannot afford that contract, so [`Campaign::supervised`]
//! installs a [`Supervise`] policy: the panic is caught per item
//! (`catch_unwind`), the panicking worker's **workspace is discarded and
//! rebuilt fresh** for the next item (whatever torn state the panic left
//! dies with it — this is what makes the `AssertUnwindSafe` boundary
//! sound), and the policy converts the panic into an ordinary outcome for
//! that item. Panics raised *outside* `classify` — in `build` or in the
//! delivery path — still abort: supervision isolates per-item failures,
//! it does not paper over a broken harness.

use crate::ledger::{Admission, Ledger, LedgerKey};
use crate::queue::JobQueue;
use crate::site::Mutant;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Minimal deterministic RNG (splitmix64) for reproducible sampling.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Deterministically sample `fraction` (0..=1) of `mutants` with `seed`.
///
/// The selection is stable for a given `(mutants, fraction, seed)` triple,
/// so experiments are reproducible run to run. The surviving mutants keep
/// their original relative order.
///
/// Out-of-range fractions are handled deterministically rather than left
/// to float comparison: anything at or above `1.0` keeps every mutant,
/// anything at or below `0.0` — including `NaN` — keeps none.
pub fn sample(mutants: Vec<Mutant>, fraction: f64, seed: u64) -> Vec<Mutant> {
    if fraction >= 1.0 {
        return mutants;
    }
    if fraction.is_nan() || fraction <= 0.0 {
        return Vec::new();
    }
    let keep = ((mutants.len() as f64) * fraction).round() as usize;
    let mut rng = SplitMix(seed ^ 0xD5A6_1266_F0C9_16B5);
    let mut indices: Vec<usize> = (0..mutants.len()).collect();
    // Fisher–Yates shuffle, then keep the first `keep` positions.
    for i in (1..indices.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        indices.swap(i, j);
    }
    indices.truncate(keep);
    indices.sort_unstable();
    let mut keep_flags = vec![false; mutants.len()];
    for i in indices {
        keep_flags[i] = true;
    }
    mutants
        .into_iter()
        .zip(keep_flags)
        .filter_map(|(m, keep)| keep.then_some(m))
        .collect()
}

/// Resolve a requested worker count: 0 means "use all available cores".
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// A reusable work-item evaluation pipeline: one workspace per worker
/// thread, every item run as reset → apply → classify inside a workspace.
///
/// `build` constructs a worker's workspace (a machine plus whatever bound
/// state the classifier needs); `classify` evaluates one item in it and
/// is responsible for resetting the workspace first (typically one
/// snapshot restore). Results come back in item order.
///
/// The item type is generic ([`Campaign::run`] accepts any `&[I]`): the
/// classic campaign iterates [`Mutant`]s, while a fault-attribution
/// campaign iterates fault seeds over one clean driver — same worker
/// pool, same workspace reuse, same ordering guarantees.
///
/// Both closures only need `Sync`, so compile artifacts that are immutable
/// for the whole campaign — a pre-lexed header set
/// (`devil_minic::pp::IncludeCache`), a lowered baseline program, shared
/// spec interning tables — should be built **once, outside the campaign**,
/// and borrowed by every worker through closure capture, rather than
/// rebuilt per workspace. The kernel crate's `ScenarioMachine::run_cached`
/// is the canonical example: one header lexing pass serves every worker's
/// thousands of mutant compiles.
///
/// ```
/// use devil_mutagen::{Campaign, Mutant};
///
/// // A trivial "workspace": a counter proving per-worker reuse.
/// let campaign = Campaign::new(|| 0u64, |runs: &mut u64, m: &Mutant| {
///     *runs += 1;
///     m.site * 2
/// });
/// let outcomes = campaign.run(&[]);
/// assert!(outcomes.is_empty());
/// ```
#[derive(Debug)]
pub struct Campaign<B, F, R = Unsupervised> {
    threads: usize,
    build: B,
    classify: F,
    recover: R,
}

/// What a campaign does when `classify` panics on one item. See the
/// [module docs](self#worker-supervision) for the isolation contract.
pub trait Supervise<I, O>: Sync {
    /// Decide the panicking item's fate: `Some(outcome)` substitutes an
    /// outcome and the campaign continues (on a fresh workspace);
    /// `None` re-raises the panic and aborts the campaign. `panic_message`
    /// is the stringified panic payload (`"non-string panic payload"`
    /// when it was neither a `String` nor a `&str`).
    fn recover(&self, item: &I, panic_message: &str) -> Option<O>;
}

/// The default policy: a classify panic is a harness bug — re-raise it
/// and abort the whole campaign rather than return partial results.
#[derive(Debug, Default, Clone, Copy)]
pub struct Unsupervised;

impl<I, O> Supervise<I, O> for Unsupervised {
    fn recover(&self, _item: &I, _panic_message: &str) -> Option<O> {
        None
    }
}

/// Adapter making any `Fn(&I, &str) -> O` a total [`Supervise`] policy:
/// every classify panic becomes an outcome, no panic aborts.
#[derive(Debug, Clone, Copy)]
pub struct Recover<R>(pub R);

impl<I, O, R> Supervise<I, O> for Recover<R>
where
    R: Fn(&I, &str) -> O + Sync,
{
    fn recover(&self, item: &I, panic_message: &str) -> Option<O> {
        Some((self.0)(item, panic_message))
    }
}

/// Best-effort text of a panic payload, for outcome details and logs.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("non-string panic payload")
}

impl<B, F> Campaign<B, F, Unsupervised> {
    /// Create a campaign that builds one workspace per worker with `build`
    /// and evaluates each item with `classify`. Uses all available cores
    /// until [`Campaign::with_threads`] says otherwise, and treats a
    /// classify panic as fatal until [`Campaign::supervised`] says
    /// otherwise.
    pub fn new(build: B, classify: F) -> Self {
        Campaign { threads: 0, build, classify, recover: Unsupervised }
    }
}

impl<B, F, R> Campaign<B, F, R> {
    /// Set the worker count (0 = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Isolate classify panics instead of aborting: a panicking item's
    /// outcome is substituted by `recover(item, panic_message)`, the
    /// worker's workspace is discarded and rebuilt, and the campaign
    /// continues. See the [module docs](self#worker-supervision).
    pub fn supervised<Rf>(self, recover: Rf) -> Campaign<B, F, Recover<Rf>> {
        Campaign {
            threads: self.threads,
            build: self.build,
            classify: self.classify,
            recover: Recover(recover),
        }
    }

    /// Classify every item, preserving order.
    ///
    /// The workers pop index-tagged items from one closed queue; each
    /// builds its workspace on its first item and reuses it for every
    /// later one. With one worker (or fewer than two items) everything
    /// runs on the calling thread.
    /// Under the default [`Unsupervised`] policy, if any worker's
    /// `classify` panics the whole campaign aborts: once every worker has
    /// stopped, the calling thread panics with `campaign worker
    /// panicked`, and the other workers' outcomes are discarded with it —
    /// a mutant that breaks the engine must fail loudly, never appear as
    /// a hole in the results. A [`Campaign::supervised`] campaign instead
    /// substitutes the policy's outcome for the panicking item, rebuilds
    /// that worker's workspace, and keeps going.
    pub fn run<W, I, O>(&self, items: &[I]) -> Vec<O>
    where
        B: Fn() -> W + Sync,
        F: Fn(&mut W, &I) -> O + Sync,
        R: Supervise<I, O>,
        I: Sync,
        O: Send,
    {
        self.run_slots(items, items.iter().map(|_| None).collect(), |_, _| {})
    }

    /// The memoized flavour of [`Campaign::run`]: put each item through
    /// the ledger's memo stage ([`Ledger::admit`]) before dispatch,
    /// classify only the items it does not answer, and settle each fresh
    /// outcome ([`Ledger::settle`]) the moment its worker produces it.
    ///
    /// `key_of` names each item's classification identity; `encode` turns
    /// a fresh outcome into a `(wire code, detail)` pair to persist
    /// (`None` for outcomes that are not deterministic and must never be
    /// memoized — engine errors, deadline overruns); `decode` rebuilds an
    /// outcome from a stored pair (`None` for codes this binary does not
    /// know, which are then evicted and re-classified rather than
    /// trusted).
    ///
    /// Checkpointing is **incremental**: the record for item *i* is
    /// appended on the worker thread immediately after classifying *i*,
    /// so a `kill -9` mid-campaign loses at most the in-flight records —
    /// a resumed run with the same ledger replays the survivors as hits
    /// and finishes the rest, producing the same outcome vector as an
    /// uninterrupted run. Append failures are deliberately swallowed:
    /// they cost resumability, never correctness of the returned vector.
    /// Hit/miss tallies are on [`Ledger::counters`].
    pub fn run_memoized<W, I, O, K, E, D>(
        &self,
        items: &[I],
        ledger: &Ledger,
        key_of: K,
        encode: E,
        decode: D,
    ) -> Vec<O>
    where
        B: Fn() -> W + Sync,
        F: Fn(&mut W, &I) -> O + Sync,
        R: Supervise<I, O>,
        I: Sync,
        O: Send,
        K: Fn(&I) -> LedgerKey,
        E: Fn(&O) -> Option<(u8, String)> + Sync,
        D: Fn(u8, &str) -> Option<O>,
    {
        let (slots, tickets): (Vec<Option<O>>, Vec<_>) = items
            .iter()
            .map(|item| match ledger.admit(key_of(item), 0.0, &decode) {
                Admission::Hit(outcome) => (Some(outcome), None),
                Admission::Run(ticket) => (None, Some(ticket)),
            })
            .unzip();
        self.run_slots(items, slots, |i, outcome| {
            let ticket = tickets[i].as_ref().expect("only admitted items run");
            let fresh = encode(outcome);
            ledger.settle(ticket, fresh.as_ref().map(|(code, detail)| (*code, detail.as_str())));
        })
    }

    /// The queue-fed flavour of [`Campaign::run`] — the campaign **service**
    /// engine. Instead of a finished item slice, the workers drain a live
    /// [`JobQueue`], each building its workspace on its first item, until
    /// the queue is closed and drained.
    ///
    /// `deliver(item, outcome)` is called on the worker thread that
    /// classified the item, with the *owned* item — the item itself
    /// carries whatever routing state the caller needs (a response
    /// channel, a request id), which is exactly how a server maps
    /// outcomes back to the connections that submitted them. Unlike
    /// [`Campaign::run`] there is no global ordering: items complete in
    /// whatever order the workers finish them, and the submission tag on
    /// the item is the only correlation.
    ///
    /// Blocks until the queue is closed and every queued item has been
    /// delivered. Admission control (bounded depth, shedding) lives on
    /// the [`JobQueue`] itself; by the time an item reaches a worker it
    /// is guaranteed to run — or, under a [`Campaign::supervised`]
    /// policy, to be delivered with the policy's substitute outcome when
    /// classifying it panicked (the panicking worker's workspace is
    /// rebuilt for its next item; the pool itself never shrinks).
    pub fn run_queue<W, I, O, D>(&self, queue: &JobQueue<I>, deliver: D)
    where
        B: Fn() -> W + Sync,
        F: Fn(&mut W, &I) -> O + Sync,
        R: Supervise<I, O>,
        D: Fn(I, O) + Sync,
        I: Send,
    {
        self.pool(effective_threads(self.threads), queue, |item| item, deliver);
    }

    /// The batch door: classify `items[i]` for every empty slot `i`
    /// through a closed queue pre-filled with those items, each tagged
    /// with its index; call `settle(i, &outcome)` on the worker as each
    /// outcome lands, and return the slots in item order. A batch with
    /// nothing to classify builds no workspace.
    fn run_slots<W, I, O>(
        &self,
        items: &[I],
        slots: Vec<Option<O>>,
        settle: impl Fn(usize, &O) + Sync,
    ) -> Vec<O>
    where
        B: Fn() -> W + Sync,
        F: Fn(&mut W, &I) -> O + Sync,
        R: Supervise<I, O>,
        I: Sync,
        O: Send,
    {
        let queue = JobQueue::bounded(items.len());
        for (i, item) in items.iter().enumerate().filter(|&(i, _)| slots[i].is_none()) {
            assert!(queue.push((i, item)).is_ok(), "the queue holds every item");
        }
        queue.close();
        let threads = effective_threads(self.threads).min(queue.depth());
        let slots: Vec<Mutex<Option<O>>> = slots.into_iter().map(Mutex::new).collect();
        let poisoned = "no worker panics while holding a slot";
        self.pool(
            threads,
            &queue,
            |&(_, item)| item,
            |(i, _), outcome| {
                settle(i, &outcome);
                *slots[i].lock().expect(poisoned) = Some(outcome);
            },
        );
        slots
            .into_iter()
            .map(|s| s.into_inner().expect(poisoned).expect("every item classified"))
            .collect()
    }

    /// The one worker pool: `threads` workers — the calling thread and
    /// `threads - 1` scoped threads — each pop a job, classify
    /// `item_of(&job)` in the worker's own workspace, and hand the job
    /// and its outcome to `deliver`, until `queue` is closed and drained.
    /// A classify panic is caught and put to the [`Supervise`] policy;
    /// one the policy re-raises (or one raised in `build` or `deliver`)
    /// stops its worker, and once every worker has stopped the calling
    /// thread panics with `campaign worker panicked`.
    fn pool<W, I, O, J>(
        &self,
        threads: usize,
        queue: &JobQueue<J>,
        item_of: impl Fn(&J) -> &I + Sync,
        deliver: impl Fn(J, O) + Sync,
    ) where
        B: Fn() -> W + Sync,
        F: Fn(&mut W, &I) -> O + Sync,
        R: Supervise<I, O>,
        J: Send,
    {
        let worker = || {
            // Built lazily: a worker that never receives a job never
            // pays for a workspace.
            let mut workspace: Option<W> = None;
            while let Some(job) = queue.pop() {
                let item = item_of(&job);
                let ws = workspace.get_or_insert_with(&self.build);
                let outcome = match catch_unwind(AssertUnwindSafe(|| (self.classify)(ws, item))) {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        // The panic may have left the workspace
                        // mid-mutation; discard it so the next job
                        // starts from a freshly built one.
                        workspace = None;
                        match self.recover.recover(item, panic_text(payload.as_ref())) {
                            Some(outcome) => outcome,
                            None => resume_unwind(payload),
                        }
                    }
                };
                deliver(job, outcome);
            }
        };
        let clean = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let here = catch_unwind(AssertUnwindSafe(worker)).is_ok();
            helpers.into_iter().fold(here, |clean, h| h.join().is_ok() && clean)
        });
        assert!(clean, "campaign worker panicked");
    }
}

/// Classify every item in parallel, preserving order.
///
/// The stateless special case of [`Campaign`]: `classify` must be pure per
/// item (each call gets its own state). Passing `threads == 0` uses the
/// machine's available parallelism.
pub fn run_parallel<I, O, F>(items: &[I], threads: usize, classify: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    Campaign::new(|| (), |(): &mut (), m: &I| classify(m))
        .with_threads(threads)
        .run(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{make_mutant, MutationSite, SiteKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn mutants(n: usize) -> Vec<Mutant> {
        let src = "x".repeat(n.max(1));
        let sites: Vec<MutationSite> = (0..n)
            .map(|i| MutationSite {
                pos: i,
                len: 1,
                line: 1,
                kind: SiteKind::Literal,
                original: "x".into(),
            })
            .collect();
        (0..n).map(|i| make_mutant(&src, &sites, i, "y".into())).collect()
    }

    #[test]
    fn sample_is_deterministic() {
        let a = sample(mutants(100), 0.25, 42);
        let b = sample(mutants(100), 0.25, 42);
        assert_eq!(a.len(), 25);
        let ka: Vec<usize> = a.iter().map(|m| m.site).collect();
        let kb: Vec<usize> = b.iter().map(|m| m.site).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<usize> = sample(mutants(100), 0.25, 1).iter().map(|m| m.site).collect();
        let b: Vec<usize> = sample(mutants(100), 0.25, 2).iter().map(|m| m.site).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn sample_full_and_empty() {
        assert_eq!(sample(mutants(10), 1.0, 7).len(), 10);
        assert_eq!(sample(mutants(10), 0.0, 7).len(), 0);
        assert_eq!(sample(mutants(0), 0.5, 7).len(), 0);
    }

    #[test]
    fn sample_fraction_above_one_keeps_everything_in_order() {
        for fraction in [1.0, 1.5, 100.0, f64::INFINITY] {
            let s = sample(mutants(10), fraction, 7);
            let sites: Vec<usize> = s.iter().map(|m| m.site).collect();
            assert_eq!(sites, (0..10).collect::<Vec<_>>(), "fraction {fraction}");
        }
    }

    #[test]
    fn sample_nan_and_negative_keep_nothing() {
        assert!(sample(mutants(10), f64::NAN, 7).is_empty());
        assert!(sample(mutants(10), -0.5, 7).is_empty());
        assert!(sample(mutants(10), f64::NEG_INFINITY, 7).is_empty());
    }

    #[test]
    fn sample_preserves_order() {
        let s = sample(mutants(50), 0.5, 3);
        let sites: Vec<usize> = s.iter().map(|m| m.site).collect();
        let mut sorted = sites.clone();
        sorted.sort_unstable();
        assert_eq!(sites, sorted);
    }

    #[test]
    fn parallel_matches_serial() {
        let ms = mutants(64);
        let serial = run_parallel(&ms, 1, |m| m.site * 2);
        let parallel = run_parallel(&ms, 8, |m| m.site * 2);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        assert!(effective_threads(0) >= 1);
        let ms = mutants(16);
        let auto = run_parallel(&ms, 0, |m| m.site + 1);
        let serial = run_parallel(&ms, 1, |m| m.site + 1);
        assert_eq!(auto, serial);
    }

    #[test]
    fn parallel_handles_empty() {
        let out: Vec<usize> = run_parallel(&[], 4, |m: &Mutant| m.site);
        assert!(out.is_empty());
    }

    #[test]
    fn campaign_builds_one_workspace_per_worker() {
        let builds = AtomicUsize::new(0);
        let ms = mutants(64);
        let out = Campaign::new(
            || {
                builds.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |runs: &mut u64, m: &Mutant| {
                *runs += 1;
                m.site
            },
        )
        .with_threads(4)
        .run(&ms);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let built = builds.load(Ordering::Relaxed);
        assert!(built <= 4, "one workspace per worker, got {built}");
        assert!(built >= 1);
    }

    #[test]
    fn campaign_skips_workspace_build_when_empty() {
        let builds = AtomicUsize::new(0);
        let out: Vec<usize> = Campaign::new(
            || {
                builds.fetch_add(1, Ordering::Relaxed);
            },
            |(): &mut (), m: &Mutant| m.site,
        )
        .run(&[]);
        assert!(out.is_empty());
        assert_eq!(builds.load(Ordering::Relaxed), 0, "no mutants, no workspace");
    }

    #[test]
    fn campaign_workers_share_captured_artifacts() {
        // The pattern the kernel's include cache uses: one immutable
        // artifact built before the campaign, borrowed by every worker.
        let shared: Vec<usize> = (0..100).collect();
        let ms = mutants(32);
        let out = Campaign::new(
            || (),
            |(): &mut (), m: &Mutant| shared[m.site],
        )
        .with_threads(4)
        .run(&ms);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn campaign_runs_over_arbitrary_item_types() {
        // The fault-attribution shape: items are seeds, not mutants.
        let seeds: Vec<u64> = (0..16).collect();
        let out = Campaign::new(
            || 0usize,
            |runs: &mut usize, seed: &u64| {
                *runs += 1;
                seed * 3
            },
        )
        .with_threads(4)
        .run(&seeds);
        assert_eq!(out, (0..16).map(|s| s * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_builds_at_most_one_workspace_per_item() {
        let builds = AtomicUsize::new(0);
        let ms = mutants(3);
        let out = Campaign::new(
            || {
                builds.fetch_add(1, Ordering::Relaxed);
            },
            |(): &mut (), m: &Mutant| m.site,
        )
        .with_threads(64)
        .run(&ms);
        assert_eq!(out, vec![0, 1, 2]);
        let built = builds.load(Ordering::Relaxed);
        assert!(built <= 3, "worker count must be clamped to the item count, built {built}");
    }

    #[test]
    fn order_is_preserved_under_skewed_per_item_cost() {
        // Early items are the slowest, so a worker that grabs item 0
        // finishes long after the workers racing through the tail —
        // results must still come back in submission order.
        let ms = mutants(24);
        let out = Campaign::new(
            || (),
            |(): &mut (), m: &Mutant| {
                if m.site < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(15));
                }
                m.site
            },
        )
        .with_threads(8)
        .run(&ms);
        assert_eq!(out, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_single_thread_matches_and_stays_on_caller() {
        let caller = std::thread::current().id();
        let ms = mutants(10);
        let out = run_parallel(&ms, 1, |m| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "threads=1 must run on the calling thread"
            );
            m.site * 7
        });
        assert_eq!(out, (0..10).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "campaign worker panicked")]
    fn worker_panic_aborts_the_campaign() {
        // Under the default Unsupervised policy a panicking classifier is
        // a harness bug: the campaign re-raises it on the calling thread
        // instead of returning partial results.
        let ms = mutants(16);
        let _ = Campaign::new(
            || (),
            |(): &mut (), m: &Mutant| {
                assert_ne!(m.site, 7, "classifier blew up");
                m.site
            },
        )
        .with_threads(4)
        .run(&ms);
    }

    #[test]
    fn supervised_panic_becomes_an_outcome() {
        // The "no single mutant can take down a campaign" guarantee: the
        // poison item gets the policy's substitute outcome, every other
        // item classifies normally, order is preserved.
        let ms = mutants(16);
        let out = Campaign::new(
            || (),
            |(): &mut (), m: &Mutant| {
                assert_ne!(m.site, 7, "classifier blew up");
                m.site
            },
        )
        .with_threads(4)
        .supervised(|m: &Mutant, panic_message: &str| {
            assert!(panic_message.contains("classifier blew up"), "{panic_message}");
            assert_eq!(m.site, 7);
            usize::MAX
        })
        .run(&ms);
        let want: Vec<usize> =
            (0..16).map(|i| if i == 7 { usize::MAX } else { i }).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn supervised_panic_discards_and_rebuilds_the_workspace() {
        // One worker, one poison item: the workspace alive when the panic
        // hit must never serve another item.
        let builds = AtomicUsize::new(0);
        let ms = mutants(8);
        let out = Campaign::new(
            || builds.fetch_add(1, Ordering::Relaxed),
            |ws: &mut usize, m: &Mutant| {
                if m.site == 3 {
                    panic!("poison");
                }
                *ws
            },
        )
        .with_threads(1)
        .supervised(|_: &Mutant, _: &str| usize::MAX)
        .run(&ms);
        // Items 0-2 ran on workspace 0, item 3 poisoned it, items 4-7 ran
        // on the rebuilt workspace 1.
        assert_eq!(out, vec![0, 0, 0, usize::MAX, 1, 1, 1, 1]);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn supervised_run_queue_delivers_substitute_outcomes() {
        use crate::queue::JobQueue;
        use std::sync::Mutex;

        let queue: JobQueue<usize> = JobQueue::bounded(64);
        for i in 0..32 {
            queue.push(i).unwrap();
        }
        queue.close();
        let delivered: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        Campaign::new(
            || (),
            |(): &mut (), i: &usize| {
                if i % 10 == 3 {
                    panic!("poison job {i}");
                }
                i * 2
            },
        )
        .with_threads(4)
        .supervised(|i: &usize, msg: &str| {
            assert!(msg.contains(&format!("poison job {i}")));
            usize::MAX
        })
        .run_queue(&queue, |item, out| delivered.lock().unwrap().push((item, out)));
        let mut got = delivered.into_inner().unwrap();
        got.sort_unstable();
        let want: Vec<(usize, usize)> = (0..32)
            .map(|i| (i, if i % 10 == 3 { usize::MAX } else { i * 2 }))
            .collect();
        assert_eq!(got, want, "every accepted job delivered, poisons substituted");
    }

    #[test]
    fn supervision_reports_non_string_payloads() {
        let ms = mutants(1);
        let out = Campaign::new(
            || (),
            |(): &mut (), _: &Mutant| -> usize { std::panic::panic_any(42i32) },
        )
        .with_threads(1)
        .supervised(|_: &Mutant, msg: &str| {
            assert_eq!(msg, "non-string panic payload");
            7usize
        })
        .run(&ms);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn run_queue_delivers_everything_and_respects_shedding() {
        use crate::queue::JobQueue;
        use std::sync::Mutex;

        let queue: JobQueue<usize> = JobQueue::bounded(64);
        let mut shed = 0usize;
        for i in 0..80 {
            if queue.push(i).is_err() {
                shed += 1;
            }
        }
        assert_eq!(shed, 16, "pushes beyond capacity shed");
        queue.close();
        let delivered: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        Campaign::new(|| 0u64, |runs: &mut u64, i: &usize| {
            *runs += 1;
            i * 2
        })
        .with_threads(4)
        .run_queue(&queue, |item, out| delivered.lock().unwrap().push((item, out)));
        let mut got = delivered.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..64).map(|i| (i, i * 2)).collect::<Vec<_>>());
        let stats = queue.stats();
        assert_eq!(stats.accepted, 64);
        assert_eq!(stats.shed, 16);
        assert_eq!(stats.depth, 0);
    }

    #[test]
    fn run_queue_workers_drain_items_pushed_while_running() {
        use crate::queue::JobQueue;
        use std::sync::atomic::AtomicUsize;

        let queue: JobQueue<usize> = JobQueue::bounded(8);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let queue = &queue;
            let done = &done;
            scope.spawn(move || {
                for i in 0..40 {
                    // The bounded queue may shed under this deliberately
                    // bursty producer; retry until accepted so the tally
                    // below is exact.
                    let mut item = i;
                    while let Err(back) = queue.push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
                queue.close();
            });
            Campaign::new(|| (), |(): &mut (), i: &usize| *i)
                .with_threads(2)
                .run_queue(queue, |_, _| {
                    done.fetch_add(1, Ordering::Relaxed);
                });
        });
        assert_eq!(done.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn run_memoized_serves_hits_and_checkpoints_misses() {
        use crate::ledger::{Ledger, LedgerKey};
        let path = std::env::temp_dir()
            .join(format!("devil-campaign-memo-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let key_of = |m: &Mutant| LedgerKey {
            file: "f.c".into(),
            source: m.site as u64,
            scenario: "s".into(),
            plan: "none".into(),
            plan_seed: 0,
            dead_line: 0,
            spec_rev: 1,
        };
        let encode = |o: &usize| Some((*o as u8, String::new()));
        let decode = |code: u8, _: &str| Some(code as usize);
        let ms = mutants(16);
        let want: Vec<usize> = (0..16).collect();

        let first = AtomicUsize::new(0);
        {
            let ledger = Ledger::create(&path, 1).unwrap();
            let out = Campaign::new(
                || (),
                |(): &mut (), m: &Mutant| {
                    first.fetch_add(1, Ordering::Relaxed);
                    m.site
                },
            )
            .with_threads(4)
            .run_memoized(&ms, &ledger, key_of, encode, decode);
            assert_eq!(out, want);
            assert_eq!(first.load(Ordering::Relaxed), 16, "cold ledger classifies all");
            let c = ledger.counters();
            assert_eq!((c.hits, c.misses, c.appended), (0, 16, 16));
        }

        let second = AtomicUsize::new(0);
        let ledger = Ledger::resume(&path, 1).unwrap();
        let out = Campaign::new(
            || (),
            |(): &mut (), m: &Mutant| {
                second.fetch_add(1, Ordering::Relaxed);
                m.site
            },
        )
        .with_threads(4)
        .run_memoized(&ms, &ledger, key_of, encode, decode);
        assert_eq!(out, want, "memoized run bit-identical");
        assert_eq!(second.load(Ordering::Relaxed), 0, "warm ledger classifies none");
        let c = ledger.counters();
        assert_eq!((c.hits, c.misses, c.appended), (16, 0, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_memoized_skips_non_deterministic_and_unknown_codes() {
        use crate::ledger::{Ledger, LedgerKey};
        let path = std::env::temp_dir()
            .join(format!("devil-campaign-memo-skip-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let key_of = |m: &Mutant| LedgerKey {
            file: "f.c".into(),
            source: m.site as u64,
            scenario: "s".into(),
            plan: "none".into(),
            plan_seed: 0,
            dead_line: 0,
            spec_rev: 1,
        };
        let ms = mutants(8);
        let ledger = Ledger::create(&path, 1).unwrap();
        // Odd outcomes are "non-deterministic": never persisted.
        let encode =
            |o: &usize| o.is_multiple_of(2).then(|| (*o as u8, String::new()));
        let out = Campaign::new(|| (), |(): &mut (), m: &Mutant| m.site)
            .with_threads(2)
            .run_memoized(&ms, &ledger, key_of, encode, |c: u8, _: &str| {
                Some(c as usize)
            });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(ledger.len(), 4, "only deterministic outcomes persisted");
        // A decoder that disowns every stored code forces re-classification.
        let reruns = AtomicUsize::new(0);
        let out = Campaign::new(
            || (),
            |(): &mut (), m: &Mutant| {
                reruns.fetch_add(1, Ordering::Relaxed);
                m.site
            },
        )
        .with_threads(2)
        .run_memoized(&ms, &ledger, key_of, encode, |_: u8, _: &str| None::<usize>);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(reruns.load(Ordering::Relaxed), 8, "unknown codes are never trusted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn campaign_workspace_carries_state_across_mutants() {
        // Single worker: the workspace sees every mutant in order.
        let ms = mutants(8);
        let out = Campaign::new(Vec::new, |seen: &mut Vec<usize>, m: &Mutant| {
            seen.push(m.site);
            seen.len()
        })
        .with_threads(1)
        .run(&ms);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
    }
}
