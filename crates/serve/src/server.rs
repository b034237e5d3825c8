//! The campaign server: admission, classification, streaming.
//!
//! A long-running service built from the pieces the batch engine already
//! proved out, rearranged around a queue instead of a slice. Its threads
//! share one private `Service` (routes, job queue, quarantine, ledger,
//! counters, connection breakers); [`serve_with`] opens it and runs its
//! pieces in one `thread::scope`:
//!
//! * **open** — resume the outcome ledger, replay its strikes into the
//!   quarantine, and build one shared pre-lexed [`IncludeCache`] per
//!   driver file, warmed so every CDevil catalog mutant compiles only
//!   what follows the driver's header prefix (`STATS` counts the
//!   compiles that resumed and those that ran in full);
//! * **accept** — a reader and a writer thread per connection; replies
//!   stream back in completion order;
//! * **read and admit** — a valid submission first goes through the
//!   ledger's memo stage ([`Ledger::admit`]), which answers a recorded
//!   mutant on the spot, and the rest through one bounded [`JobQueue`]:
//!   a full queue sheds at once with a [`Response::Shed`], so the client
//!   always learns its request's fate;
//! * **work** — a [`Campaign`] fed by that queue (`Campaign::run_queue`),
//!   one workspace per worker holding one snapshot-reset
//!   [`ScenarioMachine`] per workload (scenario × fault plan × seed),
//!   built lazily. It classifies each job, turns a classify panic into a
//!   quarantine strike, and delivers the reply through the job's
//!   connection sender, settling its ledger ticket ([`Ledger::settle`]);
//! * **supervise** — carries out a drain (below);
//! * **stats** — the counters `STATS` reads live.
//!
//! Every wait in the lifecycle is on an event: a [`JobQueue`] pop (the
//! workers on jobs, the acceptor on connections) or the condvar behind
//! [`DrainHandle`], which also records when the acceptor and the workers
//! are done and how many writers are live. Only [`serve_tcp`]'s accept
//! back-off polls: std cannot interrupt a blocking `accept`.
//!
//! The outcomes are produced by exactly the same `run_cached` per-mutant
//! unit, worker pool and memo stage as the batch `Campaign` path — pinned
//! identical by the round-trip test — so "is this driver patch safe?"
//! answers the same whether asked as a table or as a service.
//!
//! # Surviving the hostile tail
//!
//! Three mechanisms keep one poisonous mutant from taking the service
//! down (the failure taxonomy is summarised in the [crate docs](crate)):
//!
//! * **supervision** — workers run under
//!   [`Campaign::supervised`]: a classify panic is caught, the worker's
//!   workspace (its cached machines) is discarded and rebuilt, and the
//!   job is answered with an `Outcome::EngineError` reply instead of
//!   taking the process down. A [`Quarantine`] ledger counts strikes per
//!   `(driver file, source fingerprint)` key; once a key reaches
//!   [`ServeConfig::quarantine_limit`] strikes, admission refuses it
//!   with an `ERR` reply rather than feeding it to another worker.
//! * **per-job deadlines** — a submission's `deadline_ms` starts a
//!   wall-clock budget at admission. A job still queued when its budget
//!   lapses is shed with an `EXPIRED` reply without paying for a run; a
//!   running job carries a cooperative [`Deadline`] into the engine and
//!   classifies as `Outcome::Deadline` on overrun. Deadline probes never
//!   touch fuel or coverage accounting, so in-time runs stay
//!   bit-identical with the batch path.
//! * **graceful drain** — a `DRAIN` request (or [`DrainHandle::drain`],
//!   which the binary wires to SIGTERM/SIGINT) stops admissions, lets
//!   queued work finish, force-sheds whatever is still queued once the
//!   drain deadline passes, and severs connections only after every
//!   pending reply has been flushed: zero lost replies.

use crate::proto::{
    read_frame, write_frame, QuarantinedPair, Request, Response, ServiceStats, SubmitMutant,
};
use devil_drivers::corpus::{
    build_faulted, build_scenario, driver_headers, scenario_names, spec_revision,
};
use devil_hwsim::FaultPlan;
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{Deadline, Scenario, ScenarioMachine};
use devil_kernel::Outcome;
use devil_minic::pp::IncludeCache;
use devil_mutagen::{
    effective_threads, panic_text, source_fingerprint, Admission, Campaign, JobQueue, Ledger,
    LedgerKey, Quarantine, Ticket,
};
use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// How long the drain supervisor waits for writer threads to flush their
/// last replies before severing connections outright.
const WRITER_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// The lifecycle and breaker locks guard only updates that cannot panic.
const POISONED: &str = "a server thread panicked holding a lifecycle lock";

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Admission-queue capacity: the maximum classification backlog
    /// before submissions shed. The queue depth the operator allows is
    /// the tail-latency budget they accept.
    pub queue_cap: usize,
    /// Engine fuel per mutant run.
    pub fuel: u64,
    /// Engine-failure strikes before a `(driver file, source)` pair is
    /// refused at admission; 0 disables quarantining.
    pub quarantine_limit: u32,
    /// Default force-shed deadline for transport-level drains (the
    /// binary's SIGTERM path); protocol `DRAIN` requests carry their
    /// own. `None` lets the backlog run to completion.
    pub drain_grace: Option<Duration>,
    /// Path of the crash-safe outcome ledger
    /// ([`devil_mutagen::Ledger`]). `None` runs the service without
    /// memoization or durable quarantine — every restart starts cold.
    /// With a path, the server `Ledger::resume`s it at startup:
    /// previously classified mutants answer at admission without
    /// touching the job queue, and quarantine strikes survive restarts.
    pub ledger: Option<PathBuf>,
    /// Fraction (0.0..=1.0) of ledger hits that are *verified*: instead
    /// of answering from the ledger, the job runs on the live engine and
    /// the fresh outcome is compared against the recorded one. A
    /// divergence means the ledger entry is corrupt (or the engine
    /// changed without a spec-revision bump): the entry is evicted, the
    /// fresh outcome recorded and returned, and `ledger_diverged`
    /// counts it. The sample is deterministic per key, so the same
    /// mutants are always the ones audited.
    pub verify_fraction: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue_cap: 1024,
            fuel: DEFAULT_FUEL,
            quarantine_limit: 3,
            drain_grace: Some(Duration::from_secs(10)),
            ledger: None,
            verify_fraction: 0.0,
        }
    }
}

/// Severs a live connection from outside the threads that own its
/// halves — the drain supervisor's cutoff lever.
pub trait ConnBreaker: Send + 'static {
    /// Close the server's read direction: a parked reader observes EOF
    /// (already-buffered requests still drain first).
    fn break_read(&self);
    /// Close both directions unconditionally.
    fn break_both(&self);
}

/// A byte stream the server (or the load client) can split into
/// independently owned read/write halves — TCP sockets and in-process
/// [`pipe`](crate::pipe) endpoints both qualify.
pub trait Duplex: Send + 'static {
    /// The owned read half.
    type Reader: Read + Send + 'static;
    /// The owned write half; dropping it must close the direction so the
    /// peer observes EOF (TCP half-close semantics).
    type Writer: Write + Send + 'static;
    /// The out-of-band severing handle for the drain path.
    type Breaker: ConnBreaker;
    /// Split into the two halves plus the breaker.
    fn split(self) -> io::Result<(Self::Reader, Self::Writer, Self::Breaker)>;
}

/// The write half of a [`TcpStream`]: shuts the write direction down on
/// drop so the peer sees EOF, mirroring the in-process pipe.
#[derive(Debug)]
pub struct TcpWriteHalf(TcpStream);

impl Write for TcpWriteHalf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.write(data)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Drop for TcpWriteHalf {
    fn drop(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Write);
    }
}

/// [`ConnBreaker`] for TCP: `shutdown` on any clone severs the socket
/// for every half.
#[derive(Debug)]
pub struct TcpBreaker(TcpStream);

impl ConnBreaker for TcpBreaker {
    fn break_read(&self) {
        let _ = self.0.shutdown(std::net::Shutdown::Read);
    }
    fn break_both(&self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

impl Duplex for TcpStream {
    type Reader = TcpStream;
    type Writer = TcpWriteHalf;
    type Breaker = TcpBreaker;
    fn split(self) -> io::Result<(TcpStream, TcpWriteHalf, TcpBreaker)> {
        let reader = self.try_clone()?;
        let breaker = TcpBreaker(self.try_clone()?);
        Ok((reader, TcpWriteHalf(self), breaker))
    }
}

/// The service lifecycle behind a [`DrainHandle`]: readers trigger and
/// observe a drain, the acceptor, the workers and the writers report
/// their progress, and the drain supervisor waits on it. Every change
/// notifies.
#[derive(Debug, Default)]
struct DrainControl {
    state: Mutex<DrainState>,
    wake: Condvar,
}

#[derive(Debug, Default, Clone, Copy)]
struct DrainState {
    requested: bool,
    deadline: Option<Instant>,
    /// The acceptor has registered every connection it will serve.
    acceptor_done: bool,
    /// The job queue is closed and drained, and every worker has exited.
    workers_done: bool,
    /// Writer threads still streaming replies.
    writers: usize,
}

/// External drain trigger for a running [`serve_with`] call: cloneable,
/// so a signal-watcher thread can hold one while the server blocks. One
/// handle serves one server: it also carries that server's lifecycle, so
/// a handle is not reused once its server has returned.
#[derive(Debug, Clone, Default)]
pub struct DrainHandle {
    ctl: Arc<DrainControl>,
}

impl DrainHandle {
    /// A fresh handle, to be passed to [`serve_with`] or [`serve_tcp`].
    pub fn new() -> DrainHandle {
        DrainHandle::default()
    }

    /// Request a graceful drain: stop admitting, let queued work finish,
    /// force-shed whatever is still queued once `grace` elapses (`None`
    /// lets the backlog run to completion), then hang up every
    /// connection once all replies are flushed.
    pub fn drain(&self, grace: Option<Duration>) {
        self.update(|st| {
            // First request wins: a later, laxer grace must not extend a
            // drain already under way.
            if !st.requested {
                st.requested = true;
                st.deadline = grace.map(|g| Instant::now() + g);
            }
        });
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.ctl.state.lock().expect(POISONED).requested
    }

    /// Apply `change` to the lifecycle state and wake every waiter.
    fn update(&self, change: impl FnOnce(&mut DrainState)) {
        change(&mut self.ctl.state.lock().expect(POISONED));
        self.ctl.wake.notify_all();
    }

    /// Block until `done` holds, or until `until` passes; returns the
    /// state at that moment.
    fn wait(&self, until: Option<Instant>, done: impl Fn(&DrainState) -> bool) -> DrainState {
        let st = self.ctl.state.lock().expect(POISONED);
        let st = match until {
            None => self.ctl.wake.wait_while(st, |st| !done(st)).expect(POISONED),
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                self.ctl.wake.wait_timeout_while(st, left, |st| !done(st)).expect(POISONED).0
            }
        };
        *st
    }
}

/// Request routing, built once per server from the driver catalog: one
/// shared pre-lexed include cache per driver file.
struct Routes {
    caches: HashMap<&'static str, Arc<IncludeCache>>,
}

impl Routes {
    /// Build the caches and compile each catalog driver that includes
    /// headers once through its own, so the cache's front-end checkpoint
    /// is the catalog driver's prefix before any client can pin another.
    /// (A cache without headers never records a checkpoint.)
    fn build() -> Routes {
        let mut caches = HashMap::new();
        for case in devil_drivers::corpus::scenario_catalog() {
            for v in &case.drivers {
                caches.entry(v.file).or_insert_with(|| {
                    let headers =
                        driver_headers(v.file).expect("catalog file resolves");
                    let refs: Vec<(&str, &str)> = headers
                        .iter()
                        .map(|(a, b)| (a.as_str(), b.as_str()))
                        .collect();
                    let cache = IncludeCache::new(&refs);
                    if !refs.is_empty() {
                        // Only the checkpoint is wanted; a catalog driver compiles.
                        let _ = devil_minic::compile_with_cache(v.file, v.source, &cache);
                    }
                    Arc::new(cache)
                });
            }
        }
        Routes { caches }
    }

    /// Compiles through the drivers' caches that resumed preprocessing
    /// from a checkpoint, and compiles that ran every stage in full.
    fn front_end_counts(&self) -> (u64, u64) {
        self.caches
            .values()
            .map(|c| c.resume_stats())
            .fold((0, 0), |(resumed, full), s| (resumed + s.pp, full + s.full()))
    }

    /// Validate a submission's routing fields; `Err` is the message for a
    /// [`Response::Err`] reply.
    fn validate(&self, s: &SubmitMutant) -> Result<(), String> {
        if !scenario_names().contains(&s.scenario.as_str()) {
            return Err(format!(
                "unknown scenario `{}`; available: {}",
                s.scenario,
                scenario_names().join(", ")
            ));
        }
        if !s.plan.is_empty() && FaultPlan::named(&s.plan, s.plan_seed).is_none() {
            return Err(format!(
                "unknown fault plan `{}`; available: {}",
                s.plan,
                FaultPlan::plan_names().join(", ")
            ));
        }
        if !self.caches.contains_key(s.file.as_str()) {
            return Err(format!("unknown driver file `{}`", s.file));
        }
        Ok(())
    }

    fn cache_for(&self, file: &str) -> &IncludeCache {
        self.caches.get(file).expect("validated at admission")
    }
}

/// One admitted unit of work: the validated submission, its wall-clock
/// expiry (admission time + `deadline_ms`), the sender of the
/// submitting connection's response channel — the routing state that
/// brings the outcome home — plus, when the server keeps a ledger, the
/// ticket [`Ledger::admit`] issued for it.
struct Job {
    req: SubmitMutant,
    expires_at: Option<Instant>,
    resp: mpsc::Sender<Vec<u8>>,
    memo: Option<Ticket>,
}

/// The quarantine key: which driver file, which exact mutant source
/// (the same `(file, fingerprint)` pair the ledger's strike records
/// persist — one identity, in memory and on disk).
type JobKey = (String, u64);

fn job_key(req: &SubmitMutant) -> JobKey {
    (req.file.clone(), source_fingerprint(&req.source))
}

/// A worker's workspace: one snapshot-reset machine per workload it has
/// seen, built lazily (a worker that only ever receives `mouse-stream`
/// jobs never builds an IDE machine).
type Workload = (String, String, u64);
type Workspace = HashMap<Workload, ScenarioMachine<Box<dyn Scenario + Send>>>;

fn build_machine(req: &SubmitMutant, fuel: u64) -> ScenarioMachine<Box<dyn Scenario + Send>> {
    let scenario = if req.plan.is_empty() {
        build_scenario(&req.scenario)
    } else {
        let plan = FaultPlan::named(&req.plan, req.plan_seed)
            .expect("plan validated at admission");
        build_faulted(&req.scenario, plan)
    };
    ScenarioMachine::with_scenario(scenario.expect("scenario validated at admission"), fuel)
}

/// What the service's threads share; each piece is one method, run on
/// its own thread of [`serve_with`]'s scope.
struct Service<'a> {
    config: &'a ServeConfig,
    workers: usize,
    routes: Routes,
    jobs: JobQueue<Job>,
    quarantine: Quarantine<JobKey>,
    ledger: Option<Ledger>,
    /// Every accepted connection's breaker. The acceptor registers each
    /// one before it reports done, and the supervisor severs only after
    /// that, so none arrives after the cutoff.
    breakers: Mutex<Vec<Box<dyn ConnBreaker>>>,
    completed: AtomicU64,
    expired: AtomicU64,
    forced_shed: AtomicU64,
    drain: &'a DrainHandle,
}

/// Serve connections popped from `conns` until the queue is closed and
/// the last connection hangs up, or until `drain` is pulled (externally
/// or by a protocol `DRAIN` request, which also closes `conns`); returns
/// the final counter snapshot.
///
/// This is the transport-agnostic core: the `devil-serve` binary feeds it
/// TCP accepts, tests and benches feed it in-process pipe ends. Blocks
/// the calling thread for the life of the service. One `drain` handle
/// serves one call.
pub fn serve_with<S: Duplex>(
    config: &ServeConfig,
    conns: &JobQueue<S>,
    drain: &DrainHandle,
) -> ServiceStats {
    let service = Service::open(config, drain);
    std::thread::scope(|scope| {
        let service = &service;
        scope.spawn(move || service.accept(scope, conns));
        scope.spawn(move || service.supervise(conns));
        service.work();
    });
    service.stats()
}

impl<'a> Service<'a> {
    /// Open: build the routes, then the durable side — resume (or create)
    /// the outcome ledger, then replay its strike records into the
    /// in-memory quarantine so a restarted server refuses known-poison
    /// mutants before the first worker panic. An unopenable path is a
    /// config error and fails loudly; a *corrupt* ledger file never does
    /// — `Ledger::resume` truncates a torn tail and carries on.
    fn open(config: &'a ServeConfig, drain: &'a DrainHandle) -> Service<'a> {
        let routes = Routes::build();
        let quarantine = Quarantine::new();
        let ledger = config.ledger.as_ref().map(|path| {
            let rev = spec_revision(config.fuel);
            Ledger::resume(path, rev).unwrap_or_else(|e| {
                panic!("cannot open ledger {}: {e}", path.display())
            })
        });
        if let Some(l) = ledger.as_ref() {
            for ((file, fp), strikes) in l.strike_counts() {
                quarantine.load((file, fp), strikes);
            }
        }
        Service {
            config,
            workers: effective_threads(config.threads),
            routes,
            jobs: JobQueue::bounded(config.queue_cap),
            quarantine,
            ledger,
            breakers: Mutex::default(),
            completed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            forced_shed: AtomicU64::new(0),
            drain,
        }
    }

    /// Accept: give each connection popped from `conns` a writer and a
    /// reader thread, until a drain or the transport closes the queue —
    /// connections already waiting in it are still served, so every
    /// frame they wrote gets an explicit reply (`DRAINING` for
    /// submissions). Once no more work can arrive — the last reader has
    /// hung up — close the job queue so the workers drain and exit.
    fn accept<'s, S: Duplex>(&'s self, scope: &'s Scope<'s, '_>, conns: &JobQueue<S>) {
        let mut readers = Vec::new();
        while let Some(stream) = conns.pop() {
            let Ok((r, w, breaker)) = stream.split() else { continue };
            self.breakers.lock().expect(POISONED).push(Box::new(breaker));
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            self.drain.update(|st| st.writers += 1);
            scope.spawn(move || self.write(w, rx));
            readers.push(scope.spawn(move || self.read(r, tx)));
        }
        self.drain.update(|st| st.acceptor_done = true);
        for r in readers {
            let _ = r.join();
        }
        self.jobs.close();
    }

    /// Write: stream pre-encoded frames until every sender — the reader
    /// and any in-flight jobs — is gone.
    fn write(&self, w: impl Write, rx: mpsc::Receiver<Vec<u8>>) {
        let mut w = BufWriter::new(w);
        for frame in rx.iter() {
            if write_frame(&mut w, &frame).is_err() {
                break;
            }
            let _ = w.flush();
        }
        self.drain.update(|st| st.writers -= 1);
    }

    /// Read: answer `STATS` and `DRAIN` in place and put each submission
    /// through admission, until the peer hangs up, sends an undecodable
    /// frame, or the drain severs the read side.
    fn read(&self, mut r: impl Read, tx: mpsc::Sender<Vec<u8>>) {
        while let Ok(Some(payload)) = read_frame(&mut r) {
            let Ok(req) = Request::decode(&payload) else { break };
            let rep = match req {
                Request::Stats { req_id } => Response::Stats { req_id, stats: self.stats() },
                Request::Drain { req_id, grace_ms } => {
                    // grace 0 means no force-shed deadline: the backlog
                    // runs to completion.
                    let grace =
                        (grace_ms != 0).then(|| Duration::from_millis(u64::from(grace_ms)));
                    self.drain.drain(grace);
                    Response::Draining { req_id }
                }
                Request::Submit(s) => match self.admit(s, &tx) {
                    Some(rep) => rep,
                    None => continue,
                },
            };
            let _ = tx.send(rep.encode());
        }
    }

    /// Admit one submission: turn it away (draining, bad routing,
    /// quarantined), answer it from the ledger, or queue it as a job that
    /// replies through `tx` — shed at once when the queue is full.
    /// Returns the reply to send now, or `None` once the job is queued.
    fn admit(&self, s: SubmitMutant, tx: &mpsc::Sender<Vec<u8>>) -> Option<Response> {
        let req_id = s.req_id;
        if self.drain.is_draining() {
            return Some(Response::Draining { req_id });
        }
        if let Err(message) = self.routes.validate(&s) {
            return Some(Response::Err { req_id, message });
        }
        let key = job_key(&s);
        if self.quarantine.is_quarantined(&key, self.config.quarantine_limit) {
            let message = format!(
                "quarantined after {} engine failure(s) for this (file, source) pair",
                self.quarantine.strikes(&key)
            );
            return Some(Response::Err { req_id, message });
        }
        // Memoized admission: a ledger hit is answered here, O(1),
        // without entering the job queue; a job that runs carries its
        // ticket to delivery.
        let mut memo = None;
        if let Some(l) = self.ledger.as_ref() {
            let key = LedgerKey::new(
                &s.file,
                &s.source,
                &s.scenario,
                &s.plan,
                s.plan_seed,
                s.dead_line,
                l.spec_rev(),
            );
            let decode = |code, detail: &str| {
                Some(Response::Outcome {
                    req_id,
                    outcome: Outcome::from_code(code)?,
                    detail: detail.to_string(),
                })
            };
            match l.admit(key, self.config.verify_fraction, decode) {
                Admission::Hit(rep) => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    return Some(rep);
                }
                Admission::Run(ticket) => memo = Some(ticket),
            }
        }
        let expires_at = (s.deadline_ms != 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(s.deadline_ms)));
        let job = Job { req: s, expires_at, resp: tx.clone(), memo };
        self.jobs.push(job).err().map(|_| Response::Shed { req_id })
    }

    /// Work: the queue-fed campaign under supervision — a classify panic
    /// becomes an EngineError reply plus a quarantine strike, never a
    /// dead service. Runs on the calling thread until the job queue is
    /// closed and drained, then reports the workers done.
    fn work(&self) {
        Campaign::new(HashMap::new, |ws: &mut Workspace, job: &Job| self.classify(ws, job))
            .supervised(|job: &Job, panic_message: &str| self.strike(job, panic_message))
            .with_threads(self.workers)
            .run_queue(&self.jobs, |job: Job, rep: Response| self.deliver(job, rep));
        self.drain.update(|st| st.workers_done = true);
    }

    /// Classify one job on the worker's machine for its workload — or
    /// shed it without paying for a run if it expired while queued.
    fn classify(&self, ws: &mut Workspace, job: &Job) -> Response {
        // Unit tests drive supervision through a classify that panics on
        // a marker.
        #[cfg(test)]
        tests::panic_on_chaos_marker(&job.req.source);
        if job.expires_at.is_some_and(|at| Instant::now() >= at) {
            return Response::Expired { req_id: job.req.req_id };
        }
        let key = (job.req.scenario.clone(), job.req.plan.clone(), job.req.plan_seed);
        let machine = ws.entry(key).or_insert_with(|| build_machine(&job.req, self.config.fuel));
        let dead = (job.req.dead_line != 0).then_some(job.req.dead_line);
        let (outcome, detail) = machine.run_cached(
            &job.req.file,
            &job.req.source,
            self.routes.cache_for(&job.req.file),
            dead,
            job.expires_at.map(Deadline::at),
        );
        Response::Outcome { req_id: job.req.req_id, outcome, detail: detail.into_owned() }
    }

    /// Strike: a classify panic becomes an EngineError reply and one
    /// quarantine strike for the job's `(file, source)` pair.
    fn strike(&self, job: &Job, panic_message: &str) -> Response {
        let key = job_key(&job.req);
        // Persist the strike before counting it in memory: a crash
        // between the two loses an in-memory count, never a durable
        // one, so a restarted server can only be *stricter*.
        if let Some(l) = self.ledger.as_ref() {
            let _ = l.record_strike(&key.0, key.1);
        }
        self.quarantine.record(key);
        Response::Outcome {
            req_id: job.req.req_id,
            outcome: Outcome::EngineError,
            detail: format!("classify panicked: {panic_message}"),
        }
    }

    /// Deliver: count the reply, settle the job's ledger ticket, and send
    /// the reply to the job's connection.
    fn deliver(&self, job: Job, rep: Response) {
        let expired = matches!(rep, Response::Expired { .. });
        let counter = if expired { &self.expired } else { &self.completed };
        counter.fetch_add(1, Ordering::Relaxed);
        if let (Response::Outcome { outcome, detail, .. }, Some(l), Some(ticket)) =
            (&rep, self.ledger.as_ref(), job.memo.as_ref())
        {
            // EngineError and Deadline are environmental, not properties
            // of the mutant: never memoized.
            let fresh = outcome.is_deterministic().then(|| (outcome.code(), detail.as_str()));
            l.settle(ticket, fresh);
        }
        let _ = job.resp.send(rep.encode());
    }

    /// Supervise the drain: parked until a drain is requested (or the
    /// workers wind down naturally). On drain: stop taking connections
    /// and jobs, let the workers finish the backlog — force-shedding
    /// whatever is still queued once the drain deadline passes — then,
    /// once the acceptor has registered every connection it will serve,
    /// sever the read sides so idle readers wind down, give the writers a
    /// flush grace, and cut whatever is left.
    fn supervise<S>(&self, conns: &JobQueue<S>) {
        let st = self.drain.wait(None, |st| st.requested || st.workers_done);
        if !st.requested {
            return;
        }
        conns.close();
        self.jobs.close();
        if !self.drain.wait(st.deadline, |st| st.workers_done).workers_done {
            // The grace lapsed. The job queue is closed, so nothing can
            // enter it after this sweep.
            while let Some(job) = self.jobs.try_pop() {
                self.forced_shed.fetch_add(1, Ordering::SeqCst);
                let _ = job.resp.send(Response::Shed { req_id: job.req.req_id }.encode());
            }
        }
        // Every job now has its reply sent (or in a writer's channel),
        // and every connection is registered. EOF the readers; the
        // writers flush and exit as their senders drop.
        self.drain.wait(None, |st| st.workers_done && st.acceptor_done);
        self.sever(|b| b.break_read());
        let cutoff = Instant::now() + WRITER_FLUSH_GRACE;
        self.drain.wait(Some(cutoff), |st| st.writers == 0);
        self.sever(|b| b.break_both());
    }

    fn sever(&self, cut: impl Fn(&dyn ConnBreaker)) {
        for b in self.breakers.lock().expect(POISONED).iter() {
            cut(b.as_ref());
        }
    }

    /// Stats: a snapshot of the counters, as `STATS` reports them.
    fn stats(&self) -> ServiceStats {
        let q = self.jobs.stats();
        let lc = self.ledger.as_ref().map(Ledger::counters).unwrap_or_default();
        let (compiles_resumed, compiles_full) = self.routes.front_end_counts();
        let limit = self.config.quarantine_limit;
        let mut offenders = self.quarantine.counts();
        offenders.sort();
        let quarantined = offenders
            .into_iter()
            .filter(|&(_, strikes)| limit != 0 && strikes >= limit)
            .map(|((file, fingerprint), strikes)| QuarantinedPair { file, fingerprint, strikes })
            .collect();
        ServiceStats {
            accepted: q.accepted,
            completed: self.completed.load(Ordering::Relaxed),
            shed: q.shed + self.forced_shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            depth: q.depth as u64,
            max_depth: q.max_depth as u64,
            workers: self.workers as u64,
            ledger_hits: lc.hits,
            ledger_misses: lc.misses,
            ledger_verified: lc.verified,
            ledger_diverged: lc.diverged,
            compiles_resumed,
            compiles_full,
            quarantined,
        }
    }
}

/// A server running on its own thread, handing out in-process
/// connections — the hermetic harness tests, benches and `selftest` use.
#[derive(Debug)]
pub struct InProcServer {
    /// The server thread holds the only strong reference, so the queue —
    /// with any connection still in it — goes when the server does.
    conns: Weak<JobQueue<crate::pipe::PipeEnd>>,
    drain: DrainHandle,
    join: std::thread::JoinHandle<ServiceStats>,
}

impl InProcServer {
    /// Start a server with `config` on a background thread.
    pub fn start(config: ServeConfig) -> InProcServer {
        // Unbounded: a connection is never shed, only refused once a
        // drain has closed the queue.
        let conns = Arc::new(JobQueue::bounded(usize::MAX));
        let drain = DrainHandle::new();
        let (weak, handle) = (Arc::downgrade(&conns), drain.clone());
        let join = std::thread::spawn(move || serve_with(&config, &conns, &handle));
        InProcServer { conns: weak, drain, join }
    }

    /// Open a new in-process connection to the server. A connection
    /// opened after a drain began is hung up at once (its reads see EOF).
    pub fn connect(&self) -> crate::pipe::PipeEnd {
        let (client, server) = crate::pipe::pipe();
        let conns = self.conns.upgrade().expect("server accepting");
        let _ = conns.push(server);
        client
    }

    /// Request a graceful drain (see [`DrainHandle::drain`]); returns
    /// immediately. Follow with [`InProcServer::shutdown`] to wait for
    /// the wind-down and collect the final counters.
    pub fn drain(&self, grace: Option<Duration>) {
        self.drain.drain(grace);
    }

    /// Stop accepting, wait for in-flight work to drain, and return the
    /// final counters. (Open connections finish first: the server only
    /// winds down when every client has hung up or a drain completes.)
    /// A crash of the server thread surfaces as `Err` with the panic
    /// message, not as a panic of the caller.
    pub fn shutdown(self) -> Result<ServiceStats, String> {
        if let Some(conns) = self.conns.upgrade() {
            conns.close();
        }
        self.join
            .join()
            .map_err(|payload| format!("server thread panicked: {}", panic_text(payload.as_ref())))
    }
}

/// Serve TCP connections accepted on `listener` until `drain` is pulled
/// or an accept fails hard; returns the final counters. The
/// transport-bound wrapper of [`serve_with`] used by the `devil-serve`
/// binary — the listener runs nonblocking so a drain request interrupts
/// the accept wait within ~25ms.
pub fn serve_tcp(
    config: &ServeConfig,
    listener: std::net::TcpListener,
    drain: &DrainHandle,
) -> ServiceStats {
    let conns = &JobQueue::bounded(usize::MAX);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _ = listener.set_nonblocking(true);
            while !drain.is_draining() {
                match listener.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_nonblocking(false);
                        if conns.push(s).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => break,
                }
            }
            conns.close();
        });
        serve_with(config, conns, drain)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_drivers::corpus::find_variant;

    /// The test-only chaos seam: a submission whose first line carries
    /// this marker makes the workers' classify step panic, which is how
    /// these tests drive supervision. It exists only in unit-test builds.
    const CHAOS_PANIC_MARKER: &str = "__devil_chaos_panic__";

    /// Panic when `source`'s first line carries [`CHAOS_PANIC_MARKER`].
    pub(super) fn panic_on_chaos_marker(source: &str) {
        if source.lines().next().is_some_and(|l| l.contains(CHAOS_PANIC_MARKER)) {
            panic!("classify panicked: chaos marker `{CHAOS_PANIC_MARKER}` tripped");
        }
    }

    /// The clean busmouse driver with a busy loop spliced into
    /// `bm_probe`: it spins until its fuel or its deadline runs out.
    fn busy_loop_driver(source: &str) -> String {
        let spun = source.replacen(
            "int bm_probe(void)\n{",
            "int bm_probe(void)\n{\n    int devil_spin;\n    \
             for (devil_spin = 0; devil_spin < 100000000; devil_spin++)\n        \
             mouse_dx = devil_spin;",
            1,
        );
        assert_ne!(spun, source, "busy-loop injection site must exist");
        spun
    }

    fn submit_mutant(
        req_id: u64,
        scenario: &str,
        plan: &str,
        file: &str,
        source: &str,
    ) -> SubmitMutant {
        SubmitMutant {
            req_id,
            scenario: scenario.into(),
            plan: plan.into(),
            plan_seed: devil_hwsim::DEFAULT_FAULT_SEED,
            file: file.into(),
            dead_line: 0,
            deadline_ms: 0,
            source: source.into(),
        }
    }

    fn submit(req_id: u64, scenario: &str, plan: &str, file: &str, source: &str) -> Request {
        Request::Submit(submit_mutant(req_id, scenario, plan, file, source))
    }

    #[test]
    fn clean_driver_round_trips_through_the_service() {
        let server = InProcServer::start(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        // A clean driver classifies Boot; the same one under the mixed
        // fault plan must never look like a detected driver bug.
        for (id, plan) in [(1u64, ""), (2u64, "mixed")] {
            let req = submit(id, "mouse-stream", plan, v.file, v.source);
            write_frame(&mut w, &req.encode()).unwrap();
        }
        write_frame(&mut w, &Request::Stats { req_id: 3 }.encode()).unwrap();
        drop(w);
        let mut outcomes = HashMap::new();
        let mut saw_stats = false;
        while let Some(payload) = read_frame(&mut r).unwrap() {
            match Response::decode(&payload).unwrap() {
                Response::Outcome { req_id, outcome, .. } => {
                    outcomes.insert(req_id, outcome);
                }
                Response::Stats { req_id, stats } => {
                    assert_eq!(req_id, 3);
                    assert_eq!(stats.workers, 2);
                    saw_stats = true;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(saw_stats);
        assert_eq!(outcomes[&1], Outcome::Boot);
        assert!(!outcomes[&2].is_detected(), "fault plan misattributed");
        let final_stats = server.shutdown().expect("server survives");
        assert_eq!(final_stats.accepted, 2);
        assert_eq!(final_stats.completed, 2);
        assert_eq!(final_stats.shed, 0);
        assert_eq!(final_stats.expired, 0);
    }

    #[test]
    fn bad_routing_answers_err_without_queueing() {
        let server = InProcServer::start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        let bad = [
            submit(1, "no-such-scenario", "", "busmouse.c", "int x;"),
            submit(2, "mouse-stream", "no-such-plan", "busmouse.c", "int x;"),
            submit(3, "mouse-stream", "", "no_such_file.c", "int x;"),
        ];
        for req in &bad {
            write_frame(&mut w, &req.encode()).unwrap();
        }
        drop(w);
        let mut errs = 0;
        while let Some(payload) = read_frame(&mut r).unwrap() {
            match Response::decode(&payload).unwrap() {
                Response::Err { req_id, message } => {
                    assert!((1..=3).contains(&req_id));
                    assert!(!message.is_empty());
                    errs += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(errs, 3);
        let stats = server.shutdown().expect("server survives");
        assert_eq!(stats.accepted, 0, "invalid requests never reach the queue");
    }

    #[test]
    fn chaos_panic_is_isolated_and_quarantined() {
        let server = InProcServer::start(ServeConfig {
            threads: 1,
            quarantine_limit: 2,
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        let poison = format!("// {CHAOS_PANIC_MARKER}\n{}", v.source);

        // Serialised submit/reply pairs so each strike lands before the
        // next admission check.
        let mut replies = Vec::new();
        for id in 1u64..=3 {
            let req = submit(id, "mouse-stream", "", v.file, &poison);
            write_frame(&mut w, &req.encode()).unwrap();
            let payload = read_frame(&mut r).unwrap().expect("reply per submit");
            replies.push(Response::decode(&payload).unwrap());
        }
        // Two strikes allowed: EngineError outcomes; the third submit is
        // refused at admission.
        for rep in &replies[..2] {
            match rep {
                Response::Outcome { outcome, detail, .. } => {
                    assert_eq!(*outcome, Outcome::EngineError);
                    assert!(detail.contains("classify panicked"), "{detail}");
                }
                other => panic!("expected EngineError outcome, got {other:?}"),
            }
        }
        match &replies[2] {
            Response::Err { message, .. } => {
                assert!(message.contains("quarantined"), "{message}");
            }
            other => panic!("expected quarantine refusal, got {other:?}"),
        }

        // The service survived and the rebuilt workspace still
        // classifies a healthy driver of the same workload.
        let req = submit(9, "mouse-stream", "", v.file, v.source);
        write_frame(&mut w, &req.encode()).unwrap();
        let payload = read_frame(&mut r).unwrap().expect("healthy reply");
        match Response::decode(&payload).unwrap() {
            Response::Outcome { req_id, outcome, .. } => {
                assert_eq!(req_id, 9);
                assert_eq!(outcome, Outcome::Boot);
            }
            other => panic!("unexpected response {other:?}"),
        }
        drop(w);
        while read_frame(&mut r).unwrap().is_some() {}
        let stats = server.shutdown().expect("server survives chaos");
        assert_eq!(stats.accepted, 3, "two poison runs + one healthy run queued");
        assert_eq!(stats.completed, 3);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
    fn chaos_mutants_leave_the_service_standing_and_others_unperturbed() {
        use devil_mutagen::c::CMutationModel;
        use devil_mutagen::sample;

        // The hostile tail, end to end: a poison mutant that panics the
        // classifier and a busy-loop mutant that blows through any wall
        // clock, mixed into an ordinary campaign. The service must answer
        // EngineError/Deadline for those, keep every other outcome
        // bit-identical with the batch path, and still be healthy afterward.
        const FUEL: u64 = 24_000_000; // busy loop ≫ any deadline before fuel runs out
        const BUSTER_DEADLINE_MS: u32 = 25;

        let v = find_variant("mouse-stream", "busmouse_c").expect("catalog workload");
        let header_texts: Vec<&str> = v.headers.iter().map(|(_, t)| t.as_str()).collect();
        let model = CMutationModel::new(v.source, &header_texts, v.style);
        let mutants = sample(model.mutants(), 0.04, 99);
        assert!(!mutants.is_empty(), "sampled no mutants");

        let poison = format!("// {CHAOS_PANIC_MARKER}\n{}", v.source);
        let buster = busy_loop_driver(v.source);

        // Batch reference, supervised exactly like the service: normal
        // mutants plus the poison (EngineError via panic recovery — the
        // batch classify panics on the marker itself) plus the buster
        // under the same wall-clock budget (Deadline).
        struct Shot {
            source: String,
            dead_line: Option<u32>,
            deadline_ms: Option<u32>,
        }
        let mut shots: Vec<Shot> = mutants
            .iter()
            .map(|m| Shot { source: m.source.clone(), dead_line: Some(m.line), deadline_ms: None })
            .collect();
        shots.push(Shot { source: poison.clone(), dead_line: None, deadline_ms: None });
        shots.push(Shot {
            source: buster.clone(),
            dead_line: None,
            deadline_ms: Some(BUSTER_DEADLINE_MS),
        });

        let incs: Vec<(&str, &str)> =
            v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let cache = IncludeCache::new(&incs);
        let batch: Vec<Outcome> = Campaign::new(
            || {
                let scenario = build_scenario("mouse-stream").expect("catalog scenario");
                ScenarioMachine::with_scenario(scenario, FUEL)
            },
            |machine: &mut ScenarioMachine<_>, s: &Shot| {
                panic_on_chaos_marker(&s.source);
                let deadline =
                    s.deadline_ms.map(|ms| Deadline::after(Duration::from_millis(u64::from(ms))));
                machine.run_cached(v.file, &s.source, &cache, s.dead_line, deadline).0
            },
        )
        .supervised(|_s: &Shot, _msg: &str| Outcome::EngineError)
        .with_threads(2)
        .run(&shots);
        let n = mutants.len();
        assert_eq!(batch[n], Outcome::EngineError, "batch poison outcome");
        assert_eq!(batch[n + 1], Outcome::Deadline, "batch buster outcome");

        // The same campaign through the service. Normal mutants and the
        // poison go first; the buster gets its own quiet phase so its
        // wall-clock budget is spent running, not queueing.
        let server =
            InProcServer::start(ServeConfig { threads: 2, fuel: FUEL, ..ServeConfig::default() });
        let (mut r, mut w) = server.connect().split();
        let read_reply = |r: &mut crate::pipe::PipeReader| {
            let payload = read_frame(r).unwrap().expect("reply before EOF");
            Response::decode(&payload).unwrap()
        };

        let mut expected: HashMap<u64, Outcome> = HashMap::new();
        for (i, (m, outcome)) in mutants.iter().zip(&batch).enumerate() {
            let mut req = submit_mutant(i as u64, "mouse-stream", "", v.file, &m.source);
            req.dead_line = m.line;
            write_frame(&mut w, &Request::Submit(req).encode()).unwrap();
            expected.insert(i as u64, *outcome);
        }
        let poison_id = 5_000u64;
        write_frame(&mut w, &submit(poison_id, "mouse-stream", "", v.file, &poison).encode())
            .unwrap();
        expected.insert(poison_id, Outcome::EngineError);

        let mut got: HashMap<u64, Outcome> = HashMap::new();
        for _ in 0..expected.len() {
            match read_reply(&mut r) {
                Response::Outcome { req_id, outcome, .. } => {
                    got.insert(req_id, outcome);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        for (id, want) in &expected {
            assert_eq!(got[id], *want, "req {id}: service and batch disagree");
        }

        // Quiet phase: the buster alone, with its wall-clock budget.
        let buster_id = 6_000u64;
        let mut req = submit_mutant(buster_id, "mouse-stream", "", v.file, &buster);
        req.deadline_ms = BUSTER_DEADLINE_MS;
        write_frame(&mut w, &Request::Submit(req).encode()).unwrap();
        match read_reply(&mut r) {
            Response::Outcome { req_id, outcome, detail } => {
                assert_eq!(req_id, buster_id);
                assert_eq!(outcome, Outcome::Deadline, "{detail}");
            }
            other => panic!("unexpected response {other:?}"),
        }

        // The service took a panic and a deadline overrun and is still
        // classifying clean drivers correctly.
        write_frame(&mut w, &submit(7_000, "mouse-stream", "", v.file, v.source).encode()).unwrap();
        match read_reply(&mut r) {
            Response::Outcome { req_id, outcome, .. } => {
                assert_eq!(req_id, 7_000);
                assert_eq!(outcome, Outcome::Boot);
            }
            other => panic!("unexpected response {other:?}"),
        }
        drop(w);
        while read_frame(&mut r).unwrap().is_some() {}
        let stats = server.shutdown().expect("server survives the chaos campaign");
        assert_eq!(stats.accepted, expected.len() as u64 + 2);
        assert_eq!(stats.completed, expected.len() as u64 + 2);
    }

    #[test]
    fn queued_jobs_past_their_deadline_expire() {
        let server = InProcServer::start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        // Job 0 spins until its fuel runs out, far longer than a
        // millisecond; the 1ms-deadline jobs queued behind it expire
        // before they run.
        let spinner = busy_loop_driver(v.source);
        write_frame(&mut w, &submit(0, "mouse-stream", "", v.file, &spinner).encode()).unwrap();
        let total = 10u64;
        for id in 1..=total {
            let mut req = match submit(id, "mouse-stream", "", v.file, v.source) {
                Request::Submit(s) => s,
                _ => unreachable!(),
            };
            req.deadline_ms = 1;
            write_frame(&mut w, &Request::Submit(req).encode()).unwrap();
        }
        drop(w);
        let (mut completed, mut expired) = (0u64, 0u64);
        while let Some(payload) = read_frame(&mut r).unwrap() {
            match Response::decode(&payload).unwrap() {
                Response::Outcome { .. } => completed += 1,
                Response::Expired { .. } => expired += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(expired >= 1, "a 1ms deadline behind a machine build must lapse");
        let stats = server.shutdown().expect("server survives");
        // The books balance: everything offered is accounted for.
        assert_eq!(stats.accepted, total + 1);
        assert_eq!(stats.completed + stats.expired, total + 1);
        assert_eq!((completed, expired), (stats.completed, stats.expired));
    }

    #[test]
    fn drain_answers_everything_then_hangs_up() {
        let server = InProcServer::start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        // Two real jobs, then a drain, then a submit that must be turned
        // away with DRAINING. The client does NOT hang up — the server
        // severs the connection itself once everything is answered.
        for id in [1u64, 2] {
            write_frame(&mut w, &submit(id, "mouse-stream", "", v.file, v.source).encode())
                .unwrap();
        }
        write_frame(&mut w, &Request::Drain { req_id: 90, grace_ms: 0 }.encode()).unwrap();
        write_frame(&mut w, &submit(3, "mouse-stream", "", v.file, v.source).encode())
            .unwrap();
        let mut outcomes = 0;
        let mut draining = Vec::new();
        while let Some(payload) = read_frame(&mut r).unwrap() {
            match Response::decode(&payload).unwrap() {
                Response::Outcome { outcome, .. } => {
                    assert_eq!(outcome, Outcome::Boot);
                    outcomes += 1;
                }
                Response::Draining { req_id } => draining.push(req_id),
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(outcomes, 2, "accepted jobs are classified, not dropped");
        assert_eq!(draining, vec![90, 3]);
        let stats = server.shutdown().expect("drained server exits cleanly");
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn drain_grace_lapsing_mid_backlog_sheds_the_rest() {
        let server = InProcServer::start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        // Sixteen spinners, each burning its whole fuel, queue behind one
        // worker; the drain's 10ms grace lapses while they are still
        // queued, so the supervisor's timed wait ends in a force-shed.
        let spinner = busy_loop_driver(v.source);
        let total = 16u64;
        for id in 0..total {
            write_frame(&mut w, &submit(id, "mouse-stream", "", v.file, &spinner).encode())
                .unwrap();
        }
        write_frame(&mut w, &Request::Drain { req_id: 90, grace_ms: 10 }.encode()).unwrap();
        // The client keeps its write half open: the server hangs up on
        // its own once everything is answered.
        let (mut looped, mut shed) = (0u64, 0u64);
        let mut seen = std::collections::HashSet::new();
        let mut draining = false;
        while let Some(payload) = read_frame(&mut r).unwrap() {
            match Response::decode(&payload).unwrap() {
                Response::Outcome { req_id, outcome, .. } => {
                    assert_eq!(outcome, Outcome::InfiniteLoop);
                    assert!(seen.insert(req_id), "duplicate reply for {req_id}");
                    looped += 1;
                }
                Response::Shed { req_id } => {
                    assert!(seen.insert(req_id), "duplicate reply for {req_id}");
                    shed += 1;
                }
                Response::Draining { req_id: 90 } => draining = true,
                other => panic!("unexpected response {other:?}"),
            }
        }
        drop(w);
        assert!(draining, "the drain is acknowledged");
        assert_eq!(looped + shed, total, "every submission answered exactly once");
        assert!(shed >= 1, "a 10ms grace cannot cover sixteen spinners on one worker");
        let stats = server.shutdown().expect("drained server exits cleanly");
        assert_eq!(stats.accepted, total);
        assert_eq!((stats.completed, stats.shed), (looped, shed));
    }

    fn tmp_ledger(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("devil-serve-ledger-{}-{name}.bin", std::process::id()))
    }

    /// Submit one request and read its single reply, serialising the
    /// round trip so admission-time state (ledger entries, strikes) from
    /// one submission is visible to the next.
    fn round_trip(
        r: &mut impl Read,
        w: &mut impl Write,
        req: &Request,
    ) -> Response {
        write_frame(w, &req.encode()).unwrap();
        let payload = read_frame(r).unwrap().expect("one reply per request");
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn ledger_memoizes_repeat_submissions() {
        let path = tmp_ledger("memo");
        let _ = std::fs::remove_file(&path);
        let server = InProcServer::start(ServeConfig {
            threads: 1,
            ledger: Some(path.clone()),
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        // First submission misses the (empty) ledger and runs; the
        // second is answered at admission without entering the queue.
        let first = round_trip(&mut r, &mut w, &submit(1, "mouse-stream", "", v.file, v.source));
        let second =
            round_trip(&mut r, &mut w, &submit(2, "mouse-stream", "", v.file, v.source));
        match (&first, &second) {
            (
                Response::Outcome { outcome: o1, detail: d1, .. },
                Response::Outcome { outcome: o2, detail: d2, .. },
            ) => {
                assert_eq!(*o1, Outcome::Boot);
                assert_eq!((o1, d1), (o2, d2), "memoized reply is bit-identical");
            }
            other => panic!("expected two outcomes, got {other:?}"),
        }
        let stats = match round_trip(&mut r, &mut w, &Request::Stats { req_id: 3 }) {
            Response::Stats { stats, .. } => stats,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(stats.ledger_hits, 1);
        assert_eq!(stats.ledger_misses, 1);
        assert_eq!(stats.ledger_verified, 0);
        assert_eq!(stats.ledger_diverged, 0);
        drop(w);
        while read_frame(&mut r).unwrap().is_some() {}
        let final_stats = server.shutdown().expect("server survives");
        assert_eq!(final_stats.accepted, 1, "the hit never touched the queue");
        assert_eq!(final_stats.completed, 2, "both submissions were answered");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantine_survives_restart_through_the_ledger() {
        let path = tmp_ledger("restart");
        let _ = std::fs::remove_file(&path);
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        let poison = format!("// {CHAOS_PANIC_MARKER}\n{}", v.source);
        let config = || ServeConfig {
            threads: 1,
            quarantine_limit: 2,
            ledger: Some(path.clone()),
            ..ServeConfig::default()
        };

        // First life: two strikes land (and persist); the pair trips the
        // quarantine.
        let server = InProcServer::start(config());
        let (mut r, mut w) = server.connect().split();
        for id in 1u64..=2 {
            match round_trip(&mut r, &mut w, &submit(id, "mouse-stream", "", v.file, &poison)) {
                Response::Outcome { outcome, .. } => {
                    assert_eq!(outcome, Outcome::EngineError)
                }
                other => panic!("expected EngineError, got {other:?}"),
            }
        }
        drop(w);
        while read_frame(&mut r).unwrap().is_some() {}
        server.shutdown().expect("first life exits cleanly");

        // Second life, same ledger: the strikes were replayed at startup,
        // so the very first poison submission is refused at admission —
        // no worker ever sees it again.
        let server = InProcServer::start(config());
        let (mut r, mut w) = server.connect().split();
        match round_trip(&mut r, &mut w, &submit(3, "mouse-stream", "", v.file, &poison)) {
            Response::Err { message, .. } => {
                assert!(message.contains("quarantined"), "{message}")
            }
            other => panic!("expected quarantine refusal, got {other:?}"),
        }
        // The offender shows up in STATS with its durable strike count.
        let stats = match round_trip(&mut r, &mut w, &Request::Stats { req_id: 9 }) {
            Response::Stats { stats, .. } => stats,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(
            stats.quarantined,
            vec![QuarantinedPair {
                file: v.file.into(),
                fingerprint: devil_mutagen::source_fingerprint(&poison),
                strikes: 2,
            }]
        );
        drop(w);
        while read_frame(&mut r).unwrap().is_some() {}
        let final_stats = server.shutdown().expect("second life exits cleanly");
        assert_eq!(final_stats.accepted, 0, "poison never reached the queue");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verification_catches_a_corrupt_ledger_entry() {
        let path = tmp_ledger("verify");
        let _ = std::fs::remove_file(&path);
        let v = find_variant("mouse-stream", "busmouse_c").unwrap();
        let rev = devil_drivers::corpus::spec_revision(DEFAULT_FUEL);
        // Plant a wrong entry under exactly the key the server will
        // compute: the clean driver recorded as CompileCheck.
        {
            let ledger = Ledger::create(&path, rev).unwrap();
            let key = LedgerKey {
                file: v.file.into(),
                source: devil_mutagen::source_fingerprint(v.source),
                scenario: "mouse-stream".into(),
                plan: String::new(),
                plan_seed: 0,
                dead_line: 0,
                spec_rev: rev,
            };
            ledger.record(&key, Outcome::CompileCheck.code(), "planted lie").unwrap();
        }

        // verify_fraction 1.0: every hit is audited against the live
        // engine. The fresh run says Boot; the divergence evicts the lie
        // and records the truth.
        let server = InProcServer::start(ServeConfig {
            threads: 1,
            ledger: Some(path.clone()),
            verify_fraction: 1.0,
            ..ServeConfig::default()
        });
        let (mut r, mut w) = server.connect().split();
        match round_trip(&mut r, &mut w, &submit(1, "mouse-stream", "", v.file, v.source)) {
            Response::Outcome { outcome, detail, .. } => {
                assert_eq!(outcome, Outcome::Boot, "client gets the fresh truth");
                assert_ne!(detail, "planted lie");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The repaired entry now verifies clean.
        match round_trip(&mut r, &mut w, &submit(2, "mouse-stream", "", v.file, v.source)) {
            Response::Outcome { outcome, .. } => assert_eq!(outcome, Outcome::Boot),
            other => panic!("unexpected response {other:?}"),
        }
        let stats = match round_trip(&mut r, &mut w, &Request::Stats { req_id: 3 }) {
            Response::Stats { stats, .. } => stats,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(stats.ledger_diverged, 1, "the planted lie was caught");
        assert_eq!(stats.ledger_verified, 1, "the repaired entry verified clean");
        assert_eq!(stats.ledger_hits, 2);
        drop(w);
        while read_frame(&mut r).unwrap().is_some() {}
        server.shutdown().expect("server survives verification");
        std::fs::remove_file(&path).unwrap();
    }
}
