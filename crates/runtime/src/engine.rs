//! The run engine: run configuration, shared per-run state, and the
//! [`run`]/[`try_run`] entry points.
//!
//! Every run is a job on a work-stealing [`JobServer`]: the one targeted
//! by [`RunConfig::with_server`], the process-wide default
//! ([`JobServer::global`]) when no worker count is forced, or a transient
//! private pool when one is. Blocked ranks park wakers in their job's
//! [`crate::hub::Hub`]/[`crate::mailbox::MailboxSet`] and are re-queued on
//! wake-up. All accounting lives in [`crate::ctx::SpmdCtx`] and the hub, so
//! a program's virtual-time behaviour is bit-identical for any worker
//! count and hub shard count — and independent of which other jobs share
//! the pool. A one-worker server is a deterministic single-threaded
//! executor with exact deadlock detection.

use crate::cost::MachineSpec;
use crate::ctx::SpmdCtx;
use crate::exec::server::{self, JobServer, Priority};
use crate::hub::Hub;
use crate::mailbox::MailboxSet;
use crate::metrics::{Collector, IterationStats, RankMetrics};
use crate::time::VirtualTime;
use crate::trace::Tracer;
use parking_lot::Mutex;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of one SPMD run.
#[derive(Clone)]
pub struct RunConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Machine cost model driving the virtual clocks.
    pub spec: MachineSpec,
    /// Optional event tracer shared by all ranks (free in virtual time).
    pub tracer: Option<Arc<Tracer>>,
    /// Worker threads of the transient pool a run without a
    /// [`RunConfig::server`] stands up; `0` (the default) submits to the
    /// process-wide [`JobServer::global`] instead. Defaults to the
    /// `ULBA_WORKERS` environment variable.
    pub workers: usize,
    /// Leaf shard count of the collective rendezvous hub; `0` (the
    /// default) resolves, at submission, to `min(workers of the server
    /// the job runs on, 64)` (capped at `ranks`), so a run spreads
    /// rendezvous contention over one shard per worker. Defaults to the
    /// `ULBA_HUB_SHARDS` environment variable. Reports are bit-identical
    /// for **any** shard count; [`RunReport::hub_shards`] says which one
    /// ran.
    pub hub_shards: usize,
    /// Existing [`JobServer`] to submit to; `None` (the default) uses the
    /// process-wide default server ([`JobServer::global`]), or a transient
    /// private pool when [`RunConfig::workers`] is forced nonzero.
    pub server: Option<JobServer>,
    /// Admission priority of the job on its server. Defaults to
    /// [`Priority::Normal`].
    pub priority: Priority,
}

impl RunConfig {
    /// A run with `ranks` ranks on the default machine, honouring the
    /// `ULBA_*` environment variables — shorthand for
    /// [`RunConfig::defaults`]`(ranks).`[`from_env`](RunConfig::from_env)`()`.
    pub fn new(ranks: usize) -> Self {
        Self::defaults(ranks).from_env()
    }

    /// A run with `ranks` ranks on the default machine, ignoring the
    /// environment: the global pool and automatic hub shards.
    pub fn defaults(ranks: usize) -> Self {
        Self {
            ranks,
            spec: MachineSpec::default(),
            tracer: None,
            workers: 0,
            hub_shards: 0,
            server: None,
            priority: Priority::Normal,
        }
    }

    /// Overlay the `ULBA_*` environment onto this configuration — the one
    /// place the engine parses runtime env vars, so binaries and tests
    /// don't re-implement the precedence themselves:
    ///
    /// * `ULBA_WORKERS` → [`RunConfig::workers`],
    /// * `ULBA_HUB_SHARDS` → [`RunConfig::hub_shards`].
    ///
    /// Unset (or unparsable) variables leave the corresponding field
    /// untouched, so explicit `with_*` calls made *after* this step win,
    /// while the environment overrides the plain defaults.
    pub fn from_env(mut self) -> Self {
        if let Some(workers) = env_usize("ULBA_WORKERS") {
            self.workers = workers;
        }
        if let Some(shards) = env_usize("ULBA_HUB_SHARDS") {
            self.hub_shards = shards;
        }
        self
    }

    /// Override the machine model.
    pub fn with_spec(mut self, spec: MachineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Attach an event tracer.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Run on a transient pool of `workers` threads (`0` = the global
    /// pool, sized to all available cores; overrides `ULBA_WORKERS`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the leaf shard count of the rendezvous hub (`0` = automatic:
    /// `min(server workers, 64)`; overrides `ULBA_HUB_SHARDS`). Any
    /// value produces bit-identical reports; the count only tunes lock
    /// contention at the collective rendezvous.
    pub fn with_hub_shards(mut self, shards: usize) -> Self {
        self.hub_shards = shards;
        self
    }

    /// Submit this run to an existing [`JobServer`] instead of the default
    /// global one.
    pub fn with_server(mut self, server: JobServer) -> Self {
        self.server = Some(server);
        self
    }

    /// Set the job's admission priority on its server (see [`Priority`]).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The hub shard count a [`run`] of this configuration resolves to
    /// when it stands up its own pool: the explicit
    /// [`RunConfig::hub_shards`] if nonzero, otherwise `min(pool workers,
    /// 64)` — one shard per worker. Always clamped to `[1, ranks]`.
    pub fn effective_hub_shards(&self) -> usize {
        self.hub_shards_for(server::effective_workers(self))
    }

    /// The hub shard count of this configuration on a server with
    /// `workers` workers (see [`RunConfig::effective_hub_shards`]).
    pub(crate) fn hub_shards_for(&self, workers: usize) -> usize {
        let shards = if self.hub_shards > 0 { self.hub_shards } else { workers.min(64) };
        shards.clamp(1, self.ranks.max(1))
    }
}

/// Parse a `usize` environment variable; `None` when unset or unparsable.
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// A structured run failure (instead of a panic deep inside the engine).
#[derive(Debug)]
pub enum RunError {
    /// The program can never finish: some ranks are permanently blocked
    /// (a collective not every rank joins, or a `recv` with no matching
    /// send). Detected exactly, per job, by the [`JobServer`] — where a
    /// real MPI job would hang. [`try_run`] surfaces this error; [`run`]
    /// panics on it.
    Deadlock {
        /// Id of the deadlocked job (process-unique, starts at 1). On a
        /// shared [`JobServer`] many jobs are in flight at once; the id
        /// pins the diagnostic to the one that hung.
        job: u64,
        /// The permanently blocked ranks, in rank order.
        blocked: Vec<usize>,
        /// Total ranks in the run.
        ranks: usize,
        /// The distinct hub shards holding blocked ranks, in shard order —
        /// a stuck collective often spans several shards of the reduction
        /// tree, and knowing which narrows the mismatched ranks down fast
        /// at large `P`.
        shards: Vec<usize>,
    },
    /// A [`crate::exec::server::JobHandle`] observed its job as finished
    /// but the result slot was already empty — the outcome was consumed
    /// through another path (a raced double-join) or the finalizing worker
    /// died before publishing it. Used to be an `expect` panic inside the
    /// join path; surfacing it structurally lets batch clients skip the
    /// one bad job instead of tearing the whole sweep down.
    ResultMissing {
        /// Id of the job whose outcome vanished.
        job: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { job, blocked, ranks, shards } => {
                write!(
                    f,
                    "deadlock in job #{job}: {} of {ranks} ranks are permanently blocked \
                     (collective ordering bug, or a recv with no matching send); \
                     blocked ranks {:?}{} in hub shard{} {:?}{}",
                    blocked.len(),
                    &blocked[..blocked.len().min(8)],
                    if blocked.len() > 8 { " …" } else { "" },
                    if shards.len() == 1 { "" } else { "s" },
                    &shards[..shards.len().min(8)],
                    if shards.len() > 8 { " …" } else { "" },
                )
            }
            RunError::ResultMissing { job } => {
                write!(
                    f,
                    "job #{job} finished but its result was already consumed \
                     (double-join race) or never published by the finalizing worker"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final per-rank time accounting, indexed by rank.
    pub rank_metrics: Vec<RankMetrics>,
    /// Final virtual clock of each rank.
    pub final_clocks: Vec<VirtualTime>,
    /// Per-iteration aggregates (only iterations marked by every rank).
    pub iterations: Vec<IterationStats>,
    /// Iterations at which an LB step was recorded.
    pub lb_iterations: Vec<u64>,
    /// Leaf shard count the rendezvous hub ran with (the resolved
    /// [`RunConfig::hub_shards`]). Contention metadata only: it never
    /// influences the measurements above.
    pub hub_shards: usize,
}

impl RunReport {
    /// The virtual makespan: the latest final clock across ranks. This is
    /// the quantity the paper reports as application running time.
    pub fn makespan(&self) -> VirtualTime {
        self.final_clocks.iter().copied().max().unwrap_or(VirtualTime::ZERO)
    }

    /// Average PE utilization over the whole run:
    /// `Σ busy / (P · makespan)`.
    pub fn mean_utilization(&self) -> f64 {
        let makespan = self.makespan().as_secs();
        if makespan == 0.0 {
            return 1.0;
        }
        let busy: f64 = self.rank_metrics.iter().map(|m| m.busy).sum();
        (busy / (self.rank_metrics.len() as f64 * makespan)).clamp(0.0, 1.0)
    }

    /// Number of LB steps recorded.
    pub fn lb_call_count(&self) -> usize {
        self.lb_iterations.len()
    }
}

/// The state shared by every rank of one run: the
/// collective rendezvous hub, the point-to-point mailboxes, the metrics
/// collector, the machine model, and the per-rank final accounting slots.
pub(crate) struct RunShared {
    pub(crate) hub: Hub,
    pub(crate) mail: MailboxSet,
    pub(crate) collector: Collector,
    pub(crate) spec: MachineSpec,
    /// Process-unique id of this run/job (starts at 1); tags deadlock
    /// errors and hub diagnostics so concurrent jobs on a shared
    /// [`JobServer`] stay distinguishable.
    job: u64,
    finals: Vec<Mutex<Option<(VirtualTime, RankMetrics)>>>,
}

/// Source of [`RunShared::job_id`]s: every run draws one.
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

impl RunShared {
    pub(crate) fn new(config: &RunConfig, hub_shards: usize) -> Arc<Self> {
        let job = NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed);
        Arc::new(Self {
            hub: Hub::for_job(job, config.ranks, hub_shards),
            mail: MailboxSet::new(config.ranks),
            collector: Collector::new(config.ranks),
            spec: config.spec.clone(),
            job,
            finals: (0..config.ranks).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// The process-unique id of this run (see [`RunError::Deadlock::job`]).
    pub(crate) fn job_id(&self) -> u64 {
        self.job
    }

    pub(crate) fn record_final(&self, rank: usize, clock: VirtualTime, metrics: RankMetrics) {
        *self.finals[rank].lock() = Some((clock, metrics));
    }

    /// Build the structured deadlock error for `blocked` (sorted by rank),
    /// annotating the distinct hub shards the blocked ranks sit in.
    pub(crate) fn deadlock(&self, blocked: Vec<usize>) -> RunError {
        let mut shards: Vec<usize> = blocked.iter().map(|&r| self.hub.shard_of(r)).collect();
        // `shard_of` is monotone in rank and `blocked` is rank-ordered, so
        // adjacent dedup yields the sorted distinct shard set.
        shards.dedup();
        RunError::Deadlock { job: self.job, blocked, ranks: self.hub.size(), shards }
    }

    pub(crate) fn build_report(&self) -> RunReport {
        let (final_clocks, rank_metrics) = self
            .finals
            .iter()
            .enumerate()
            .map(|(rank, slot)| slot.lock().unwrap_or_else(|| panic!("rank {rank} never finished")))
            .unzip();
        RunReport {
            rank_metrics,
            final_clocks,
            iterations: self.collector.iteration_stats(),
            lb_iterations: self.collector.lb_iterations(),
            hub_shards: self.hub.shard_count(),
        }
    }
}

/// Run `body` as an SPMD program over `config.ranks` ranks and collect the
/// report. `body` is invoked once per rank with that rank's [`SpmdCtx`] and
/// returns the rank's program as a future; operations that synchronize with
/// other ranks (`recv`, `barrier`, collectives) are `async` and suspend at
/// the synchronization point, which is what lets a [`JobServer`] interleave
/// thousands of ranks over few threads (rank futures migrate between its
/// workers, hence the `Send + 'static` bounds — a rank program owns its
/// data).
///
/// # Failure contract
///
/// Panics in any rank propagate after the run is wound down (the panic
/// payload of the lowest-ranked failing rank is resumed). A deadlocked
/// program **panics** with the full [`RunError::Deadlock`] diagnostic: the
/// job id, the blocked ranks, and the hub shards holding them. Use
/// [`try_run`] to observe it as a structured [`RunError`] instead.
pub fn run<F, Fut>(config: RunConfig, body: F) -> RunReport
where
    F: Fn(SpmdCtx) -> Fut,
    Fut: Future<Output = ()> + Send + 'static,
{
    try_run(config, body).unwrap_or_else(|err| panic!("{err}"))
}

/// Like [`run`], but reports a deadlock as [`RunError::Deadlock`] (tagged
/// with the job id and the hub shards of the blocked ranks) instead of
/// panicking. Rank panics are **not** converted: they resume on the
/// calling thread, exactly as under [`run`].
pub fn try_run<F, Fut>(config: RunConfig, body: F) -> Result<RunReport, RunError>
where
    F: Fn(SpmdCtx) -> Fut,
    Fut: Future<Output = ()> + Send + 'static,
{
    server::execute(&config, body)
}
