//! Host-time spans and exact counters of the traced replay.
//!
//! Each rank of a traced job owns a [`RankTrace`]: a stack of open spans,
//! per-layer totals and self times, and the exact counters the rank body
//! observed. A rank hands its trace to the op's shared [`Sink`] when it
//! finishes. Spans are host wall-clock intervals; an awaited span also
//! covers the time its rank sat parked behind other ranks, so compare span
//! totals across commits rather than reading them as shares of wall time.

use parking_lot::Mutex;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the replay records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One application iteration of one rank.
    Iteration,
    /// One LB step of one rank.
    LbStep,
    /// `SpmdCtx::allgather`.
    Allgather,
    /// `SpmdCtx::broadcast`.
    Broadcast,
    /// `SpmdCtx::allreduce*`.
    Allreduce,
    /// `GossipOutbox::message` + `wire_bytes` + `SpmdCtx::send`.
    GossipSend,
    /// Gossip drain + `WirDatabase::merge`.
    GossipMerge,
    /// Rank 0's `estimate_ulba_overhead` + trigger `observe`.
    Trigger,
    /// `outlier_score` + `alpha_for`.
    OutlierScore,
    /// `centralized_rebalance`.
    Rebalance,
    /// `Stripe::initial`: building a rank's initial columns.
    Init,
    /// `exchange_halos_reusing` + boundary exposure refresh.
    Halo,
    /// `erosion_step`.
    Step,
    /// `migrate`.
    Migrate,
    /// `WorkTable::build`.
    TableBuild,
    /// `WorkTable::range_units` + the charged compute.
    Compute,
    /// `sigma_plus_schedule` + `total_time`.
    SigmaPlus,
    /// `optimal_schedule` (exact DP).
    Optimal,
    /// Calibrated simulated annealing over `ScheduleProblem`.
    Anneal,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 19;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Iteration,
        Layer::LbStep,
        Layer::Allgather,
        Layer::Broadcast,
        Layer::Allreduce,
        Layer::GossipSend,
        Layer::GossipMerge,
        Layer::Trigger,
        Layer::OutlierScore,
        Layer::Rebalance,
        Layer::Init,
        Layer::Halo,
        Layer::Step,
        Layer::Migrate,
        Layer::TableBuild,
        Layer::Compute,
        Layer::SigmaPlus,
        Layer::Optimal,
        Layer::Anneal,
    ];

    /// Span name, `<layer>.<what>` after the crate the call lands in.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Iteration => "app.iteration",
            Layer::LbStep => "app.lb_step",
            Layer::Allgather => "runtime.allgather",
            Layer::Broadcast => "runtime.broadcast",
            Layer::Allreduce => "runtime.allreduce",
            Layer::GossipSend => "core.gossip_send",
            Layer::GossipMerge => "core.gossip_merge",
            Layer::Trigger => "core.trigger",
            Layer::OutlierScore => "core.outlier_score",
            Layer::Rebalance => "core.rebalance",
            Layer::Init => "erosion.init",
            Layer::Halo => "erosion.halo",
            Layer::Step => "erosion.step",
            Layer::Migrate => "erosion.migrate",
            Layer::TableBuild => "scenario.table_build",
            Layer::Compute => "scenario.compute",
            Layer::SigmaPlus => "model.sigma_plus",
            Layer::Optimal => "model.optimal",
            Layer::Anneal => "model.anneal",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Exact, machine-independent counts observed by the replay. Two runs of
/// the same code on the same seed must agree on every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Collective rounds a job ran (counted once per job, on rank 0;
    /// `centralized_rebalance` counts as its two gathers and one
    /// broadcast).
    pub rounds: u64,
    /// Bytes the allgathers copy: `P · 16 B` into each of `P` ranks per
    /// allgather round (computed, not measured).
    pub allgather_bytes: u64,
    /// Gossip payload bytes sent (`wire_bytes` of every message).
    pub gossip_bytes: u64,
    /// WIR-database entries resident at job end, summed over ranks.
    pub db_entries: u64,
    /// Exposed frontier cells summed over ranks and iterations.
    pub frontier_cells: u64,
    /// LB steps performed.
    pub lb_calls: u64,
    /// Simulated-annealing moves evaluated.
    pub sa_moves: u64,
}

impl Counters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counters) {
        self.rounds += o.rounds;
        self.allgather_bytes += o.allgather_bytes;
        self.gossip_bytes += o.gossip_bytes;
        self.db_entries += o.db_entries;
        self.frontier_cells += o.frontier_cells;
        self.lb_calls += o.lb_calls;
        self.sa_moves += o.sa_moves;
    }

    /// `(metric name, value)` pairs, in report order.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("runtime.rounds", self.rounds),
            ("runtime.allgather_bytes", self.allgather_bytes),
            ("core.gossip_bytes", self.gossip_bytes),
            ("core.db_entries", self.db_entries),
            ("erosion.frontier_cells", self.frontier_cells),
            ("core.lb_calls", self.lb_calls),
            ("model.sa_moves", self.sa_moves),
        ]
    }
}

/// One closed span, kept for the Chrome trace file.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    layer: Layer,
    /// Op index and job index within the op (Chrome `pid`).
    op: usize,
    job: usize,
    /// Rank, or the host thread for op-level spans (Chrome `tid`).
    tid: usize,
    id: u64,
    parent: Option<u64>,
    start_us: f64,
    dur_us: f64,
}

struct Open {
    layer: Layer,
    start: Instant,
    children: f64,
    id: u64,
}

/// Span totals of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Closed spans.
    pub calls: u64,
    /// Summed span duration, seconds.
    pub total_s: f64,
    /// Summed span duration minus the time its direct children cover.
    pub self_s: f64,
}

/// The trace one rank (or the host thread) records.
pub struct RankTrace {
    origin: Instant,
    op: usize,
    job: usize,
    tid: usize,
    next_id: u64,
    stack: Vec<Open>,
    layers: [LayerTime; LAYERS],
    events: Option<Vec<SpanEvent>>,
    /// Exact counts this rank observed.
    pub counters: Counters,
}

impl RankTrace {
    /// Open a span of `layer`.
    pub fn begin(&mut self, layer: Layer) {
        self.next_id += 1;
        self.stack.push(Open { layer, start: Instant::now(), children: 0.0, id: self.next_id });
    }

    /// Close the innermost open span, which must be of `layer`.
    pub fn end(&mut self, layer: Layer) {
        let now = Instant::now();
        let open = self.stack.pop().expect("span end without a begin");
        assert_eq!(open.layer, layer, "spans must nest");
        let dur = now.duration_since(open.start).as_secs_f64();
        let slot = &mut self.layers[layer.index()];
        slot.calls += 1;
        slot.total_s += dur;
        slot.self_s += (dur - open.children).max(0.0);
        let parent = self.stack.last_mut().map(|p| {
            p.children += dur;
            p.id
        });
        if let Some(events) = self.events.as_mut() {
            events.push(SpanEvent {
                layer,
                op: self.op,
                job: self.job,
                tid: self.tid,
                id: open.id,
                parent,
                start_us: open.start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: dur * 1e6,
            });
        }
    }
}

/// Wrap `$body` (which may `.await`) in a span of `$layer`.
macro_rules! span {
    ($trace:expr, $layer:expr, $body:expr) => {{
        $trace.begin($layer);
        let value = $body;
        $trace.end($layer);
        value
    }};
}
pub(crate) use span;

/// Everything the traced ops of one run recorded.
#[derive(Default)]
pub struct Aggregate {
    /// Per-layer totals, summed over every rank of every traced op.
    pub layers: [LayerTime; LAYERS],
    /// Exact counts, summed over the traced ops' ranks.
    pub counters: Counters,
    /// Spans kept for the Chrome trace file.
    pub events: Vec<SpanEvent>,
}

impl Aggregate {
    /// Fold another aggregate into this one.
    pub fn merge(&mut self, other: Aggregate) {
        for (acc, l) in self.layers.iter_mut().zip(&other.layers) {
            acc.calls += l.calls;
            acc.total_s += l.total_s;
            acc.self_s += l.self_s;
        }
        self.counters.add(&other.counters);
        self.events.extend(other.events);
    }

    /// Summed span seconds of `layer`.
    pub fn total(&self, layer: Layer) -> f64 {
        self.layers[layer.index()].total_s
    }
}

/// Ranks whose individual spans go to the Chrome trace (all ranks feed the
/// totals): rank 0, the quartiles and the last rank.
fn sampled(rank: usize, p: usize) -> bool {
    rank == 0 || rank == p - 1 || (p >= 4 && rank.is_multiple_of(p / 4))
}

/// The shared collector of one traced op.
pub struct Sink {
    origin: Instant,
    op: usize,
    keep_events: bool,
    agg: Mutex<Aggregate>,
}

impl Sink {
    /// A collector for op `op`; `keep_events` keeps individual spans for
    /// the trace file.
    pub fn new(origin: Instant, op: usize, keep_events: bool) -> Self {
        Self { origin, op, keep_events, agg: Mutex::new(Aggregate::default()) }
    }

    /// A fresh trace for rank `rank` of `p` in job `job` of this op.
    pub fn rank_trace(&self, job: usize, rank: usize, p: usize) -> RankTrace {
        RankTrace {
            origin: self.origin,
            op: self.op,
            job,
            tid: rank,
            next_id: 0,
            stack: Vec::new(),
            layers: [LayerTime::default(); LAYERS],
            events: (self.keep_events && sampled(rank, p)).then(Vec::new),
            counters: Counters::default(),
        }
    }

    /// A trace for the op's host thread (shown as thread `tid` of job 0).
    pub fn host_trace(&self, tid: usize) -> RankTrace {
        RankTrace { events: self.keep_events.then(Vec::new), ..self.rank_trace(0, tid, 1) }
    }

    /// Hand a finished trace in.
    pub fn absorb(&self, trace: RankTrace) {
        assert!(trace.stack.is_empty(), "a rank finished with open spans");
        self.agg.lock().merge(Aggregate {
            layers: trace.layers,
            counters: trace.counters,
            events: trace.events.unwrap_or_default(),
        });
    }

    /// Take everything collected so far.
    pub fn take(&self) -> Aggregate {
        std::mem::take(&mut *self.agg.lock())
    }
}

/// Chrome trace-event JSON (viewable in Perfetto): one complete (`X`) event
/// per kept span, with its id and its parent's id in `args`. Each job of
/// each op is one process, named `op <k> job <j>`; ranks are its threads.
pub fn chrome_trace(workload: &str, events: &[SpanEvent]) -> String {
    let pid = |e: &SpanEvent| e.op * 1000 + e.job;
    let mut lines: Vec<String> = Vec::with_capacity(events.len() + 16);
    let mut named: Vec<usize> = Vec::new();
    for e in events {
        if !named.contains(&pid(e)) {
            named.push(pid(e));
            lines.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{workload} op {} job {}\"}}}}",
                pid(e),
                e.op,
                e.job
            ));
        }
        let cat = e.layer.name().split('.').next().unwrap_or("bench");
        let id = |n: u64| format!("\"{}.{}.{}.{n}\"", e.op, e.job, e.tid);
        lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            e.layer.name(),
            e.start_us,
            e.dur_us,
            pid(e),
            e.tid,
            id(e.id),
            e.parent.map_or("null".to_string(), id),
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// Per-layer self-time table: calls, total and self seconds per traced op,
/// and each layer's share of the summed self time.
pub fn self_time_table(workload: &str, agg: &Aggregate, ops: usize) -> String {
    let ops = ops.max(1) as f64;
    let self_sum: f64 = agg.layers.iter().map(|l| l.self_s).sum::<f64>().max(f64::MIN_POSITIVE);
    let mut out = format!(
        "per-layer self time, workload {workload}, per traced op (spans summed over ranks)\n\
         {:<22} {:>12} {:>14} {:>14} {:>7}\n",
        "layer", "calls/op", "total_s/op", "self_s/op", "self%"
    );
    let mut rows: Vec<(Layer, LayerTime)> = Layer::ALL
        .iter()
        .map(|&l| (l, agg.layers[l.index()]))
        .filter(|(_, t)| t.calls > 0)
        .collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (layer, t) in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>12.1} {:>14.6} {:>14.6} {:>6.1}%",
            layer.name(),
            t.calls as f64 / ops,
            t.total_s / ops,
            t.self_s / ops,
            100.0 * t.self_s / self_sum
        );
    }
    out
}
