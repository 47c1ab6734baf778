//! The serve layer: answer a *stream* of query-set requests against one
//! prepared predictor.
//!
//! A production "who to follow" deployment receives many small requests
//! per second against the same graph. Two amortizations make that cheap
//! here:
//!
//! 1. **Prepare once** — the [`Server`] holds a
//!    [`PreparedPredictor`], so the O(edges) partition build and all
//!    backend precomputation are paid a single time for the whole stream
//!    (see [`Predictor::prepare`]).
//! 2. **Coalesce requests** — [`Server::serve_batch`] unions the query
//!    sets of concurrent requests into one active-vertex mask, runs the
//!    masked supersteps once, and demultiplexes the rows back per
//!    request. Because masked runs are *exact* (each queried row is
//!    bit-identical to an all-vertices run), the demultiplexed rows are
//!    bit-identical to executing every request individually — the batch
//!    only shares the fixed per-superstep costs.
//!
//! The served graph does not have to stay frozen: update batches
//! ([`Server::apply_update`]) interleave with prediction batches, folding
//! edge insertions/removals into the prepared deployment — a per-delta
//! cost proportional to the delta, not to the graph — while every
//! subsequent prediction stays bit-identical to a cold rebuild on the
//! mutated graph.
//!
//! # One serving core, three runtimes
//!
//! Three runtimes serve a stream: this module's sequential [`Server`]
//! (one caller thread drives batches and updates in program order), the
//! [`ConcurrentServer`](crate::concurrent::ConcurrentServer) worker pool
//! (N threads over one `Arc`-shared snapshot behind a bounded queue), and
//! the [`ShardRouter`](crate::shard::ShardRouter) (a scatter-gather front
//! end over N shard runtimes, each of which is a sequential `Server`).
//! The work they all repeat lives here, once:
//!
//! * **Execute.** `execute_coalesced` unions a batch's query sets, builds
//!   the [`ExecuteRequest`] with the stream's seed and attributes,
//!   executes once and demultiplexes the rows per request.
//!   [`Server::serve_batch`] and every pool worker call it; shards reach
//!   it through their `Server`. All three therefore return bit-identical
//!   rows for the same requests and seed.
//! * **Count.** [`ServerStats`]' `record_batch` and `record_update` are
//!   the only code that counts requests, queries, union size, simulated
//!   seconds, latency and delta effects. A batch is counted only after it
//!   succeeded and an update only after it applied, so a failing request
//!   counts nothing in any runtime. The runtimes differ only in what they
//!   pass as latency (the batch's wall time here, submission-to-response
//!   in the pool and the router) and in [`ServerStats::serve_wall_seconds`]
//!   (summed batch time here, the pool's or fleet's lifetime otherwise).
//! * **Write ahead.** `write_ahead` appends a delta to the attached
//!   commitlog before anything applies it; together with the
//!   `From<StoreError>` conversion it is the one place a durability
//!   failure becomes [`SnapleError::Durability`]. [`Server::apply_update`]
//!   and [`ServeHandle::apply_update`](crate::concurrent::ServeHandle::apply_update)
//!   both go through it.
//! * **Drive.** The [`Serving`] trait — implemented by [`Server`],
//!   [`ServeHandle`](crate::concurrent::ServeHandle) and
//!   [`RouterHandle`](crate::shard::RouterHandle) — is the
//!   request/update contract one driver loop (`snaple-cli serve`) uses
//!   without knowing which runtime is behind it.
//!
//! Wherever one thread owns a snapshot alone — the sequential `Server`
//! and every shard — an update applies **in place**
//! ([`PreparedPredictor::apply_delta`]). Only the worker pool forks an
//! epoch ([`PreparedPredictor::fork_with_delta`]) and swaps it in,
//! because only the pool has readers executing against the snapshot
//! while an update lands; the fork clones the deployment, which is the
//! price of never stalling them.
//!
//! # Restartable serving
//!
//! Attach a [`snaple_store::Durability`] store
//! ([`Server::attach_durability`], or
//! [`ConcurrentServer::run_prepared_durable`](crate::concurrent::ConcurrentServer::run_prepared_durable)
//! for the pool) and the runtime becomes restartable: every update goes
//! through the write-ahead step — the delta is appended to an fsync'd,
//! checksummed commitlog *before* it applies, so a logging failure
//! rejects the update and leaves the serving state unchanged — and every
//! K logged deltas the store checkpoints a compacted snapshot of the
//! graph. After a crash, [`snaple_store::Durability::open`] recovers the
//! newest valid snapshot (falling back to older ones past checksum
//! failures) plus the commitlog tail, handing back replay deltas that
//! reproduce the pre-crash graph **bit-identically**. The recovery
//! protocol:
//!
//! 1. `Durability::open(dir, base, config, opts)` → recovered graph +
//!    replay deltas + a [`snaple_store::RecoveryReport`].
//! 2. Prepare the predictor on the *recovered* graph and apply the
//!    replay deltas (through [`Server::apply_update`], or
//!    [`PreparedPredictor::apply_delta`] before handing the prepared
//!    predictor to the pool) — **before** attaching, so they are not
//!    re-logged.
//! 3. Attach the store — subsequent updates persist.
//!
//! With no store attached the write-ahead step is a `None` check — the
//! ephemeral serve loop is unchanged.
//!
//! ```
//! use snaple_core::serve::Server;
//! use snaple_core::{QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! let mut server = Server::new(&snaple, &graph, &cluster)?;
//! // Four concurrent user requests, answered in one shared superstep run:
//! let requests: Vec<QuerySet> = (0..4)
//!     .map(|i| QuerySet::sample(graph.num_vertices(), 25, i))
//!     .collect();
//! let responses = server.serve_batch(&requests)?;
//! assert_eq!(responses.len(), 4);
//! println!("{}", server.stats().summary());
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

use std::time::Instant;

use snaple_gas::{ClusterSpec, DeltaStats};
use snaple_graph::{GraphDelta, GraphStore, VertexId};
use snaple_store::{Durability, DurabilityStats};

use crate::error::SnapleError;
use crate::predictor::Prediction;
use crate::predictor_api::{
    ExecuteRequest, Predictor, PrepareRequest, PreparedPredictor, QuerySet, SetupStats,
};

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^{i+1})` microseconds, so 40 buckets span 1 µs to ~18 minutes.
const LATENCY_BUCKETS: usize = 40;

/// A fixed-bucket latency histogram: power-of-two microsecond buckets,
/// recorded with **no per-request allocation** (one array increment), so
/// the serving hot path can track per-request latency percentiles at any
/// request rate.
///
/// Percentiles are bucket-resolution approximations: the reported value
/// is the geometric midpoint of the bucket containing the requested
/// quantile (within ~±41% of the true value — plenty for p50/p95/p99
/// dashboards distinguishing microseconds from milliseconds from
/// seconds).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation (clamped into the bucket range; negative
    /// and sub-microsecond values land in the first bucket).
    pub fn record(&mut self, seconds: f64) {
        let micros = (seconds * 1e6).max(0.0) as u64;
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Folds another histogram into this one, e.g. to aggregate
    /// recordings taken in separate processes.
    ///
    /// Buckets are positional and every histogram uses the same
    /// power-of-two-microsecond bucket boundaries, so merging is exact:
    /// `count()` adds up and every quantile of the merge equals the
    /// quantile of the pooled observations (at bucket resolution).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The raw per-bucket counts (bucket `i` covers `[2^i, 2^{i+1})`
    /// microseconds) — the serializable wire form of the histogram.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from serialized [`bucket_counts`]
    /// (extra trailing buckets are dropped, missing ones are zero), the
    /// inverse of [`bucket_counts`] used by the shard wire codec.
    ///
    /// [`bucket_counts`]: LatencyHistogram::bucket_counts
    pub fn from_bucket_counts(counts: &[u64]) -> Self {
        let mut h = LatencyHistogram::new();
        for (dst, &src) in h.counts.iter_mut().zip(counts) {
            *dst = src;
            h.total += src;
        }
        h
    }

    /// The latency in seconds at quantile `q` (`0.0..=1.0`); `0.0` while
    /// the histogram is empty — the accessor never divides by zero, so an
    /// update-only or unserved stream emits finite numbers.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^{i+1}) µs, in seconds.
                return 2f64.powi(i as i32) * std::f64::consts::SQRT_2 / 1e6;
            }
        }
        unreachable!("total > 0 implies a bucket holds the rank")
    }

    /// Median request latency in seconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile request latency in seconds.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile request latency in seconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Aggregate statistics of a request stream served by a [`Server`], a
/// [`ConcurrentServer`](crate::concurrent::ConcurrentServer) or a
/// [`ShardRouter`](crate::shard::ShardRouter).
///
/// Every runtime counts through the same two methods (`record_batch`,
/// `record_update`), so the counters mean the same thing whichever
/// runtime served the stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Requests answered.
    pub requests: usize,
    /// Shared superstep runs executed (one per served batch).
    pub batches: usize,
    /// Sum of per-request query counts, as received.
    pub queries_received: usize,
    /// Sum of the executed union-mask sizes — smaller than
    /// `queries_received` whenever coalescing deduplicated overlapping
    /// queries.
    pub union_queries: usize,
    /// Simulated cluster seconds across all shared runs.
    pub simulated_seconds: f64,
    /// Host wall-clock seconds spent serving (excludes setup).
    pub serve_wall_seconds: f64,
    /// Host wall-clock seconds the one-time `prepare` took.
    pub setup_wall_seconds: f64,
    /// Host wall-clock seconds of the one-time partition build within
    /// setup.
    pub partition_build_seconds: f64,
    /// Replication factor of the prepared partition.
    pub replication_factor: f64,
    /// Graph-update (delta) requests applied to the stream's deployment.
    pub updates: usize,
    /// Edge insertions applied across all updates.
    pub edges_inserted: usize,
    /// Edge removals applied across all updates.
    pub edges_removed: usize,
    /// Host wall-clock seconds spent applying deltas — the cost the
    /// incremental path pays *instead of* a full re-prepare per update.
    pub delta_apply_seconds: f64,
    /// Cumulative count of vertex-cut partitions the updates touched
    /// (summed over updates).
    pub delta_touched_partitions: usize,
    /// Per-request latency histogram (submission-to-response for the
    /// worker pool and the shard router, batch wall time for the
    /// sequential server).
    pub latency: LatencyHistogram,
    /// Worker threads (or shards) that served the stream (`0` for the
    /// sequential in-thread [`Server`]).
    pub workers: usize,
    /// Durability counters and the recovery report, when the server
    /// persists into a data dir (`None` = ephemeral serving, zero
    /// overhead). Not carried over the shard wire — shards never own a
    /// data dir.
    pub durability: Option<DurabilityStats>,
}

/// What one answered batch adds to [`ServerStats`] besides its
/// per-request latencies.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BatchCost {
    /// Sum of the batch's per-request query counts.
    pub(crate) queries_received: usize,
    /// Size of the executed union mask.
    pub(crate) union_queries: usize,
    /// Simulated cluster seconds of the shared run.
    pub(crate) simulated_seconds: f64,
}

impl ServerStats {
    /// An empty ledger carrying the prepared deployment's setup figures.
    pub(crate) fn from_setup(setup: &SetupStats) -> Self {
        ServerStats {
            setup_wall_seconds: setup.prepare_wall_seconds,
            partition_build_seconds: setup.partition_build_seconds,
            replication_factor: setup.replication_factor,
            ..ServerStats::default()
        }
    }

    /// Counts one successfully answered batch: one request per latency
    /// sample (in seconds), plus the batch's query and simulated-time
    /// cost. The only place requests, queries, union size, simulated
    /// seconds and latency are counted.
    pub(crate) fn record_batch(
        &mut self,
        cost: &BatchCost,
        latencies: impl IntoIterator<Item = f64>,
    ) {
        for seconds in latencies {
            self.requests += 1;
            self.latency.record(seconds);
        }
        self.batches += 1;
        self.queries_received += cost.queries_received;
        self.union_queries += cost.union_queries;
        self.simulated_seconds += cost.simulated_seconds;
    }

    /// Counts one successfully applied update. The only place delta
    /// effects are counted.
    pub(crate) fn record_update(&mut self, applied: &DeltaStats) {
        self.updates += 1;
        self.edges_inserted += applied.inserted_edges;
        self.edges_removed += applied.removed_edges;
        self.delta_apply_seconds += applied.apply_wall_seconds;
        self.delta_touched_partitions += applied.touched_partitions;
    }

    /// Requests answered per host wall-clock second of serving.
    pub fn throughput_rps(&self) -> f64 {
        if self.serve_wall_seconds > 0.0 {
            self.requests as f64 / self.serve_wall_seconds
        } else {
            0.0
        }
    }

    /// How many received queries each executed union query stood for
    /// (1.0 = no overlap between coalesced requests).
    ///
    /// Guarded against the zero-denominator stream shapes BENCH_JSON must
    /// never see as `NaN`/`inf`: update-only streams and all-empty
    /// batches execute zero union queries and report `1.0` (no
    /// coalescing), mirroring [`ServerStats::throughput_rps`] reporting
    /// `0.0` on its zero denominator.
    pub fn coalescing_factor(&self) -> f64 {
        if self.union_queries > 0 {
            self.queries_received as f64 / self.union_queries as f64
        } else {
            1.0
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let updates = if self.updates > 0 {
            format!(
                ", {} updates (+{} -{} edges, {:.1} ms delta apply, {} partitions touched)",
                self.updates,
                self.edges_inserted,
                self.edges_removed,
                self.delta_apply_seconds * 1e3,
                self.delta_touched_partitions,
            )
        } else {
            String::new()
        };
        let workers = if self.workers > 0 {
            format!(" on {} workers", self.workers)
        } else {
            String::new()
        };
        let durability = match &self.durability {
            Some(d) => format!(
                ", durable ({} logged deltas, {} fsyncs, {} snapshots)",
                d.logged_deltas, d.fsyncs, d.snapshots_written,
            ),
            None => String::new(),
        };
        format!(
            "{} requests in {} batches{workers}: {:.1} req/s, \
             latency p50/p95/p99 {:.2}/{:.2}/{:.2} ms, \
             coalescing {:.2}x, setup {:.1} ms ({:.1} ms partition build), \
             {:.2} simulated s{updates}{durability}",
            self.requests,
            self.batches,
            self.throughput_rps(),
            self.latency.p50() * 1e3,
            self.latency.p95() * 1e3,
            self.latency.p99() * 1e3,
            self.coalescing_factor(),
            self.setup_wall_seconds * 1e3,
            self.partition_build_seconds * 1e3,
            self.simulated_seconds,
        )
    }

    /// Renders the stats as one JSON line for benchmark tracking.
    pub fn to_bench_json(&self, name: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"requests\":{},\"batches\":{},\"workers\":{},\
             \"serve_wall_seconds\":{:.6},\"setup_wall_seconds\":{:.6},\
             \"partition_build_seconds\":{:.6},\"throughput_rps\":{:.2},\
             \"latency_p50_ms\":{:.4},\
             \"latency_p95_ms\":{:.4},\"latency_p99_ms\":{:.4},\
             \"coalescing\":{:.3},\
             \"simulated_seconds\":{:.4},\"replication_factor\":{:.3},\
             \"updates\":{},\"edges_inserted\":{},\"edges_removed\":{},\
             \"delta_apply_seconds\":{:.6},\"delta_touched_partitions\":{}}}",
            self.requests,
            self.batches,
            self.workers,
            self.serve_wall_seconds,
            self.setup_wall_seconds,
            self.partition_build_seconds,
            self.throughput_rps(),
            self.latency.p50() * 1e3,
            self.latency.p95() * 1e3,
            self.latency.p99() * 1e3,
            self.coalescing_factor(),
            self.simulated_seconds,
            self.replication_factor,
            self.updates,
            self.edges_inserted,
            self.edges_removed,
            self.delta_apply_seconds,
            self.delta_touched_partitions,
        )
    }

    /// Appends [`ServerStats::to_bench_json`] to the file named by the
    /// `BENCH_JSON` environment variable, if set (the same convention the
    /// criterion harness uses).
    pub fn write_bench_json(&self, name: &str) {
        if let Ok(path) = std::env::var("BENCH_JSON") {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(f, "{}", self.to_bench_json(name));
            }
        }
    }
}

/// The request/update contract every serving runtime implements: the
/// sequential [`Server`], the worker pool's
/// [`ServeHandle`](crate::concurrent::ServeHandle) and the shard router's
/// [`RouterHandle`](crate::shard::RouterHandle). One driver loop serves a
/// stream through any of them and gets bit-identical rows.
pub trait Serving {
    /// Answers `requests`, in order. The sequential server coalesces them
    /// into one shared run; a pool or router submits them all before
    /// waiting, so its workers or shards share the work.
    ///
    /// # Errors
    ///
    /// The first failing request's [`SnapleError`].
    fn serve_batch(&mut self, requests: &[QuerySet]) -> Result<Vec<Prediction>, SnapleError>;

    /// Applies one graph update; requests answered afterwards see the
    /// mutated graph.
    ///
    /// # Errors
    ///
    /// The runtime's [`SnapleError`]; a rejected update counts nothing.
    fn apply_update(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError>;
}

/// Serves a stream of [`QuerySet`] requests against one prepared
/// predictor, coalescing batches into shared masked supersteps.
///
/// See the [module docs](self) for the model and an example.
pub struct Server<'a> {
    prepared: Box<dyn PreparedPredictor + 'a>,
    attributes: Option<&'a [Vec<u32>]>,
    seed: Option<u64>,
    stats: ServerStats,
    durability: Option<Durability>,
}

impl<'a> Server<'a> {
    /// Prepares `predictor` for `graph`/`cluster` and wraps it in a
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from [`Predictor::prepare`].
    pub fn new(
        predictor: &'a dyn Predictor,
        graph: &'a dyn GraphStore,
        cluster: &'a ClusterSpec,
    ) -> Result<Self, SnapleError> {
        let started = Instant::now();
        let prepared = predictor.prepare(&PrepareRequest::new(graph, cluster))?;
        let setup_wall_seconds = started.elapsed().as_secs_f64();
        let mut server = Server::from_prepared(prepared);
        server.stats.setup_wall_seconds = setup_wall_seconds;
        Ok(server)
    }

    /// Wraps an already-prepared predictor (e.g. one shared with other
    /// consumers of the deployment).
    pub fn from_prepared(prepared: Box<dyn PreparedPredictor + 'a>) -> Self {
        let stats = ServerStats::from_setup(prepared.setup());
        Server {
            prepared,
            attributes: None,
            seed: None,
            stats,
            durability: None,
        }
    }

    /// Attaches an opened [`Durability`] store: every subsequent
    /// [`Server::apply_update`] is persisted (commitlog append, then
    /// apply — write-ahead) and checkpointed at the store's cadence.
    ///
    /// Replay deltas recovered at open time must be applied *before*
    /// attaching, so they are not re-logged — see the
    /// [module docs](self#restartable-serving).
    pub fn attach_durability(&mut self, durability: Durability) {
        self.stats.durability = Some(durability.stats().clone());
        self.durability = Some(durability);
    }

    /// The attached durability store, if any.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Forces an fsync of the commitlog (a no-op when ephemeral or when
    /// the fsync policy is `always`).
    ///
    /// # Errors
    ///
    /// Surfaces the flush failure as [`SnapleError::Durability`].
    pub fn sync_durability(&mut self) -> Result<(), SnapleError> {
        if let Some(durable) = self.durability.as_mut() {
            durable.sync()?;
            self.stats.durability = Some(durable.stats().clone());
        }
        Ok(())
    }

    /// Attaches per-vertex content attributes applied to every request.
    pub fn with_attributes(mut self, attributes: &'a [Vec<u32>]) -> Self {
        self.attributes = Some(attributes);
        self
    }

    /// Overrides the seed of every request's randomized parts.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Statistics of the stream served so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Applies a graph-update batch to the prepared deployment *in
    /// place*, between prediction batches — the streaming-ingestion half
    /// of the serve loop.
    ///
    /// The underlying [`PreparedPredictor::apply_delta`] re-routes only
    /// the vertex-cut partitions the delta touches, so an update costs
    /// O(delta), not the O(edges) of a fresh prepare. Prediction batches
    /// served after the update return rows bit-identical to a cold
    /// rebuild on the mutated graph.
    ///
    /// When a [`Durability`] store is attached, the delta is appended to
    /// the commitlog *before* it is applied (write-ahead): a logging
    /// failure rejects the update with [`SnapleError::Durability`] and
    /// leaves the serving state unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying apply; on error the
    /// update is not counted.
    pub fn apply_update(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        write_ahead(self.durability.as_mut(), delta)?;
        let applied = self.prepared.apply_delta(delta)?;
        self.stats.record_update(&applied);
        if let Some(durable) = self.durability.as_ref() {
            self.stats.durability = Some(durable.stats().clone());
        }
        Ok(applied)
    }

    /// Answers one request (a batch of one).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying execute.
    pub fn serve(&mut self, queries: &QuerySet) -> Result<Prediction, SnapleError> {
        let mut responses = self.serve_batch(std::slice::from_ref(queries))?;
        Ok(responses.pop().expect("one response per request"))
    }

    /// Answers a batch of concurrent requests through **one** shared
    /// masked superstep run.
    ///
    /// The requests' query sets are unioned into a single mask, executed
    /// once, and the resulting rows demultiplexed per request. Each
    /// response is bit-identical to executing its request individually:
    /// queried rows match, non-queried rows are empty. Every response
    /// carries the statistics of the *shared* run (the batch's cost is
    /// not attributed to individual requests).
    ///
    /// An empty batch returns no responses and executes nothing.
    ///
    /// Each response uses [`Prediction`]'s dense per-vertex row layout
    /// (so it compares 1:1 with one-shot results) and owns a copy of the
    /// shared run's statistics; for very large graphs with tiny requests
    /// prefer reading rows out of a single [`Server::serve`] response per
    /// wave instead of demultiplexing wide batches.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying execute; on error
    /// no request of the batch is counted as served.
    pub fn serve_batch(&mut self, requests: &[QuerySet]) -> Result<Vec<Prediction>, SnapleError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let started = Instant::now();
        let (responses, cost) =
            execute_coalesced(self.prepared.as_ref(), requests, self.attributes, self.seed)?;
        let elapsed = started.elapsed().as_secs_f64();
        self.stats.serve_wall_seconds += elapsed;
        // Every request of the batch waited for the whole shared run.
        self.stats
            .record_batch(&cost, requests.iter().map(|_| elapsed));
        Ok(responses)
    }
}

impl Serving for Server<'_> {
    fn serve_batch(&mut self, requests: &[QuerySet]) -> Result<Vec<Prediction>, SnapleError> {
        Server::serve_batch(self, requests)
    }

    fn apply_update(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        Server::apply_update(self, delta)
    }
}

/// The write-ahead step of every serving runtime: appends `delta` to the
/// attached commitlog (a no-op when ephemeral) *before* the caller
/// applies it, so a logging failure rejects the update while the serving
/// state is still unchanged.
pub(crate) fn write_ahead(
    durability: Option<&mut Durability>,
    delta: &GraphDelta,
) -> Result<(), SnapleError> {
    if let Some(durable) = durability {
        durable.record(delta)?;
    }
    Ok(())
}

/// The coalesced execute every runtime answers a batch through: unions
/// the batch's query sets into one mask, executes once with the stream's
/// `attributes` and `seed`, and demultiplexes — each response carries
/// exactly its request's rows (all other rows empty) plus a copy of the
/// shared run's statistics.
///
/// # Errors
///
/// Propagates [`SnapleError`] from the execute; nothing is counted.
pub(crate) fn execute_coalesced(
    prepared: &dyn PreparedPredictor,
    requests: &[QuerySet],
    attributes: Option<&[Vec<u32>]>,
    seed: Option<u64>,
) -> Result<(Vec<Prediction>, BatchCost), SnapleError> {
    let union: QuerySet = requests.iter().flat_map(QuerySet::iter).collect();
    let mut exec = ExecuteRequest::new().with_queries(&union);
    if let Some(attrs) = attributes {
        exec = exec.with_attributes(attrs);
    }
    if let Some(seed) = seed {
        exec = exec.with_seed(seed);
    }
    let shared = prepared.execute(&exec)?;
    let responses = requests
        .iter()
        .map(|request| {
            let mut rows: Vec<Vec<(VertexId, f32)>> = vec![Vec::new(); shared.num_vertices()];
            for q in request.iter() {
                rows[q.index()] = shared.for_vertex(q).to_vec();
            }
            Prediction::from_parts(rows, shared.stats.clone())
        })
        .collect();
    let cost = BatchCost {
        queries_received: requests.iter().map(QuerySet::len).sum(),
        union_queries: union.len(),
        simulated_seconds: shared.simulated_seconds(),
    };
    Ok((responses, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NamedScore, SnapleConfig};
    use crate::predictor::Snaple;
    use crate::predictor_api::PredictRequest;
    use snaple_graph::gen::datasets;
    use snaple_graph::CsrGraph;

    fn setup() -> (CsrGraph, ClusterSpec, Snaple) {
        let graph = datasets::GOWALLA.emulate(0.005, 3);
        let cluster = ClusterSpec::type_ii(4);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(10)),
        );
        (graph, cluster, snaple)
    }

    #[test]
    fn histogram_merge_aligns_buckets_positionally() {
        // Observations that land in three distinct power-of-two buckets:
        // 3 µs → bucket 1, 100 µs → bucket 6, 5 ms → bucket 12.
        let mut a = LatencyHistogram::new();
        a.record(3e-6);
        a.record(100e-6);
        let mut b = LatencyHistogram::new();
        b.record(3e-6);
        b.record(5e-3);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        // The merge is positional: bucket-by-bucket sums, identical to
        // recording the pooled observations directly.
        let mut pooled = LatencyHistogram::new();
        for s in [3e-6, 100e-6, 3e-6, 5e-3] {
            pooled.record(s);
        }
        assert_eq!(merged.bucket_counts(), pooled.bucket_counts());
        assert_eq!(merged, pooled);
    }

    #[test]
    fn histogram_quantiles_after_merge_match_pooled_recording() {
        // 90 fast observations in one histogram, 10 slow in another: the
        // merged p50 must sit in the fast bucket and p99 in the slow one,
        // exactly as if a single histogram had seen all 100.
        let mut fast = LatencyHistogram::new();
        for _ in 0..90 {
            fast.record(10e-6);
        }
        let mut slow = LatencyHistogram::new();
        for _ in 0..10 {
            slow.record(50e-3);
        }
        let mut merged = fast.clone();
        merged.merge(&slow);
        let mut pooled = LatencyHistogram::new();
        for _ in 0..90 {
            pooled.record(10e-6);
        }
        for _ in 0..10 {
            pooled.record(50e-3);
        }
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), pooled.quantile(q), "q={q}");
        }
        assert!(merged.p50() < 1e-3, "p50 must stay in the fast bucket");
        assert!(merged.p99() > 1e-2, "p99 must reach the slow bucket");
        // Merging an empty histogram is the identity.
        let before = merged.clone();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, before);
    }

    #[test]
    fn histogram_bucket_counts_round_trip() {
        let mut h = LatencyHistogram::new();
        for s in [1e-6, 3e-6, 1e-4, 2e-2, 7.0] {
            h.record(s);
        }
        let rebuilt = LatencyHistogram::from_bucket_counts(h.bucket_counts());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), 5);
        assert_eq!(LatencyHistogram::from_bucket_counts(&[]).count(), 0);
    }

    #[test]
    fn batched_responses_are_bit_identical_to_individual_predicts() {
        let (graph, cluster, snaple) = setup();
        let requests: Vec<QuerySet> = (0..5)
            .map(|i| QuerySet::sample(graph.num_vertices(), 40, i))
            .collect();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let responses = server.serve_batch(&requests).unwrap();
        assert_eq!(responses.len(), requests.len());
        for (request, response) in requests.iter().zip(&responses) {
            let individual = Predictor::predict(
                &snaple,
                &PredictRequest::new(&graph, &cluster).with_queries(request),
            )
            .unwrap();
            for (u, preds) in response.iter() {
                if request.contains(u) {
                    assert_eq!(preds, individual.for_vertex(u), "queried row {u}");
                } else {
                    assert!(preds.is_empty(), "non-queried row {u} must stay empty");
                }
            }
        }
    }

    #[test]
    fn serve_and_serve_batch_agree() {
        let (graph, cluster, snaple) = setup();
        let q = QuerySet::sample(graph.num_vertices(), 30, 9);
        let mut batched = Server::new(&snaple, &graph, &cluster).unwrap();
        let from_batch = batched.serve_batch(std::slice::from_ref(&q)).unwrap();
        let mut single = Server::new(&snaple, &graph, &cluster).unwrap();
        let from_serve = single.serve(&q).unwrap();
        for (u, preds) in from_serve.iter() {
            assert_eq!(preds, from_batch[0].for_vertex(u));
        }
    }

    #[test]
    fn stats_track_the_stream_and_coalescing() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        assert!(server.stats().setup_wall_seconds > 0.0);
        assert!(server.stats().partition_build_seconds > 0.0);
        assert!(server.stats().replication_factor >= 1.0);
        assert_eq!(server.stats().requests, 0);

        // Two identical requests coalesce perfectly: the union is half
        // the received query volume.
        let q = QuerySet::sample(graph.num_vertices(), 50, 1);
        server.serve_batch(&[q.clone(), q.clone()]).unwrap();
        server.serve(&q).unwrap();
        let stats = server.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries_received, 150);
        assert_eq!(stats.union_queries, 100);
        assert!((stats.coalescing_factor() - 1.5).abs() < 1e-12);
        assert!(stats.throughput_rps() > 0.0);
        assert!(stats.simulated_seconds > 0.0);
        let json = stats.to_bench_json("unit");
        assert!(json.starts_with("{\"name\":\"unit\""), "{json}");
        assert!(json.contains("\"requests\":3"), "{json}");
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn zero_request_streams_emit_finite_stats() {
        // A server that never served: every accessor must stay finite
        // (no 0/0 NaN) and the BENCH_JSON line must carry no NaN/inf.
        let stats = ServerStats::default();
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.coalescing_factor(), 1.0);
        let json = stats.to_bench_json("empty-stream");
        assert!(!json.contains("NaN") && !json.contains("nan"), "{json}");
        assert!(!json.contains("inf"), "{json}");
        assert!(!stats.summary().contains("NaN"), "{}", stats.summary());

        let (graph, cluster, snaple) = setup();
        let server = Server::new(&snaple, &graph, &cluster).unwrap();
        let json = server.stats().to_bench_json("prepared-only");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn batches_with_empty_union_masks_are_served_cleanly() {
        // Every request in the batch is empty: the union mask has no
        // active vertex, nothing is predicted, and the stats stay
        // finite (coalescing_factor guards its 0/0 case).
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let empties = vec![QuerySet::from_indices([]), QuerySet::from_indices([])];
        let responses = server.serve_batch(&empties).unwrap();
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.total_predictions() == 0));
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.union_queries, 0);
        assert_eq!(stats.coalescing_factor(), 1.0, "0/0 must not be NaN");
        assert!(stats.throughput_rps().is_finite());
        let json = stats.to_bench_json("empty-union");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn zero_wall_second_accessors_do_not_divide_by_zero() {
        let stats = ServerStats {
            requests: 5,
            batches: 1,
            queries_received: 50,
            union_queries: 0,
            serve_wall_seconds: 0.0,
            ..ServerStats::default()
        };
        assert_eq!(stats.throughput_rps(), 0.0, "0-second stream is 0 rps");
        assert_eq!(stats.coalescing_factor(), 1.0);
        let json = stats.to_bench_json("zero-wall");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        assert!(json.contains("\"throughput_rps\":0.00"), "{json}");
    }

    #[test]
    fn empty_batches_and_empty_query_sets_are_fine() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        assert!(server.serve_batch(&[]).unwrap().is_empty());
        assert_eq!(server.stats().batches, 0);
        let empty = QuerySet::from_indices([]);
        let response = server.serve(&empty).unwrap();
        assert_eq!(response.total_predictions(), 0);
    }

    #[test]
    fn updates_interleave_with_predictions_and_match_cold_rebuilds() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let q = QuerySet::sample(graph.num_vertices(), 40, 2);
        server.serve(&q).unwrap();

        // Update batch: retract the first few edges, add a few new ones.
        let mut delta = GraphDelta::new();
        for (u, v) in graph.edges().take(4) {
            delta.remove(u.as_u32(), v.as_u32());
        }
        let n = graph.num_vertices() as u32;
        delta.insert(0, n - 1).insert(1, n - 2).insert(n - 1, 0);
        let applied = server.apply_update(&delta).unwrap();
        assert_eq!(applied.removed_edges, 4);
        assert!(applied.inserted_edges >= 2, "{applied:?}");

        // Post-update predictions must be bit-identical to a cold
        // prepare on the mutated graph.
        let mutated = graph.compact(&delta);
        let mut cold = Server::new(&snaple, &mutated, &cluster).unwrap();
        let after = server.serve(&q).unwrap();
        let expected = cold.serve(&q).unwrap();
        for (u, preds) in after.iter() {
            assert_eq!(preds, expected.for_vertex(u), "row {u}");
        }

        let stats = server.stats();
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.edges_removed, 4);
        assert_eq!(stats.edges_inserted, applied.inserted_edges);
        assert!(stats.delta_apply_seconds > 0.0);
        assert!(stats.delta_touched_partitions >= 1);
        assert!(stats.summary().contains("1 updates"), "{}", stats.summary());
        let json = stats.to_bench_json("upd");
        assert!(json.contains("\"updates\":1"), "{json}");
        // Per-run stats surface the deployment's cumulative delta costs.
        assert!(after.stats.delta_apply_seconds > 0.0);
        assert_eq!(expected.stats.delta_apply_seconds, 0.0);
    }

    #[test]
    fn streams_without_updates_report_zero_update_stats() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        server
            .serve(&QuerySet::sample(graph.num_vertices(), 10, 0))
            .unwrap();
        let stats = server.stats();
        assert_eq!(stats.updates, 0);
        assert_eq!(stats.delta_apply_seconds, 0.0);
        assert!(!stats.summary().contains("updates"), "{}", stats.summary());
    }

    #[test]
    fn out_of_range_requests_fail_without_counting() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let bad = QuerySet::from_indices([graph.num_vertices() as u32 + 10]);
        assert!(matches!(
            server.serve(&bad),
            Err(SnapleError::InvalidConfig(_))
        ));
        assert_eq!(server.stats().requests, 0);
    }

    #[test]
    fn failing_batches_leave_stats_entirely_untouched() {
        // Regression: stats must be recorded only after a successful run.
        // A mid-stream failing batch — after real traffic — must leave
        // every field (requests, batches, wall time, latency histogram)
        // exactly as it was, not count work that produced no responses.
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let good = QuerySet::sample(graph.num_vertices(), 30, 4);
        server.serve_batch(&[good.clone(), good.clone()]).unwrap();
        let before = server.stats().clone();
        assert_eq!(before.requests, 2);

        let bad = QuerySet::from_indices([graph.num_vertices() as u32 + 1]);
        // A batch mixing good and bad requests fails as a whole...
        assert!(server.serve_batch(&[good.clone(), bad]).is_err());
        // ...and no field moved — not even wall seconds or the histogram.
        assert_eq!(server.stats(), &before);

        // The stream keeps working afterwards.
        server.serve(&good).unwrap();
        assert_eq!(server.stats().requests, 3);
    }

    #[test]
    fn update_only_streams_emit_finite_stats() {
        // Regression for the zero-denominator class: a stream containing
        // only update requests executes zero queries and zero batches, so
        // coalescing_factor (received/union) and throughput_rps both sit
        // on 0/0 holes. BENCH_JSON must see finite numbers, not inf/NaN.
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let n = graph.num_vertices() as u32;
        let mut delta = GraphDelta::new();
        delta.insert(0, n - 1);
        server.apply_update(&delta).unwrap();
        let mut delta = GraphDelta::new();
        delta.remove(0, n - 1);
        server.apply_update(&delta).unwrap();

        let stats = server.stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.union_queries, 0);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.coalescing_factor(), 1.0, "0/0 must not be NaN");
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.latency.p50(), 0.0, "empty histogram percentiles");
        assert_eq!(stats.latency.p99(), 0.0);
        let json = stats.to_bench_json("update-only");
        assert!(!json.contains("NaN") && !json.contains("nan"), "{json}");
        assert!(!json.contains("inf"), "{json}");
        let summary = stats.summary();
        assert!(
            !summary.contains("NaN") && !summary.contains("inf"),
            "{summary}"
        );
        assert!(summary.contains("2 updates"), "{summary}");
    }

    #[test]
    fn latency_histogram_records_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        for _ in 0..98 {
            h.record(1e-3); // ~1 ms
        }
        h.record(1.0); // one 1 s outlier
        h.record(2.0); // one 2 s outlier
        assert_eq!(h.count(), 100);
        // p50 stays in the millisecond bucket (within the 2x bucket
        // resolution), p99 reaches the outliers.
        assert!(h.p50() > 0.4e-3 && h.p50() < 2.1e-3, "{}", h.p50());
        assert!(h.p95() < 2.1e-3, "{}", h.p95());
        assert!(h.p99() > 0.5, "{}", h.p99());
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());

        // Extremes clamp instead of panicking.
        h.record(0.0);
        h.record(-1.0);
        h.record(1e9);
        assert_eq!(h.count(), 103);
        assert!(h.quantile(1.0).is_finite());

        // Merging accumulates counts bucket-by-bucket.
        let mut other = LatencyHistogram::new();
        other.record(1e-3);
        other.merge(&h);
        assert_eq!(other.count(), 104);
    }

    #[test]
    fn serving_records_latency_percentiles() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        for seed in 0..5 {
            server
                .serve(&QuerySet::sample(graph.num_vertices(), 20, seed))
                .unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.latency.count(), 5, "one recording per request");
        assert!(stats.latency.p50() > 0.0);
        assert!(stats.latency.p50() <= stats.latency.p99());
        let json = stats.to_bench_json("latency");
        assert!(json.contains("\"latency_p50_ms\":"), "{json}");
        assert!(json.contains("\"latency_p99_ms\":"), "{json}");
        assert!(json.contains("\"workers\":0"), "{json}");
        assert!(
            stats.summary().contains("p50/p95/p99"),
            "{}",
            stats.summary()
        );
    }
}
