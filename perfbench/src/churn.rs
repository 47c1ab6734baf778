//! `churn-durable`: one closed-loop caller replays a recorded mix of reads
//! and small deltas through the sequential `Server` with a data dir, as
//! `snaple-cli serve --updates FILE --data-dir DIR` does, then crashes
//! (drops the server without a shutdown) and recovers.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use snaple_core::store::{Durability, DurabilityOptions, FsyncPolicy};
use snaple_core::{Predictor, QuerySet, Server};
use snaple_graph::{CsrGraph, GraphDelta, GraphStore};

use crate::layers::LayerSamples;
use crate::probe::{Probe, ProbeLog};
use crate::stats::{median, Tail};
use crate::streams::{ChurnStream, Event};
use crate::trace::{SpanId, Tracer};
use crate::{peak_rss_mb, rows_of, secs, Ctx, Metric, Report, Rows};

/// Updates between checkpoints, the CLI's default `--snapshot-every`: a
/// run logs about 400 updates, so a few checkpoints fire.
const SNAPSHOT_EVERY: usize = 64;
/// Snapshots kept (the CLI's `--retain`).
const RETAIN: usize = 2;
/// Set-ups timed, each into a fresh data dir; the last one serves.
const SETUP_REPS: usize = 10;
/// Share of `--seconds` given to the event loop; recoveries follow.
const LOOP_SHARE: f64 = 0.85;
/// Recoveries timed from the crashed data dir.
const RECOVERIES: usize = 3;
/// Tail percentile of reads: about 360 reads a run leave 18 beyond p95.
const TAIL_PERCENTILE: u32 = 95;
/// Vertices of the timed first read after a recovery.
const PROBE_VERTICES: usize = 16;
/// Endpoints of the log tail (the updates since the last checkpoint, most
/// recent first) read untimed after a recovery, plus a few random ones.
const TAIL_PROBE_VERTICES: usize = 32;
const TAIL_PROBE_RANDOM: usize = 4;
/// The serve-config blob `snaple-cli serve` records for its defaults.
const CONFIG: &[u8] = b"score=linearSum scores=- k=5 klocal=20 thr_gamma=200 alpha=- seed=42";

fn store_options() -> DurabilityOptions {
    DurabilityOptions::default()
        .fsync(FsyncPolicy::Always)
        .snapshot_every(SNAPSHOT_EVERY)
        .retain(RETAIN)
}

/// Hydrates the base CSR and opens (or recovers) the data dir at `dir`.
fn open_durable(
    store: &dyn GraphStore,
    dir: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
    layers: &mut LayerSamples,
) -> Result<(Durability, Option<snaple_core::store::RecoveredState>), String> {
    let t = Instant::now();
    let base: CsrGraph = tracer.span("graph.hydrate", parent, |_| store.to_csr());
    layers.hydrate_s.push(secs(t));
    let t = Instant::now();
    let (durable, recovered, report) = tracer.span("store.open", parent, |_| {
        Durability::open(dir, &base, CONFIG, store_options()).map_err(|e| e.to_string())
    })?;
    if recovered.is_some() {
        layers.store_open_s.push(secs(t));
        layers.replayed = report.frames_replayed;
    }
    Ok((durable, recovered))
}

/// Hydrates, opens the data dir at `dir`, prepares and attaches the
/// store: `snaple-cli serve --data-dir` from a loaded graph to ready.
/// Traced passes fault the file in first, timed apart.
fn set_up<'a>(
    ctx: &'a Ctx,
    predictor: &'a dyn Predictor,
    graph: &'a dyn GraphStore,
    dir: &Path,
    tracer: &Tracer,
    layers: &mut LayerSamples,
) -> Result<Server<'a>, String> {
    if tracer.enabled() {
        let t = Instant::now();
        tracer.span("graph.fault", None, |_| {
            graph.hydrate().map_err(|e| e.to_string())
        })?;
        layers.fault_s.push(secs(t));
    }
    let (durable, _) = open_durable(graph, dir, tracer, None, layers)?;
    let t = Instant::now();
    let mut server = tracer
        .span("partition.build", None, |_| {
            Server::new(predictor, graph, &ctx.cluster)
        })
        .map_err(|e| e.to_string())?;
    layers.build_s.push(secs(t));
    server.attach_durability(durable);
    Ok(server)
}

/// Serves one read, recording its spans; returns the response rows, the
/// run's step counters and the `serve_batch` milliseconds.
fn read(
    server: &mut Server<'_>,
    queries: &QuerySet,
    tracer: &Tracer,
    log: &ProbeLog,
    parent: Option<SpanId>,
    layers: &mut LayerSamples,
) -> Result<(Rows, Vec<snaple_gas::StepStats>, f64), String> {
    let first_exec = log.exec_count();
    let t0 = Instant::now();
    let out = server.serve_batch(std::slice::from_ref(queries));
    let t1 = Instant::now();
    let response = out.map_err(|e| e.to_string())?;
    let response = response.first().ok_or("no response")?;
    if tracer.enabled() {
        let root = tracer.record("bench.read", t0, t1, parent, None);
        for e in log.execs_since(first_exec) {
            tracer.record("serve.queue_wait", t0, e.start, root, None);
            tracer.record("engine.execute", e.start, e.end, root, None);
            tracer.record("serve.post", e.end, t1, root, None);
            layers
                .queue_wait_ms
                .push((e.start - t0).as_secs_f64() * 1e3);
            layers.post_ms.push((t1 - e.end).as_secs_f64() * 1e3);
        }
    }
    let ms = (t1 - t0).as_secs_f64() * 1e3;
    Ok((rows_of(response, queries), response.stats.steps.clone(), ms))
}

/// Serves one read outside every span and sample; returns its rows.
fn read_untraced(
    server: &mut Server<'_>,
    queries: &QuerySet,
    log: &ProbeLog,
) -> Result<Rows, String> {
    let (rows, _, _) = read(
        server,
        queries,
        &Tracer::new(false),
        log,
        None,
        &mut LayerSamples::default(),
    )?;
    Ok(rows)
}

fn snapshots_written(server: &Server<'_>) -> usize {
    server
        .durability()
        .map_or(0, |d| d.stats().snapshots_written)
}

/// The endpoints of the most recent `tail` updates, up to
/// `TAIL_PROBE_VERTICES`, and `TAIL_PROBE_RANDOM` seeded vertices.
fn tail_probe(tail: &[GraphDelta], num_vertices: usize, seed: u64) -> QuerySet {
    let mut vertices: Vec<u32> = Vec::new();
    for delta in tail.iter().rev() {
        for (u, v, _, _) in delta.ops() {
            for w in [u, v] {
                if vertices.len() < TAIL_PROBE_VERTICES && !vertices.contains(&w) {
                    vertices.push(w);
                }
            }
        }
    }
    let random = QuerySet::sample(num_vertices, TAIL_PROBE_RANDOM, seed ^ 0x7a11);
    QuerySet::from_indices(
        vertices
            .into_iter()
            .chain(random.iter().map(|v| v.as_u32())),
    )
}

/// What a server holds after the crash point: compared between the
/// never-crashed server and each recovery.
struct Recovered {
    /// Rows of the timed first read.
    first_rows: Rows,
    /// Rows of the vertices the log tail touched.
    tail_rows: Rows,
    /// Updates since the last checkpoint (never-crashed) or frames
    /// replayed (recovered).
    replayed: usize,
    /// Edges after the tail is applied.
    num_edges: usize,
}

impl Recovered {
    const CHECKS: usize = 4;

    fn mismatches(&self, got: &Recovered) -> u64 {
        let checks = [
            ("first-read rows", self.first_rows == got.first_rows),
            ("log-tail rows", self.tail_rows == got.tail_rows),
            ("replayed frames", self.replayed == got.replayed),
            ("edge count", self.num_edges == got.num_edges),
        ];
        let mut failed = 0;
        for (what, ok) in checks {
            if !ok {
                eprintln!("perfbench: recovery differs from the never-crashed server: {what}");
                failed += 1;
            }
        }
        failed
    }
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let log = Arc::new(ProbeLog::default());
    let probe = Probe::new(&ctx.snaple, Arc::clone(&log));
    let predictor: &dyn Predictor = if tracer.enabled() {
        &probe
    } else {
        &ctx.snaple
    };
    let mut layers = LayerSamples::default();

    // Set-up: open, hydrate the durability base, open the data dir,
    // prepare. Each repetition starts from a fresh data dir; the last one
    // serves.
    let mut setup_s = Vec::new();
    let dir = ctx.run_dir.join("data");
    for _ in 0..SETUP_REPS - 1 {
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let fresh = ctx.open_graph(tracer, None)?;
        layers.open_s.push(secs(t0));
        set_up(ctx, predictor, fresh.as_ref(), &dir, tracer, &mut layers)?;
        setup_s.push(secs(t0));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let store = ctx.open_graph(tracer, None)?;
    layers.open_s.push(secs(t0));
    let graph: &dyn GraphStore = store.as_ref();
    let mut server = set_up(ctx, predictor, graph, &dir, tracer, &mut layers)?;
    setup_s.push(secs(t0));
    layers.store_bytes = graph.storage_bytes();
    layers.replication = server.stats().replication_factor;
    let mut num_edges = graph.num_edges();
    // Updates logged since the last checkpoint: the tail a recovery must
    // replay.
    let mut tail: Vec<GraphDelta> = Vec::new();

    // The closed loop.
    let stream = ChurnStream::new(ctx.seed, graph);
    let (mut read_ms, mut update_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t_loop = Instant::now();
    let mut index = 0u64;
    while secs(t_loop) < ctx.seconds * LOOP_SHARE {
        attempted += 1;
        match stream.event(index) {
            Event::Read(q) => match read(&mut server, &q, tracer, &log, None, &mut layers) {
                Ok((_, steps, ms)) => {
                    read_ms.push(ms);
                    if layers.guard_steps.is_empty() {
                        layers.guard_steps = steps;
                    }
                }
                Err(_) => failed += 1,
            },
            Event::Update(delta) => {
                let first_delta = log.delta_count();
                let snap_before = server
                    .durability()
                    .map_or(0.0, |d| d.stats().snapshot_wall_seconds);
                let snaps_before = snapshots_written(&server);
                let t0 = Instant::now();
                let applied = server.apply_update(&delta);
                let t1 = Instant::now();
                match applied {
                    Ok(stats) => {
                        update_ms.push((t1 - t0).as_secs_f64() * 1e3);
                        layers
                            .touched_partitions
                            .push(stats.touched_partitions as f64);
                        num_edges = num_edges + stats.inserted_edges - stats.removed_edges;
                        // A checkpoint taken by this update covers it.
                        if snapshots_written(&server) > snaps_before {
                            tail.clear();
                        } else {
                            tail.push(delta);
                        }
                    }
                    Err(_) => failed += 1,
                }
                if tracer.enabled() {
                    let root = tracer.record("bench.update", t0, t1, None, None);
                    for d in log.deltas_since(first_delta) {
                        let rec = tracer.record("store.record", t0, d.start, root, None);
                        let snap = server
                            .durability()
                            .map_or(0.0, |d| d.stats().snapshot_wall_seconds)
                            - snap_before;
                        if snap > 0.0 {
                            // A checkpoint closes the record call.
                            let from = d.start
                                - std::time::Duration::from_secs_f64(snap).min(d.start - t0);
                            tracer.record("store.snapshot", from, d.start, rec, None);
                        }
                        tracer.record("delta.apply", d.start, d.end, root, None);
                        layers.record_ms.push((d.start - t0).as_secs_f64() * 1e3);
                        layers
                            .delta_apply_ms
                            .push((d.end - d.start).as_secs_f64() * 1e3);
                    }
                }
            }
        }
        index += 1;
    }
    let loop_s = secs(t_loop);
    let events_per_s = index as f64 / loop_s;

    // The never-crashed server's rows on the probe sets, then the crash.
    let probe_set = QuerySet::sample(graph.num_vertices(), PROBE_VERTICES, ctx.seed ^ 0x9e37);
    let tail_set = tail_probe(&tail, graph.num_vertices(), ctx.seed);
    let want = Recovered {
        first_rows: read_untraced(&mut server, &probe_set, &log)?,
        tail_rows: read_untraced(&mut server, &tail_set, &log)?,
        replayed: tail.len(),
        num_edges,
    };
    layers.durability = server.durability().map(|d| d.stats().clone());
    let stats = server.stats();
    layers.batch_requests = stats.requests as f64 / stats.batches.max(1) as f64;
    layers.coalescing = stats.queries_received as f64 / stats.union_queries.max(1) as f64;
    drop(server);

    // Recovery: from the crash to the first correct response.
    let mut recover_s = Vec::new();
    let mut recovered = Vec::new();
    for _ in 0..RECOVERIES {
        let root = tracer.open("bench.recover", None, None);
        let t0 = Instant::now();
        let outcome = (|| {
            let fresh = ctx.open_graph(tracer, root)?;
            let (durable, recovered) =
                open_durable(fresh.as_ref(), &dir, tracer, root, &mut layers)?;
            let state = recovered.ok_or("the crashed data dir recovered nothing")?;
            let mut server = tracer
                .span("partition.build", root, |_| {
                    Server::new(predictor, &state.graph, &ctx.cluster)
                })
                .map_err(|e| e.to_string())?;
            let mut num_edges = state.graph.num_edges();
            for delta in &state.replay {
                let applied = tracer
                    .span("delta.replay", root, |_| server.apply_update(delta))
                    .map_err(|e| e.to_string())?;
                num_edges = num_edges + applied.inserted_edges - applied.removed_edges;
            }
            server.attach_durability(durable);
            let first_rows = read(
                &mut server,
                &probe_set,
                tracer,
                &log,
                root,
                &mut LayerSamples::default(),
            )?
            .0;
            let s = secs(t0);
            // Untimed: the rows the replayed tail touched.
            let tail_rows = read_untraced(&mut server, &tail_set, &log)?;
            let state = Recovered {
                first_rows,
                tail_rows,
                replayed: state.replay.len(),
                num_edges,
            };
            Ok::<_, String>((state, s))
        })();
        tracer.close(root);
        attempted += 1;
        match outcome {
            Ok((state, s)) => {
                recover_s.push(s);
                recovered.push(state);
            }
            Err(e) => {
                eprintln!("perfbench: recovery failed: {e}");
                failed += 1;
            }
        }
    }
    let peak = peak_rss_mb();
    // Output check, untimed: each recovery against the never-crashed
    // server, one failed operation per mismatch.
    for got in &recovered {
        failed += want.mismatches(got);
    }

    if tracer.enabled() {
        layers.execs = log.execs();
        let exec_ms: Vec<f64> = layers
            .execs
            .iter()
            .map(|e| (e.end - e.start).as_secs_f64() * 1e3)
            .collect();
        layers.residual_ms = median(&read_ms)
            - (median(&exec_ms) + median(&layers.queue_wait_ms) + median(&layers.post_ms));
        layers.static_bytes = ctx.static_bytes(graph)?;
    }

    let reads = read_ms.len();
    let updates = update_ms.len();
    let tail = Tail::of(&read_ms, TAIL_PERCENTILE);
    let snapshots = layers
        .durability
        .as_ref()
        .map_or(0, |d| d.snapshots_written);
    Ok(Report {
        attempted,
        failed,
        checked: (recovered.len() * Recovered::CHECKS) as u64,
        end_to_end: vec![
            Metric::new(
                "setup_s",
                median(&setup_s),
                "s",
                format!(
                    "median of {} open+hydrate+store open+prepare",
                    setup_s.len()
                ),
            ),
            Metric::new("peak_rss_mb", peak, "MB", "VmHWM"),
            Metric::new(
                "latency_p50_ms",
                median(&read_ms),
                "ms",
                format!("read; n={reads}"),
            ),
            Metric::new(
                "latency_tail_ms",
                tail.value,
                "ms",
                format!("read {}", tail.note()),
            ),
            Metric::new(
                "throughput_per_s",
                events_per_s,
                "1/s",
                format!("{reads} reads + {updates} updates in {loop_s:.1} s"),
            ),
        ],
        detail: vec![
            Metric::new("churn_events_per_s", events_per_s, "ops/s", ""),
            Metric::new(
                "churn_read_p50_ms",
                median(&read_ms),
                "ms",
                format!("n={reads}"),
            ),
            Metric::new(
                "churn_update_p50_ms",
                median(&update_ms),
                "ms",
                format!("n={updates}, {snapshots} checkpoints"),
            ),
            Metric::new(
                "recover_s",
                median(&recover_s),
                "s",
                format!(
                    "median of {}; {} frames replayed",
                    recover_s.len(),
                    want.replayed
                ),
            ),
        ],
        layers,
    })
}
