//! `batch-full`: the paper's job. Open the graph file, prepare, and run
//! one all-vertices `execute`, as `snaple-cli predict --graph-format file`
//! does.

use std::sync::Arc;
use std::time::Instant;

use snaple_core::{ExecuteRequest, PredictRequest, Predictor, PrepareRequest, QuerySet};
use snaple_graph::v2;

use crate::layers::LayerSamples;
use crate::probe::{Probe, ProbeLog};
use crate::stats::{median, Tail};
use crate::trace::Tracer;
use crate::{peak_rss_mb, rows_of, secs, Ctx, Metric, Report, Rows};

/// Set-ups timed on their own before the jobs; every job adds one more.
const SETUP_REPS: usize = 9;
/// Seconds of `--seconds` one job is sized at, about a job's length at the
/// commit that introduced it. The job count is fixed by `--seconds`
/// alone, never by elapsed time, so every run computes the same
/// statistics over the same number of jobs.
const JOB_SECONDS: f64 = 8.0;
/// Rows of every job compared against a cold in-RAM reference.
const CHECKED_ROWS: usize = 24;

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let log = Arc::new(ProbeLog::default());
    let probe = Probe::new(&ctx.snaple, Arc::clone(&log));
    let predictor: &dyn Predictor = if tracer.enabled() {
        &probe
    } else {
        &ctx.snaple
    };
    let mut layers = LayerSamples::default();
    let mut setup_s = Vec::new();

    for _ in 0..SETUP_REPS {
        setup_s.push(ctx.time_setup(predictor, tracer, &mut layers)?);
    }

    let num_vertices;
    let num_edges;
    {
        let store = ctx.open_graph(&Tracer::new(false), None)?;
        num_vertices = store.num_vertices();
        num_edges = store.num_edges();
        layers.store_bytes = store.storage_bytes();
    }
    let checked = QuerySet::sample(num_vertices, CHECKED_ROWS, ctx.seed);

    let jobs = ((ctx.seconds / JOB_SECONDS).round() as usize).max(1);
    let mut job_s = Vec::new();
    let mut exec_s = Vec::new();
    let mut job_rows: Vec<Result<Rows, String>> = Vec::new();
    for _ in 0..jobs {
        let job = tracer.open("bench.job", None, None);
        let t0 = Instant::now();
        let outcome = (|| {
            let store = ctx.open_graph(tracer, job)?;
            let t = Instant::now();
            let prepared = tracer.span("partition.build", job, |_| {
                predictor
                    .prepare(&PrepareRequest::new(store.as_ref(), &ctx.cluster))
                    .map_err(|e| e.to_string())
            })?;
            layers.build_s.push(secs(t));
            let ready = secs(t0);
            let t = Instant::now();
            let prediction = tracer.span("engine.execute", job, |_| {
                prepared
                    .execute(&ExecuteRequest::new())
                    .map_err(|e| e.to_string())
            })?;
            let done = secs(t0);
            exec_s.push(secs(t));
            setup_s.push(ready);
            if layers.guard_steps.is_empty() {
                layers.guard_steps = prediction.stats.steps.clone();
            }
            let rows = rows_of(&prediction, &checked);
            Ok::<_, String>((rows, done))
        })();
        tracer.close(job);
        match outcome {
            Ok((rows, done)) => {
                job_s.push(done);
                job_rows.push(Ok(rows));
            }
            Err(e) => {
                eprintln!("perfbench: batch job failed: {e}");
                job_rows.push(Err(e));
            }
        }
    }
    let peak = peak_rss_mb();

    // Output check, untimed: a cold in-RAM CSR decoded from the file,
    // targeted prediction for the checked rows.
    let bytes = std::fs::read(&ctx.graph_path).map_err(|e| e.to_string())?;
    let csr = v2::decode_v2(&bytes).map_err(|e| e.to_string())?;
    drop(bytes);
    let reference = ctx
        .snaple
        .predict(&PredictRequest::new(&csr, &ctx.cluster).with_queries(&checked))
        .map_err(|e| e.to_string())?;
    let want = rows_of(&reference, &checked);
    let failed = job_rows
        .iter()
        .filter(|r| r.as_ref().map_or(true, |rows| *rows != want))
        .count() as u64;
    if tracer.enabled() {
        layers.static_bytes = ctx.static_bytes(&csr)?;
        layers.execs = log.execs();
    }

    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    // A run holds a few jobs, too few for a percentile: the slowest.
    let tail = Tail::of(&job_ms, 100);
    let edges_per_s = num_edges as f64 / median(&exec_s);
    let n_jobs = job_s.len();
    Ok(Report {
        attempted: job_rows.len() as u64,
        failed,
        checked: (job_rows.len() * checked.len()) as u64,
        end_to_end: vec![
            Metric::new(
                "setup_s",
                median(&setup_s),
                "s",
                format!("median of {} open+prepare", setup_s.len()),
            ),
            Metric::new("peak_rss_mb", peak, "MB", "VmHWM"),
            Metric::new(
                "latency_p50_ms",
                median(&job_ms),
                "ms",
                format!("job, file open to every row; median of {n_jobs}"),
            ),
            Metric::new(
                "latency_tail_ms",
                tail.value,
                "ms",
                format!("slowest of {n_jobs} jobs"),
            ),
            Metric::new(
                "throughput_per_s",
                edges_per_s,
                "1/s",
                format!("edges per execute second; {num_edges} edges"),
            ),
        ],
        detail: vec![
            Metric::new(
                "batch_s",
                median(&job_s),
                "s",
                format!("median of {n_jobs} jobs"),
            ),
            Metric::new(
                "execute_s",
                median(&exec_s),
                "s",
                format!("median of {n_jobs}"),
            ),
            Metric::new("vertices", num_vertices as f64, "count", ""),
            Metric::new("edges", num_edges as f64, "count", ""),
            Metric::new(
                "checked_rows",
                checked.len() as f64,
                "count",
                "per job, vs cold in-RAM CSR",
            ),
        ],
        layers,
    })
}
