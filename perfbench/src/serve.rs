//! `serve-skewed`: read-only serving through the concurrent worker pool,
//! as `snaple-cli serve --workers 2` runs it. Requests hold 1–4 vertices
//! drawn Zipf-skewed over degree rank.
//!
//! Phase 1 is an open loop at a fixed rate: request `i` is due at
//! `start + i / rate` and its latency runs from that due time to the
//! moment the generator holds its rows. The generator never waits on one
//! ticket; it polls every outstanding ticket, so a slow early request
//! does not delay the completion time recorded for a later one. Phase 2
//! serves a fixed set of further requests with the queue kept non-empty
//! and reports requests completed per second.
//!
//! The two phases draw from two Zipf exponents. The open loop's 0.4 keeps
//! a hub-heavy mix at a cost it can sample at a steady rate; two of its
//! requests almost never name the same vertex. Saturation draws at 1.2,
//! where the requests of one full batch do name the same hubs, so the
//! union mask's dedup has work to do.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use snaple_core::{
    ConcurrentOptions, ConcurrentServer, PendingPrediction, PredictRequest, Predictor, QuerySet,
    ServeHandle, SnapleError,
};
use snaple_graph::GraphStore;

use crate::layers::LayerSamples;
use crate::probe::{ExecRecord, Probe, ProbeLog};
use crate::stats::{median, quantile, Tail};
use crate::streams::{degree_rank, ZipfStream};
use crate::trace::Tracer;
use crate::{peak_rss_mb, rows_of, secs, Ctx, Metric, Report, Rows};

/// Worker threads of the pool (`--workers`).
const WORKERS: usize = 2;
/// Requests a worker coalesces into one run (the CLI's `--batch`).
const BATCH: usize = 8;
/// Open-loop arrival rate in requests per second, over all of `--seconds`:
/// under half of what the pool sustains on a 2-core host at the commit
/// that introduced it, with room left for a host that runs slower.
pub const OPEN_LOOP_RATE: f64 = 3.0;
/// Requests kept outstanding during saturation.
const SAT_WINDOW: usize = 2 * WORKERS * BATCH;
/// Saturation then serves a fixed set of this many requests per second of
/// `--seconds`. A fixed set, rather than a fixed window, makes every run
/// time the same work. The pool completes 7–10 hub-heavy requests a
/// second on a 2-core host, so the phase adds about a third to the run.
const SAT_PER_SECOND: f64 = 3.0;
/// Zipf exponents over degree rank of the two phases (see the module
/// docs).
const OPEN_ZIPF_EXPONENT: f64 = 0.4;
const SAT_ZIPF_EXPONENT: f64 = 1.2;
/// Open-loop and saturation responses compared against one-shot
/// predictions.
const CHECKED: usize = 8;
const CHECKED_SAT: usize = 4;
/// Set-ups timed on their own before serving: one takes about 50 ms, so
/// many are needed for a steady median.
const SETUP_REPS: usize = 24;
/// Tail percentile of the open loop: 72 requests leave 18 beyond p75.
const TAIL_PERCENTILE: u32 = 75;
/// Generator sleep between polls of outstanding tickets.
const POLL: Duration = Duration::from_millis(1);

/// One open-loop request as the generator saw it.
struct Sent {
    queries: QuerySet,
    due: Instant,
    submit: Instant,
    done: Option<Instant>,
    ok: bool,
    /// Rows of the queried vertices, kept for checked requests only.
    rows: Option<Rows>,
}

struct Served {
    open: Vec<Sent>,
    /// Rows of the checked saturation requests, by saturation index.
    sat_rows: Vec<(usize, Rows)>,
    backlog_max: usize,
    /// Seconds from the first saturation submit to the last answer.
    sat_seconds: f64,
    sat_attempted: u64,
    sat_failed: u64,
}

/// Polls every outstanding ticket once; calls `done(tag, result, now)` for
/// each answered one and keeps the rest.
fn poll<T>(
    outstanding: &mut Vec<(T, PendingPrediction)>,
    mut done: impl FnMut(T, Result<snaple_core::Prediction, SnapleError>, Instant),
) {
    for (tag, ticket) in std::mem::take(outstanding) {
        match ticket.try_wait() {
            Ok(result) => done(tag, result, Instant::now()),
            Err(ticket) => outstanding.push((tag, ticket)),
        }
    }
}

fn serve_body(
    handle: ServeHandle<'_, '_>,
    streams: (&ZipfStream, &ZipfStream),
    n_open: usize,
    n_sat: usize,
    checked: (&[usize], &[usize]),
) -> Served {
    let (stream, sat_stream) = streams;
    let (checked, checked_sat) = checked;
    let mut open: Vec<Sent> = Vec::with_capacity(n_open);
    let mut outstanding: Vec<(usize, PendingPrediction)> = Vec::new();
    let mut backlog_max = 0;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / OPEN_LOOP_RATE);
    let mut next = 0;
    loop {
        if next < n_open && Instant::now() >= due(next) {
            let queries = stream.request(next as u64);
            backlog_max = backlog_max.max(handle.queue_len());
            let submit = Instant::now();
            let sent = handle.try_submit(&queries);
            let ok = sent.is_ok();
            if let Ok(ticket) = sent {
                outstanding.push((next, ticket));
            }
            open.push(Sent {
                queries,
                due: due(next),
                submit,
                done: None,
                ok,
                rows: None,
            });
            next += 1;
            continue;
        }
        poll(&mut outstanding, |i, result, now| {
            let sent = &mut open[i];
            sent.done = Some(now);
            match result {
                Ok(p) => {
                    if checked.contains(&i) {
                        sent.rows = Some(rows_of(&p, &sent.queries));
                    }
                }
                Err(_) => sent.ok = false,
            }
        });
        if next >= n_open && outstanding.is_empty() {
            break;
        }
        let now = Instant::now();
        let wake = if next < n_open {
            due(next).min(now + POLL)
        } else {
            now + POLL
        };
        thread::sleep(wake.saturating_duration_since(now));
    }

    let mut sat: Vec<(usize, PendingPrediction)> = Vec::new();
    let mut sat_rows = Vec::new();
    let (mut sent, mut failed) = (0, 0);
    let t_sat = Instant::now();
    while sent < n_sat || !sat.is_empty() {
        while sent < n_sat && sat.len() < SAT_WINDOW {
            match handle.try_submit(&sat_stream.request(sat_index(n_open, sent))) {
                Ok(ticket) => sat.push((sent, ticket)),
                Err(_) => failed += 1,
            }
            sent += 1;
        }
        poll(&mut sat, |i, result, _| match result {
            Ok(p) if checked_sat.contains(&i) => {
                let queries = sat_stream.request(sat_index(n_open, i));
                sat_rows.push((i, rows_of(&p, &queries)));
            }
            Ok(_) => {}
            Err(_) => failed += 1,
        });
        thread::sleep(POLL);
    }
    Served {
        open,
        sat_rows,
        backlog_max,
        sat_seconds: secs(t_sat),
        sat_attempted: n_sat as u64,
        sat_failed: failed,
    }
}

/// Stream index of the `i`-th saturation request: it follows the open
/// loop's indices.
fn sat_index(n_open: usize, i: usize) -> u64 {
    (n_open + i) as u64
}

/// The execute call that carried an open-loop request: among the calls
/// that started after it was submitted, ended before it was answered and
/// covered its vertices, the one that ended last.
fn carrier<'e>(sent: &Sent, execs: &'e [ExecRecord]) -> Option<&'e ExecRecord> {
    let done = sent.done?;
    execs
        .iter()
        .filter(|e| e.start >= sent.submit && e.end <= done)
        .filter(|e| {
            e.queries
                .as_ref()
                .is_some_and(|u| sent.queries.iter().all(|q| u.contains(q)))
        })
        .max_by_key(|e| e.end)
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

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_s.push(ctx.time_setup(predictor, tracer, &mut layers)?);
    }

    let t_open = Instant::now();
    let store = ctx.open_graph(tracer, None)?;
    let open_s = secs(t_open);
    let graph: &dyn GraphStore = store.as_ref();
    layers.store_bytes = graph.storage_bytes();
    let ranked = degree_rank(graph);
    let stream = ZipfStream::new(ranked.clone(), OPEN_ZIPF_EXPONENT);
    let sat_stream = ZipfStream::new(ranked, SAT_ZIPF_EXPONENT);
    let n_open = (OPEN_LOOP_RATE * ctx.seconds).ceil() as usize;
    let n_sat = (SAT_PER_SECOND * ctx.seconds).ceil() as usize;
    let checked: Vec<usize> = QuerySet::sample(n_open, CHECKED, ctx.seed)
        .iter()
        .map(|v| v.index())
        .collect();
    let checked_sat: Vec<usize> = QuerySet::sample(n_sat, CHECKED_SAT, ctx.seed ^ 0x5a7)
        .iter()
        .map(|v| v.index())
        .collect();
    let options = ConcurrentOptions::default().workers(WORKERS).batch(BATCH);
    let outcome = ConcurrentServer::run(predictor, graph, &ctx.cluster, options, |handle| {
        serve_body(
            handle,
            (&stream, &sat_stream),
            n_open,
            n_sat,
            (&checked, &checked_sat),
        )
    })
    .map_err(|e| e.to_string())?;
    let peak = peak_rss_mb();
    setup_s.push(open_s + outcome.stats.setup_wall_seconds);
    let served = outcome.value;
    let stats = outcome.stats;

    // Output check, untimed: one-shot predictions of the checked requests.
    let mut failed = served.open.iter().filter(|s| !s.ok).count() as u64 + served.sat_failed;
    for &i in &checked {
        let sent = &served.open[i];
        let reference = ctx
            .snaple
            .predict(&PredictRequest::new(graph, &ctx.cluster).with_queries(&sent.queries))
            .map_err(|e| e.to_string())?;
        if layers.guard_steps.is_empty() {
            layers.guard_steps = reference.stats.steps.clone();
        }
        if sent.ok && sent.rows.as_ref() != Some(&rows_of(&reference, &sent.queries)) {
            failed += 1;
        }
    }
    // Saturation responses come out of deduplicated union masks.
    for (i, rows) in &served.sat_rows {
        let queries = sat_stream.request(sat_index(n_open, *i));
        let reference = ctx
            .snaple
            .predict(&PredictRequest::new(graph, &ctx.cluster).with_queries(&queries))
            .map_err(|e| e.to_string())?;
        if *rows != rows_of(&reference, &queries) {
            failed += 1;
        }
    }

    let latency_ms: Vec<f64> = served
        .open
        .iter()
        .filter(|s| s.ok)
        .filter_map(|s| s.done.map(|d| (d - s.due).as_secs_f64() * 1e3))
        .collect();
    let late_ms: Vec<f64> = served
        .open
        .iter()
        .map(|s| s.submit.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    let p50 = median(&latency_ms);
    let tail = Tail::of(&latency_ms, TAIL_PERCENTILE);
    let sat_rps = (n_sat as u64 - served.sat_failed) as f64 / served.sat_seconds;

    if tracer.enabled() {
        let execs = log.execs();
        let mut unmatched = 0;
        let (mut waits, mut posts) = (Vec::new(), Vec::new());
        let mut carriers: Vec<ExecRecord> = Vec::new();
        for (r, sent) in served.open.iter().enumerate() {
            let (Some(done), Some(e)) = (sent.done, carrier(sent, &execs)) else {
                unmatched += usize::from(sent.ok);
                continue;
            };
            let root = tracer.record("serve.request", sent.due, done, None, Some(r as u64));
            tracer.record(
                "bench.gen_late",
                sent.due,
                sent.submit,
                root,
                Some(r as u64),
            );
            tracer.record(
                "serve.queue_wait",
                sent.submit,
                e.start,
                root,
                Some(r as u64),
            );
            tracer.record("engine.execute", e.start, e.end, root, Some(r as u64));
            tracer.record("serve.post", e.end, done, root, Some(r as u64));
            waits.push((e.start - sent.submit).as_secs_f64() * 1e3);
            posts.push((done - e.end).as_secs_f64() * 1e3);
            if !carriers
                .iter()
                .any(|c| c.start == e.start && c.end == e.end)
            {
                carriers.push(e.clone());
            }
        }
        if unmatched > 0 {
            eprintln!("perfbench: {unmatched} open-loop requests matched no execute call");
        }
        // The open loop's calls only: saturation batches are larger and
        // would not describe the latency measured above.
        let exec_ms: Vec<f64> = carriers
            .iter()
            .map(|e| (e.end - e.start).as_secs_f64() * 1e3)
            .collect();
        layers.residual_ms = p50 - (median(&exec_ms) + median(&waits) + median(&posts));
        layers.queue_wait_ms = waits;
        layers.post_ms = posts;
        layers.execs = carriers;
        layers.gen_late_ms = late_ms.clone();
        layers.backlog_max = served.backlog_max;
        layers.batch_requests = stats.requests as f64 / stats.batches.max(1) as f64;
        layers.coalescing = stats.queries_received as f64 / stats.union_queries.max(1) as f64;
        layers.static_bytes = ctx.static_bytes(graph)?;
    }

    let attempted = served.open.len() as u64 + served.sat_attempted;
    Ok(Report {
        attempted,
        failed,
        checked: (checked.len() + served.sat_rows.len()) as u64,
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
                p50,
                "ms",
                format!("open loop from due time; n={}", tail.n),
            ),
            Metric::new("latency_tail_ms", tail.value, "ms", tail.note()),
            Metric::new(
                "throughput_per_s",
                sat_rps,
                "1/s",
                format!(
                    "saturation, {n_sat} requests in {:.1} s",
                    served.sat_seconds
                ),
            ),
        ],
        detail: vec![
            Metric::new("serve_p50_ms", p50, "ms", format!("n={}", tail.n)),
            Metric::new(
                &format!("serve_p{TAIL_PERCENTILE}_ms"),
                tail.value,
                "ms",
                tail.note(),
            ),
            Metric::new(
                "serve_sat_rps",
                sat_rps,
                "req/s",
                format!("{n_sat} requests, {WORKERS} workers, batch {BATCH}"),
            ),
            Metric::new(
                "open_loop_rate",
                OPEN_LOOP_RATE,
                "req/s",
                format!("{} requests", served.open.len()),
            ),
            Metric::new("gen_late_p50_ms", median(&late_ms), "ms", ""),
            Metric::new(
                "gen_late_max_ms",
                quantile(&late_ms, 1.0).unwrap_or(0.0),
                "ms",
                "",
            ),
            Metric::new(
                "backlog_max",
                served.backlog_max as f64,
                "count",
                "queue length at sends",
            ),
            Metric::new(
                "requests_per_batch",
                stats.requests as f64 / stats.batches.max(1) as f64,
                "count",
                "both phases",
            ),
        ],
        layers,
    })
}
