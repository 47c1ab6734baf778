//! Per-layer metrics of a traced pass, measured from outside each layer:
//! spans around calls into its public functions, the decorator's log, and
//! the counters the program itself reports.

use std::collections::BTreeMap;

use snaple_gas::StepStats;
use snaple_store::DurabilityStats;

use crate::probe::ExecRecord;
use crate::stats::{mean, median};
use crate::trace::{layer_times, Span};
use crate::Metric;

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them. A layer a workload bypasses reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("graph.open_s", "s"),
    ("graph.fault_s", "s"),
    ("graph.hydrate_s", "s"),
    ("graph.store_mb", "MB"),
    ("partition.build_s", "s"),
    ("partition.replication", "ratio"),
    ("partition.static_mb", "MB"),
    ("engine.execute_ms", "ms"),
    ("engine.union_queries", "count"),
    ("engine.neighborhood.gather_calls", "count"),
    ("engine.neighborhood.work_ops", "count"),
    ("engine.neighborhood.net_bytes", "bytes"),
    ("engine.similarity.gather_calls", "count"),
    ("engine.similarity.work_ops", "count"),
    ("engine.similarity.net_bytes", "bytes"),
    ("engine.score.gather_calls", "count"),
    ("engine.score.work_ops", "count"),
    ("engine.score.net_bytes", "bytes"),
    ("engine.sim_per_host", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.post_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.batch_requests", "count"),
    ("serve.coalescing", "ratio"),
    ("serve.backlog_max", "count"),
    ("serve.gen_late_ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.touched_partitions", "count"),
    ("store.record_ms", "ms"),
    ("store.fsyncs", "count"),
    ("store.logged_bytes", "bytes"),
    ("store.snapshots", "count"),
    ("store.snapshot_s", "s"),
    ("store.open_s", "s"),
    ("store.replayed", "count"),
    ("graph.total_s", "s"),
    ("graph.self_s", "s"),
    ("partition.total_s", "s"),
    ("partition.self_s", "s"),
    ("engine.total_s", "s"),
    ("engine.self_s", "s"),
    ("serve.total_s", "s"),
    ("serve.self_s", "s"),
    ("delta.total_s", "s"),
    ("delta.self_s", "s"),
    ("store.total_s", "s"),
    ("store.self_s", "s"),
];

/// Raw observations a traced pass collects; see [`metrics`].
#[derive(Default)]
pub struct LayerSamples {
    pub open_s: Vec<f64>,
    pub fault_s: Vec<f64>,
    pub hydrate_s: Vec<f64>,
    pub store_bytes: u64,
    pub build_s: Vec<f64>,
    pub replication: f64,
    pub static_bytes: u64,
    pub execs: Vec<ExecRecord>,
    /// Step counters of the workload's first, deterministic execute.
    pub guard_steps: Vec<StepStats>,
    pub queue_wait_ms: Vec<f64>,
    pub post_ms: Vec<f64>,
    pub residual_ms: f64,
    pub batch_requests: f64,
    pub coalescing: f64,
    pub backlog_max: usize,
    pub gen_late_ms: Vec<f64>,
    pub delta_apply_ms: Vec<f64>,
    pub touched_partitions: Vec<f64>,
    pub record_ms: Vec<f64>,
    pub durability: Option<DurabilityStats>,
    pub store_open_s: Vec<f64>,
    pub replayed: usize,
}

/// `(gather_calls, work_ops, net_bytes)` summed over the steps whose name
/// contains `key`.
fn step_counts(steps: &[StepStats], key: &str) -> [f64; 3] {
    steps
        .iter()
        .filter(|s| s.name.contains(key))
        .fold([0.0; 3], |acc, s| {
            [
                acc[0] + s.gather_calls as f64,
                acc[1] + s.work_ops as f64,
                acc[2] + s.network_bytes() as f64,
            ]
        })
}

/// Turns a traced pass's observations and spans into the metrics of
/// [`LAYER_METRICS`], in that order.
pub fn metrics(s: &LayerSamples, spans: &[Span]) -> Vec<Metric> {
    let mut v: BTreeMap<String, (f64, String)> = BTreeMap::new();
    let mut put = |name: String, value: f64, note: String| {
        v.insert(name, (value, note));
    };
    let n = |xs: &[f64]| format!("median of {}", xs.len());
    put("graph.open_s".into(), median(&s.open_s), n(&s.open_s));
    put("graph.fault_s".into(), median(&s.fault_s), n(&s.fault_s));
    put(
        "graph.hydrate_s".into(),
        median(&s.hydrate_s),
        n(&s.hydrate_s),
    );
    put(
        "graph.store_mb".into(),
        s.store_bytes as f64 / 1e6,
        String::new(),
    );
    put(
        "partition.build_s".into(),
        median(&s.build_s),
        n(&s.build_s),
    );
    put("partition.replication".into(), s.replication, String::new());
    put(
        "partition.static_mb".into(),
        s.static_bytes as f64 / 1e6,
        "simulated".into(),
    );

    let exec_ms: Vec<f64> = s
        .execs
        .iter()
        .map(|e| (e.end - e.start).as_secs_f64() * 1e3)
        .collect();
    put(
        "engine.execute_ms".into(),
        median(&exec_ms),
        format!("median of {} calls", exec_ms.len()),
    );
    let union: Vec<f64> = s
        .execs
        .iter()
        .map(|e| e.queries.as_ref().map_or(f64::NAN, |q| q.len() as f64))
        .collect();
    let all_vertices = union.iter().any(|u| u.is_nan());
    put(
        "engine.union_queries".into(),
        if all_vertices { 0.0 } else { mean(&union) },
        if all_vertices {
            "all-vertices runs".into()
        } else {
            "mean mask size per call".into()
        },
    );
    for step in ["neighborhood", "similarity", "score"] {
        let counts = step_counts(&s.guard_steps, step);
        for (field, value) in ["gather_calls", "work_ops", "net_bytes"]
            .into_iter()
            .zip(counts)
        {
            put(
                format!("engine.{step}.{field}"),
                value,
                "first execute".into(),
            );
        }
    }
    let host: f64 = exec_ms.iter().sum::<f64>() / 1e3;
    let sim: f64 = s.execs.iter().map(|e| e.simulated_seconds).sum();
    put(
        "engine.sim_per_host".into(),
        if host > 0.0 { sim / host } else { 0.0 },
        String::new(),
    );

    put(
        "serve.queue_wait_ms".into(),
        median(&s.queue_wait_ms),
        n(&s.queue_wait_ms),
    );
    put("serve.post_ms".into(), median(&s.post_ms), n(&s.post_ms));
    put(
        "serve.residual_ms".into(),
        s.residual_ms,
        "p50 latency minus p50 execute+wait+post".into(),
    );
    put(
        "serve.batch_requests".into(),
        s.batch_requests,
        "requests per batch".into(),
    );
    put(
        "serve.coalescing".into(),
        s.coalescing,
        "queries received per union query".into(),
    );
    put(
        "serve.backlog_max".into(),
        s.backlog_max as f64,
        "queue length at sends".into(),
    );
    let late_max = s.gen_late_ms.iter().copied().fold(0.0, f64::max);
    put(
        "serve.gen_late_ms".into(),
        late_max,
        format!("max of {}", s.gen_late_ms.len()),
    );

    put(
        "delta.apply_ms".into(),
        median(&s.delta_apply_ms),
        n(&s.delta_apply_ms),
    );
    put(
        "delta.touched_partitions".into(),
        mean(&s.touched_partitions),
        "mean per delta".into(),
    );
    put(
        "store.record_ms".into(),
        median(&s.record_ms),
        n(&s.record_ms),
    );
    let d = s.durability.clone().unwrap_or_default();
    put("store.fsyncs".into(), d.fsyncs as f64, String::new());
    put(
        "store.logged_bytes".into(),
        d.logged_bytes as f64,
        String::new(),
    );
    put(
        "store.snapshots".into(),
        d.snapshots_written as f64,
        String::new(),
    );
    put(
        "store.snapshot_s".into(),
        d.snapshot_wall_seconds,
        "total".into(),
    );
    put(
        "store.open_s".into(),
        median(&s.store_open_s),
        n(&s.store_open_s),
    );
    put(
        "store.replayed".into(),
        s.replayed as f64,
        "frames per recovery".into(),
    );

    let times = layer_times(spans);
    for layer in ["graph", "partition", "engine", "serve", "delta", "store"] {
        let (total, own) = times.get(layer).copied().unwrap_or_default();
        put(format!("{layer}.total_s"), total, "span time".into());
        put(
            format!("{layer}.self_s"),
            own,
            "span time minus children".into(),
        );
    }

    let out = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let (value, note) = v.remove(name).expect("every listed metric is computed");
            Metric::new(name, value, unit, note)
        })
        .collect();
    assert!(v.is_empty(), "computed but not listed: {v:?}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a `--trace 1` run prints must be the `per_layer` names
    /// of `BENCHMARK.json`, in order, followed by the tracing overhead.
    #[test]
    fn layer_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let names: Vec<&str> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut want: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        want.extend(["trace.overhead_ms", "trace.overhead_pct", "trace.spans"]);
        assert_eq!(names, want);
    }

    #[test]
    fn empty_samples_report_every_metric_as_zero() {
        let out = metrics(&LayerSamples::default(), &[]);
        assert_eq!(out.len(), LAYER_METRICS.len());
        assert!(out.iter().all(|m| m.value == 0.0), "{out:?}");
    }
}
