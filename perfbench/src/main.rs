//! End-to-end benchmark of the SNAPLE workspace.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-full|serve-skewed|churn-durable \
//!     --seed N --seconds S --trace 0|1 [--scale S]
//! ```
//!
//! Run from the repository root. Inputs (seeded RMAT graphs) are cached
//! under `.perfbench/`. The last line of standard output is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). See `perfbench/README.md`.

mod batch;
mod churn;
mod inputs;
mod layers;
mod probe;
mod serve;
mod stats;
mod streams;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use snaple_core::{
    NamedScore, Prediction, Predictor, PrepareRequest, QuerySet, Snaple, SnapleConfig,
};
use snaple_gas::{ClusterSpec, Deployment};
use snaple_graph::{io, GraphStore, VertexId};

use crate::trace::{SpanId, Tracer};

/// Scratch and cache directory, relative to the repository root.
pub const WORK_DIR: &str = ".perfbench";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchFull,
    ServeSkewed,
    ChurnDurable,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch-full" => Some(Workload::BatchFull),
            "serve-skewed" => Some(Workload::ServeSkewed),
            "churn-durable" => Some(Workload::ChurnDurable),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BatchFull => "batch-full",
            Workload::ServeSkewed => "serve-skewed",
            Workload::ChurnDurable => "churn-durable",
        }
    }

    /// RMAT scale of the workload's graph unless `--scale` overrides it.
    fn default_scale(self) -> u32 {
        match self {
            Workload::BatchFull => 18,
            Workload::ServeSkewed | Workload::ChurnDurable => 16,
        }
    }
}

/// Everything a workload run needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub graph_path: PathBuf,
    /// A directory of this run's own for data dirs and trace files.
    pub run_dir: PathBuf,
    pub cluster: ClusterSpec,
    pub snaple: Snaple,
}

impl Ctx {
    /// Opens the workload's graph file as `snaple-cli --graph-format file`
    /// does, recording a `graph.open` span.
    pub fn open_graph(
        &self,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<std::sync::Arc<dyn GraphStore>, String> {
        tracer.span("graph.open", parent, |_| {
            io::open_store(&self.graph_path).map_err(|e| format!("open graph: {e}"))
        })
    }

    /// Opens the graph and prepares `predictor` on it, as the CLI does;
    /// returns the seconds until ready. Traced passes fault the file in
    /// before preparing, so `graph.fault` and `partition.build` are timed
    /// apart.
    pub fn time_setup(
        &self,
        predictor: &dyn Predictor,
        tracer: &Tracer,
        layers: &mut layers::LayerSamples,
    ) -> Result<f64, String> {
        let t0 = Instant::now();
        let store = self.open_graph(tracer, None)?;
        layers.open_s.push(secs(t0));
        if tracer.enabled() {
            let t = Instant::now();
            tracer.span("graph.fault", None, |_| {
                store.hydrate().map_err(|e| e.to_string())
            })?;
            layers.fault_s.push(secs(t));
        }
        let t = Instant::now();
        let prepared = tracer.span("partition.build", None, |_| {
            predictor
                .prepare(&PrepareRequest::new(store.as_ref(), &self.cluster))
                .map_err(|e| e.to_string())
        })?;
        let ready = secs(t0);
        layers.build_s.push(secs(t));
        layers.replication = prepared.setup().replication_factor;
        Ok(ready)
    }

    /// Σ `Deployment::node_static_bytes` of a fresh deployment of `graph`:
    /// the cost model's simulated static bytes. Built outside any timed
    /// region.
    pub fn static_bytes(&self, graph: &dyn GraphStore) -> Result<u64, String> {
        let config = self.snaple.config();
        Deployment::new(graph, self.cluster.clone(), config.partition, config.seed)
            .map(|d| d.node_static_bytes().iter().sum())
            .map_err(|e| e.to_string())
    }
}

/// Predicted `(target, score)` rows of some source vertices.
pub type Rows = Vec<Vec<(VertexId, f32)>>;

/// The rows of `prediction` for the vertices of `queries`, in id order.
pub fn rows_of(prediction: &Prediction, queries: &QuerySet) -> Rows {
    queries
        .iter()
        .map(|q| prediction.for_vertex(q).to_vec())
        .collect()
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile or other context printed beside it.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// What one pass of a workload produced.
pub struct Report {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that returned an error, were refused, or whose checked
    /// output did not match the reference.
    pub failed: u64,
    /// Output comparisons made against a reference.
    pub checked: u64,
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// The workload's own metrics under the names of its design notes.
    pub detail: Vec<Metric>,
    /// Raw per-layer observations (filled on traced passes).
    pub layers: layers::LayerSamples,
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: u32,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (1u64, 10.0f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--scale" => scale = Some(value()?.parse().map_err(|_| "bad --scale")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: scale.unwrap_or(workload.default_scale()),
    })
}

/// Host CPU ticks `(busy, stolen)` from `/proc/stat`: time a virtual
/// machine's CPUs spent running and time the hypervisor ran something else.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let busy = fields.iter().take(3).sum();
    Some((busy, *fields.get(7)?))
}

fn run_pass(workload: Workload, ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let before = cpu_ticks();
    let mut report = match workload {
        Workload::BatchFull => batch::run(ctx, tracer),
        Workload::ServeSkewed => serve::run(ctx, tracer),
        Workload::ChurnDurable => churn::run(ctx, tracer),
    }?;
    // Stolen time slows every timing of the pass; printed so that a noisy
    // run can be told from a regression.
    if let (Some((b0, s0)), Some((b1, s1))) = (before, cpu_ticks()) {
        let stolen = (s1 - s0) as f64;
        let share = 100.0 * stolen / ((b1 - b0) as f64 + stolen).max(1.0);
        report.detail.push(Metric::new(
            "host_steal_pct",
            share,
            "%",
            "of busy CPU time",
        ));
    }
    Ok(report)
}

fn fmt_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "  {:<36} {:>14.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work = Path::new(WORK_DIR);
    let graph_path = inputs::ensure_graph(work, args.scale, args.seed)?;
    let run_dir = work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    // The CLI defaults of `predict` and `serve`.
    let config = SnapleConfig::new(NamedScore::LinearSum)
        .k(5)
        .klocal(Some(20))
        .thr_gamma(Some(200))
        .alpha(0.9)
        .seed(42);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        graph_path,
        run_dir: run_dir.clone(),
        cluster: ClusterSpec::type_ii(4),
        snaple: Snaple::new(config),
    };
    eprintln!(
        "perfbench: {} seed {} scale {} for {} s ({} cores, trace {})",
        args.workload.name(),
        args.seed,
        args.scale,
        args.seconds,
        snaple_gas::host_parallelism(),
        u8::from(args.trace),
    );
    let result: Result<(u64, u64, u64, Vec<Metric>), String> = (|| {
        let plain = run_pass(args.workload, &ctx, &Tracer::new(false))?;
        print_table("end-to-end", &plain.end_to_end);
        print_table(&format!("{} metrics", args.workload.name()), &plain.detail);
        if !args.trace {
            return Ok((
                plain.attempted,
                plain.failed,
                plain.checked,
                plain.end_to_end,
            ));
        }
        let tracer = Tracer::new(true);
        let traced = run_pass(args.workload, &ctx, &tracer)?;
        let trace_file = work.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_jsonl(&trace_file)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        let spans = tracer.spans();
        let mut per_layer = layers::metrics(&traced.layers, &spans);
        let (base, with) = (&plain.end_to_end[2], &traced.end_to_end[2]);
        per_layer.push(Metric::new(
            "trace.overhead_ms",
            with.value - base.value,
            "ms",
            format!("traced minus untraced {}", base.name),
        ));
        per_layer.push(Metric::new(
            "trace.overhead_pct",
            100.0 * (with.value - base.value) / base.value,
            "%",
            "",
        ));
        per_layer.push(Metric::new("trace.spans", spans.len() as f64, "count", ""));
        print_table("traced end-to-end", &traced.end_to_end);
        print_table("per-layer (traced)", &per_layer);
        eprintln!("perfbench: spans written to {}", trace_file.display());
        Ok((
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            plain.checked.min(traced.checked),
            per_layer,
        ))
    })();
    // The run's data dirs are scratch; the trace file stays.
    let _ = std::fs::remove_dir_all(&run_dir);
    let (attempted, failed, checked, metrics) = result?;
    let correct = failed == 0 && checked > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fmt_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(inputs::GEN_COMMAND) {
        return match inputs::gen_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = parse_args(&args).and_then(|a| run(&a));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
