//! Quickstart: predict missing links on a small social graph, serve a
//! request stream against the same graph, then evaluate several scoring
//! configurations at once with a fused [`ScorePlan`](snaple::core::ScorePlan).
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use snaple::core::serve::Server;
use snaple::core::{
    ExecuteRequest, NamedScore, PredictRequest, Predictor, PrepareRequest, QuerySet, ScorePlan,
    Snaple, SnapleConfig,
};
use snaple::eval::table::fmt_millis;
use snaple::eval::{metrics, HoldOut, TextTable};
use snaple::gas::ClusterSpec;
use snaple::graph::gen::datasets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Get a graph. Here: an emulation of the paper's gowalla dataset at
    //    2% scale (~4k vertices). Swap in `snaple::graph::io::read_edge_list`
    //    to load your own edge list.
    let graph = datasets::GOWALLA.emulate(0.02, 42);
    println!(
        "graph: {} vertices, {} directed edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Hold out one outgoing edge per vertex (the paper's protocol) so we
    //    can check prediction quality afterwards.
    let holdout = HoldOut::remove_edges(&graph, 1, 7);
    println!("held out {} edges for evaluation", holdout.num_removed());

    // 3. Configure SNAPLE: linearSum scoring (the paper's best all-round
    //    configuration), k = 5 predictions per vertex, klocal = 20.
    let config = SnapleConfig::new(NamedScore::LinearSum)
        .k(5)
        .klocal(Some(20))
        .thr_gamma(Some(200));
    let snaple = Snaple::new(config);

    // 4. Pick a (simulated) deployment: 4 of the paper's type-II machines.
    let cluster = ClusterSpec::type_ii(4);

    // 5. Predict: every backend answers the same PredictRequest — graph,
    //    cluster, and optionally a query subset (see who_to_follow.rs).
    let prediction = Predictor::predict(&snaple, &PredictRequest::new(&holdout.train, &cluster))?;

    // 6. Inspect results.
    let recall = metrics::recall(&prediction, &holdout);
    println!();
    println!("results");
    println!("  recall@5            {recall:.3}");
    println!(
        "  simulated time      {:.1}s on {} cores",
        prediction.simulated_seconds(),
        cluster.total_cores()
    );
    println!(
        "  network traffic     {:.1} MB",
        prediction.stats.total_network_bytes() as f64 / 1e6
    );
    println!(
        "  replication factor  {:.2}",
        prediction.stats.replication_factor
    );

    // Show a few concrete recommendations.
    println!();
    println!("sample predictions:");
    for (u, preds) in prediction.iter().filter(|(_, p)| !p.is_empty()).take(5) {
        let rendered: Vec<String> = preds.iter().map(|(z, s)| format!("{z} ({s:.2})")).collect();
        println!("  {u} -> {}", rendered.join(", "));
    }

    // 7. Serve a request stream: prepare once, execute many. A service
    //    answering "who to follow" for users as they come online should
    //    not rebuild the O(edges) partition per request — Server pays
    //    that setup once and coalesces concurrent requests into shared
    //    masked supersteps (rows stay bit-identical to one-shot runs).
    let mut server = Server::new(&snaple, &holdout.train, &cluster)?;
    let requests: Vec<QuerySet> = (0..20)
        .map(|i| QuerySet::sample(holdout.train.num_vertices(), 25, i))
        .collect();
    for chunk in requests.chunks(4) {
        server.serve_batch(chunk)?;
    }
    let stats = server.stats();
    println!();
    println!("serving a 20-request stream (25 users each, batches of 4):");
    let mut costs = TextTable::new(vec!["cost", "ms", "paid"]);
    costs.row(vec![
        "partition build (setup)".into(),
        fmt_millis(stats.partition_build_seconds),
        "once per stream".into(),
    ]);
    costs.row(vec![
        "prepare total (setup)".into(),
        fmt_millis(stats.setup_wall_seconds),
        "once per stream".into(),
    ]);
    costs.row(vec![
        "p50 serve latency".into(),
        fmt_millis(stats.latency.p50()),
        "per request".into(),
    ]);
    println!("{}", costs.render());
    println!(
        "  {:.0} requests/s, coalescing {:.2}x",
        stats.throughput_rps(),
        stats.coalescing_factor()
    );

    // 8. Many scores, one sweep: a ScorePlan evaluates several scoring
    //    configurations in ONE fused traversal — each column is
    //    bit-identical to running that configuration alone, at roughly
    //    one run's gather cost instead of four. Specs parse from compact
    //    strings (see the snaple_core::spec grammar).
    let plan = ScorePlan::parse("linearSum, counter, PPR, jaccard@agg=max")?;
    let prepared = plan.prepare_plan(&PrepareRequest::new(&holdout.train, &cluster))?;
    let matrix = prepared.execute_matrix(&ExecuteRequest::new())?;
    println!();
    println!("four configurations, one fused sweep:");
    let mut sweep = TextTable::new(vec!["score", "recall@5"]);
    for col in 0..matrix.num_columns() {
        sweep.row(vec![
            matrix.labels()[col].clone(),
            format!("{:.3}", metrics::recall(&matrix.column(col), &holdout)),
        ]);
    }
    println!("{}", sweep.render());
    println!(
        "  {} gather calls for all {} columns (a per-config run pays that EACH)",
        matrix
            .stats
            .steps
            .iter()
            .map(|s| s.gather_calls)
            .sum::<u64>(),
        matrix.num_columns()
    );
    Ok(())
}
