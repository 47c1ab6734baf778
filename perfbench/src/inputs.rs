//! Input preparation: seeded RMAT graphs streamed to raw `SNPLG2` files,
//! cached by scale and seed, never timed.
//!
//! Generation runs in a child process of its own, so the out-of-core
//! builder's memory never counts toward the workload's peak RSS.

use std::path::{Path, PathBuf};
use std::process::Command;

use snaple_graph::gen::rmat::RmatConfig;
use snaple_graph::ExternalGraphBuilder;

/// First argument that turns the benchmark binary into the generator.
pub const GEN_COMMAND: &str = "gen-graph";

/// Edges drawn per vertex, as `snaple-cli graph gen` draws by default.
const EDGES_PER_VERTEX: u64 = 16;

fn graph_name(scale: u32, seed: u64) -> String {
    format!("rmat-s{scale}-seed{seed}.snplg")
}

/// Returns the cached graph of `(scale, seed)`, generating it first when
/// absent. Cached graphs of the same scale and another seed are removed,
/// so the cache holds one graph per scale.
pub fn ensure_graph(work: &Path, scale: u32, seed: u64) -> Result<PathBuf, String> {
    let dir = work.join("graphs");
    let path = dir.join(graph_name(scale, seed));
    if path.exists() {
        return Ok(path);
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let prefix = format!("rmat-s{scale}-");
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let status = Command::new(exe)
        .args([GEN_COMMAND, &scale.to_string(), &seed.to_string()])
        .arg(&path)
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    if !status.success() || !path.exists() {
        return Err(format!("generating {} failed ({status})", path.display()));
    }
    Ok(path)
}

/// `gen-graph SCALE SEED OUT`: draws the RMAT graph and publishes it at
/// `OUT` by rename, so an interrupted run leaves no partial file there.
pub fn gen_main(args: &[String]) -> Result<(), String> {
    let [scale, seed, out] = args else {
        return Err(format!("usage: {GEN_COMMAND} SCALE SEED OUT"));
    };
    let scale: u32 = scale.parse().map_err(|_| "bad scale")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    if !(4..=26).contains(&scale) {
        return Err(format!("scale {scale} outside 4..=26"));
    }
    let out = PathBuf::from(out);
    let dir = out.parent().ok_or("output has no parent directory")?;
    let scratch = dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let partial = scratch.join("graph.snplg");
    let config = RmatConfig {
        scale,
        edges: EDGES_PER_VERTEX << scale,
        seed,
        ..RmatConfig::default()
    };
    let mut builder = ExternalGraphBuilder::new();
    builder.scratch_dir(&scratch);
    let result = config
        .generate_with(builder, &partial)
        .map_err(|e| e.to_string())
        .and_then(|stats| {
            std::fs::rename(&partial, &out).map_err(|e| e.to_string())?;
            eprintln!(
                "perfbench: generated {} ({} vertices, {} edges)",
                out.display(),
                stats.vertices,
                stats.edges
            );
            Ok(())
        });
    let _ = std::fs::remove_dir_all(&scratch);
    result
}
