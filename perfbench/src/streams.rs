//! Request streams: the Zipf read stream of `serve-skewed` and the
//! recorded read/update mix of `churn-durable`.
//!
//! Request sizes, read/update choices and the degree ranks read come from
//! a Kronecker sequence (`frac(offset + index * alpha)`, one irrational
//! `alpha` per dimension, fixed offsets). Its draws spread evenly over
//! `[0, 1)`, and it is the same sequence for every seed: the seed picks
//! the graph, and so which vertex holds each rank, and the edges each
//! delta names. A request's cost follows the degrees it touches, so runs
//! on different seeds serve the same mix and their spread comes from the
//! system, not from the luck of the draw. Every draw is a pure function
//! of the seed, the graph and the request index.

use snaple_core::QuerySet;
use snaple_graph::hash::{hash2, unit_f64};
use snaple_graph::{GraphDelta, GraphStore, VertexId};

/// Largest number of vertices in one read request.
pub const MAX_REQUEST_VERTICES: u64 = 4;

/// Fractional parts of `sqrt(2)`, `sqrt(3)`, `sqrt(5)`, `sqrt(7)`,
/// `sqrt(11)` and the golden ratio: one Kronecker dimension each.
const ALPHAS: [f64; 6] = [
    0.414_213_562_373_095_1,
    0.732_050_807_568_877_2,
    0.236_067_977_499_789_7,
    0.645_751_311_064_590_6,
    0.316_624_790_355_399_8,
    0.618_033_988_749_894_8,
];
/// Key of the sequence's offsets.
const SEQUENCE: u64 = 0;
/// Dimensions of the sequence.
const DIM_SIZE: usize = 0;
const DIM_KIND: usize = 1;
const DIM_VERTEX: usize = 2;

/// Salts of the hashed draws of an update's edge.
const SALT_REMOVE: u64 = 3;
const SALT_SOURCE: u64 = 16;
const SALT_TARGET: u64 = 17;

/// Draw `index` of dimension `dim` of the Kronecker sequence.
fn spread(index: u64, dim: usize) -> f64 {
    let offset = unit_f64(hash2(SEQUENCE, dim as u64, 0x5eed));
    (offset + index as f64 * ALPHAS[dim]).fract()
}

fn unit(seed: u64, index: u64, salt: u64) -> f64 {
    unit_f64(hash2(seed, index, salt))
}

/// A request size in `1..=MAX_REQUEST_VERTICES`.
fn request_size(index: u64) -> u64 {
    1 + ((spread(index, DIM_SIZE) * MAX_REQUEST_VERTICES as f64) as u64)
        .min(MAX_REQUEST_VERTICES - 1)
}

fn below(seed: u64, index: u64, salt: u64, n: u64) -> u64 {
    hash2(seed, index, salt) % n.max(1)
}

/// Vertices ordered by total degree (out + in), highest first; ties by id.
pub fn degree_rank(graph: &dyn GraphStore) -> Vec<u32> {
    let n = graph.num_vertices() as u32;
    let mut ranked: Vec<u32> = (0..n).collect();
    ranked.sort_by_key(|&v| {
        let id = VertexId::new(v);
        (
            std::cmp::Reverse(graph.out_degree(id) + graph.in_degree(id)),
            v,
        )
    });
    ranked
}

/// Read requests of 1–4 vertices, each vertex drawn Zipf-distributed over
/// degree rank: rank `r` has weight `1 / (r + 1)^exponent`.
pub struct ZipfStream {
    ranked: Vec<u32>,
    cdf: Vec<f64>,
}

impl ZipfStream {
    /// Builds the stream over `ranked` (see [`degree_rank`]).
    pub fn new(ranked: Vec<u32>, exponent: f64) -> Self {
        let weights: Vec<f64> = (0..ranked.len())
            .map(|r| ((r + 1) as f64).powf(-exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfStream { ranked, cdf }
    }

    /// The `index`-th request of the stream.
    pub fn request(&self, index: u64) -> QuerySet {
        let size = request_size(index);
        QuerySet::from_indices((0..size as usize).map(|j| {
            let u = spread(index, DIM_VERTEX + j);
            let rank = self.cdf.partition_point(|&c| c < u);
            self.ranked[rank.min(self.ranked.len() - 1)]
        }))
    }
}

/// One event of the churn mix.
#[derive(Clone, Debug)]
pub enum Event {
    /// A read of 1–4 vertices drawn uniformly over degree rank.
    Read(QuerySet),
    /// One edge insertion or removal.
    Update(GraphDelta),
}

/// Share of churn events that are updates: 50/50 reads and updates, the
/// mix of YCSB core workload A ("update heavy"; Cooper et al., SoCC 2010).
pub const UPDATE_SHARE: f64 = 0.5;

/// The recorded churn mix after YCSB core workload A: half reads of 1–4
/// vertices drawn uniformly over degree rank, half updates. A YCSB update
/// writes one record, so each update here is a delta of one edge, its
/// source drawn uniformly by the seed. Inserts and removals alternate by
/// coin so the edge count stays level over a run; that split is this
/// benchmark's choice, not YCSB's. Removals name edges of the initial
/// graph, so a removal that an earlier update already applied is a no-op
/// rather than a failure.
pub struct ChurnStream<'g> {
    seed: u64,
    graph: &'g dyn GraphStore,
    ranked: Vec<u32>,
}

impl<'g> ChurnStream<'g> {
    /// Builds the mix over the initial `graph`.
    pub fn new(seed: u64, graph: &'g dyn GraphStore) -> Self {
        ChurnStream {
            seed,
            graph,
            ranked: degree_rank(graph),
        }
    }

    /// The `index`-th event. Event 0 is always a read.
    pub fn event(&self, index: u64) -> Event {
        let n = self.graph.num_vertices() as u64;
        let seed = self.seed;
        if index == 0 || spread(index, DIM_KIND) >= UPDATE_SHARE {
            let size = request_size(index);
            return Event::Read(QuerySet::from_indices((0..size as usize).map(|j| {
                let rank = (spread(index, DIM_VERTEX + j) * n as f64) as usize;
                self.ranked[rank.min(self.ranked.len() - 1)]
            })));
        }
        let mut delta = GraphDelta::with_capacity(1);
        let u = below(seed, index, SALT_SOURCE, n) as u32;
        let out = self.graph.out_neighbors(VertexId::new(u));
        if unit(seed, index, SALT_REMOVE) < 0.5 && !out.is_empty() {
            let v = out[below(seed, index, SALT_TARGET, out.len() as u64) as usize];
            delta.remove(u, v.as_u32());
        } else {
            delta.insert(u, below(seed, index, SALT_TARGET, n) as u32);
        }
        Event::Update(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_graph::gen::rmat::RmatConfig;

    fn graph() -> snaple_graph::CsrGraph {
        RmatConfig {
            scale: 8,
            edges: 2048,
            seed: 3,
            ..RmatConfig::default()
        }
        .generate_in_ram()
    }

    fn describe(e: &Event) -> String {
        match e {
            Event::Read(q) => format!("R{:?}", q.as_slice()),
            Event::Update(d) => format!("U{:?}", d.ops().collect::<Vec<_>>()),
        }
    }

    #[test]
    fn zipf_stream_is_deterministic_and_follows_the_rank_order() {
        let g = graph();
        let a = ZipfStream::new(degree_rank(&g), 0.4);
        let b = ZipfStream::new(degree_rank(&g), 0.4);
        let ra: Vec<QuerySet> = (0..200).map(|i| a.request(i)).collect();
        let rb: Vec<QuerySet> = (0..200).map(|i| b.request(i)).collect();
        assert_eq!(ra, rb);
        for q in &ra {
            assert!((1..=MAX_REQUEST_VERTICES as usize).contains(&q.len()));
            assert!(q.iter().all(|v| v.index() < g.num_vertices()));
        }
        // Another graph puts other vertices at the same ranks.
        let mut reversed = degree_rank(&g);
        reversed.reverse();
        let c = ZipfStream::new(reversed, 0.4);
        let rc: Vec<QuerySet> = (0..200).map(|i| c.request(i)).collect();
        assert_ne!(ra, rc);
        assert_eq!(
            ra.iter().map(QuerySet::len).collect::<Vec<_>>(),
            rc.iter().map(QuerySet::len).collect::<Vec<_>>(),
            "the size sequence does not depend on the graph"
        );
    }

    #[test]
    fn zipf_stream_favours_high_degree_vertices() {
        let g = graph();
        let ranked = degree_rank(&g);
        let top = ranked[0];
        let stream = ZipfStream::new(ranked.clone(), 0.4);
        let hits = (0..2000)
            .filter(|&i| stream.request(i).contains(VertexId::new(top)))
            .count();
        let last = ranked[ranked.len() - 1];
        let misses = (0..2000)
            .filter(|&i| stream.request(i).contains(VertexId::new(last)))
            .count();
        assert!(hits > 4 * misses.max(1), "top {hits} vs last {misses}");
    }

    #[test]
    fn churn_stream_is_deterministic_per_seed() {
        let g = graph();
        let a = ChurnStream::new(9, &g);
        let b = ChurnStream::new(9, &g);
        let c = ChurnStream::new(10, &g);
        let ea: Vec<String> = (0..300).map(|i| describe(&a.event(i))).collect();
        let eb: Vec<String> = (0..300).map(|i| describe(&b.event(i))).collect();
        let ec: Vec<String> = (0..300).map(|i| describe(&c.event(i))).collect();
        assert_eq!(ea, eb);
        assert_ne!(ea, ec);
        assert!(ea[0].starts_with('R'), "the mix opens with a read");
        let updates = ea.iter().filter(|e| e.starts_with('U')).count();
        assert!(
            (120..180).contains(&updates),
            "{updates} updates in 300 events"
        );
    }
}
