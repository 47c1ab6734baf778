//! A [`Predictor`] decorator that times every `execute`, `apply_delta`
//! and `fork_with_delta` of the predictor it wraps and logs what it saw,
//! leaving the results untouched.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use snaple_core::{
    ExecuteRequest, Prediction, Predictor, PrepareRequest, PreparedPredictor, QuerySet, SetupStats,
    SnapleError,
};
use snaple_gas::{DeltaStats, StepStats};
use snaple_graph::GraphDelta;

/// One observed `execute` call.
#[derive(Clone, Debug)]
pub struct ExecRecord {
    pub start: Instant,
    pub end: Instant,
    /// The request's query set; `None` for an all-vertices run.
    pub queries: Option<QuerySet>,
    /// Simulated cluster seconds of the run (cost model).
    pub simulated_seconds: f64,
    /// Per-step counters of the run.
    pub steps: Vec<StepStats>,
}

/// One observed `apply_delta` or `fork_with_delta` call.
#[derive(Clone, Debug)]
pub struct DeltaRecord {
    pub start: Instant,
    pub end: Instant,
}

/// What the decorator saw, shared by every prepared copy it hands out.
#[derive(Default)]
pub struct ProbeLog {
    execs: Mutex<Vec<ExecRecord>>,
    deltas: Mutex<Vec<DeltaRecord>>,
}

impl ProbeLog {
    /// Every `execute` call so far, in completion order.
    pub fn execs(&self) -> Vec<ExecRecord> {
        self.execs.lock().expect("probe lock poisoned").clone()
    }

    /// Number of `execute` calls so far.
    pub fn exec_count(&self) -> usize {
        self.execs.lock().expect("probe lock poisoned").len()
    }

    /// The `execute` calls from index `from` on.
    pub fn execs_since(&self, from: usize) -> Vec<ExecRecord> {
        self.execs.lock().expect("probe lock poisoned")[from..].to_vec()
    }

    /// The delta calls from index `from` on.
    pub fn deltas_since(&self, from: usize) -> Vec<DeltaRecord> {
        self.deltas.lock().expect("probe lock poisoned")[from..].to_vec()
    }

    /// Number of delta calls so far.
    pub fn delta_count(&self) -> usize {
        self.deltas.lock().expect("probe lock poisoned").len()
    }
}

/// Wraps a predictor; every prepared predictor it builds logs into `log`.
pub struct Probe<'p> {
    inner: &'p dyn Predictor,
    log: Arc<ProbeLog>,
}

impl<'p> Probe<'p> {
    /// Decorates `inner`, logging into `log`.
    pub fn new(inner: &'p dyn Predictor, log: Arc<ProbeLog>) -> Self {
        Probe { inner, log }
    }
}

impl Predictor for Probe<'_> {
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError> {
        let inner = self.inner.prepare(req)?;
        Ok(Box::new(Probed {
            inner,
            log: Arc::clone(&self.log),
        }))
    }
}

struct Probed<'a> {
    inner: Box<dyn PreparedPredictor + 'a>,
    log: Arc<ProbeLog>,
}

impl Probed<'_> {
    fn log_delta(&self, start: Instant) {
        self.log
            .deltas
            .lock()
            .expect("probe lock poisoned")
            .push(DeltaRecord {
                start,
                end: Instant::now(),
            });
    }
}

impl PreparedPredictor for Probed<'_> {
    fn execute(&self, req: &ExecuteRequest<'_>) -> Result<Prediction, SnapleError> {
        let start = Instant::now();
        let out = self.inner.execute(req)?;
        let end = Instant::now();
        self.log
            .execs
            .lock()
            .expect("probe lock poisoned")
            .push(ExecRecord {
                start,
                end,
                queries: req.queries().cloned(),
                simulated_seconds: out.simulated_seconds(),
                steps: out.stats.steps.clone(),
            });
        Ok(out)
    }

    fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        let start = Instant::now();
        let stats = self.inner.apply_delta(delta)?;
        self.log_delta(start);
        Ok(stats)
    }

    fn fork_with_delta(
        &self,
        delta: &GraphDelta,
    ) -> Result<(Box<dyn PreparedPredictor>, DeltaStats), SnapleError> {
        let start = Instant::now();
        let (fork, stats) = self.inner.fork_with_delta(delta)?;
        self.log_delta(start);
        let fork = Probed {
            inner: fork,
            log: Arc::clone(&self.log),
        };
        Ok((Box::new(fork), stats))
    }

    fn setup(&self) -> &SetupStats {
        self.inner.setup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_core::{NamedScore, Snaple, SnapleConfig};
    use snaple_gas::ClusterSpec;
    use snaple_graph::gen::rmat::RmatConfig;
    use snaple_graph::{CsrGraph, VertexId};

    fn tiny() -> (CsrGraph, ClusterSpec, Snaple) {
        let graph = RmatConfig {
            scale: 7,
            edges: 900,
            seed: 11,
            ..RmatConfig::default()
        }
        .generate_in_ram();
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(20))
                .thr_gamma(Some(200)),
        );
        (graph, ClusterSpec::type_ii(4), snaple)
    }

    fn rows(p: &Prediction, n: usize) -> Vec<Vec<(VertexId, f32)>> {
        (0..n as u32)
            .map(|v| p.for_vertex(VertexId::new(v)).to_vec())
            .collect()
    }

    fn delta() -> GraphDelta {
        let mut d = GraphDelta::new();
        d.insert(1, 77).insert(90, 3).remove(0, 1);
        d
    }

    #[test]
    fn execute_is_row_transparent_and_logged() {
        let (g, cluster, snaple) = tiny();
        let log = Arc::new(ProbeLog::default());
        let probe = Probe::new(&snaple, Arc::clone(&log));
        let plain = snaple.prepare(&PrepareRequest::new(&g, &cluster)).unwrap();
        let probed = probe.prepare(&PrepareRequest::new(&g, &cluster)).unwrap();
        let q = QuerySet::from_indices([0, 5, 17]);
        for req in [
            ExecuteRequest::new(),
            ExecuteRequest::new().with_queries(&q),
        ] {
            let a = plain.execute(&req).unwrap();
            let b = probed.execute(&req).unwrap();
            assert_eq!(rows(&a, g.num_vertices()), rows(&b, g.num_vertices()));
            assert_eq!(a.stats.total_work_ops(), b.stats.total_work_ops());
        }
        let execs = log.execs();
        assert_eq!(execs.len(), 2);
        assert!(execs[0].queries.is_none());
        assert_eq!(execs[1].queries.as_ref(), Some(&q));
        assert!(execs
            .iter()
            .all(|e| e.end >= e.start && !e.steps.is_empty()));
    }

    #[test]
    fn apply_delta_and_fork_are_row_transparent() {
        let (g, cluster, snaple) = tiny();
        let log = Arc::new(ProbeLog::default());
        let probe = Probe::new(&snaple, Arc::clone(&log));
        let mut plain = snaple.prepare(&PrepareRequest::new(&g, &cluster)).unwrap();
        let mut probed = probe.prepare(&PrepareRequest::new(&g, &cluster)).unwrap();
        let (plain_fork, plain_stats) = plain.fork_with_delta(&delta()).unwrap();
        let (probed_fork, probed_stats) = probed.fork_with_delta(&delta()).unwrap();
        assert_eq!(
            plain_stats.touched_partitions,
            probed_stats.touched_partitions
        );
        plain.apply_delta(&delta()).unwrap();
        probed.apply_delta(&delta()).unwrap();
        let all = ExecuteRequest::new();
        let want = rows(&plain.execute(&all).unwrap(), g.num_vertices());
        assert_eq!(want, rows(&probed.execute(&all).unwrap(), g.num_vertices()));
        assert_eq!(
            want,
            rows(&plain_fork.execute(&all).unwrap(), g.num_vertices())
        );
        assert_eq!(
            want,
            rows(&probed_fork.execute(&all).unwrap(), g.num_vertices())
        );
        // The fork keeps logging into the same log.
        assert_eq!(log.delta_count(), 2);
        assert_eq!(log.exec_count(), 2);
    }
}
