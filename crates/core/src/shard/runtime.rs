//! The shard runtime: one isolated serving loop speaking the wire
//! protocol over any byte stream.
//!
//! A shard is a **complete** serving runtime — it decodes its own copy of
//! the graph from the [`Request::Prepare`] frame, builds its own
//! predictor and vertex-cut deployment, and wraps it in a sequential
//! [`Server`], the same serving core every runtime uses (see the
//! [`serve` module docs](crate::serve#one-serving-core-three-runtimes)).
//! The server answers the sub-queries the router assigns to the shard
//! with masked runs. Because masked runs are exact (each queried row is
//! bit-identical to an all-vertices run), a shard's rows can be unioned
//! with other shards' rows without any cross-shard coordination.
//!
//! A shard owns its snapshot alone — it reads one frame at a time, so no
//! request executes while a delta lands — and therefore applies every
//! delta **in place** through [`Server::apply_update`], like the
//! sequential server; it never forks an epoch. The server's
//! [`ServerStats`](crate::serve::ServerStats) travel back in the final
//! `Stats` reply, from which the router takes the deployment's setup
//! figures; request and update counts are the router's own.
//!
//! [`serve_connection`] is deliberately generic over `Read + Write`: the
//! in-process thread transport hands it channel-backed streams
//! ([`ChannelReader`]/[`ChannelWriter`]), the OS-process transport hands
//! it the child's stdin/stdout — and both therefore run the *same* code
//! over the *same* serialized frames.

use std::io::{Read, Write};
use std::sync::mpsc::{Receiver, Sender};

use snaple_graph::GraphDelta;

use crate::plan::ScorePlan;
use crate::predictor::Snaple;
use crate::predictor_api::{Predictor, PrepareRequest, QuerySet};
use crate::serve::Server;
use crate::spec::ScoreSpec;

use super::wire::{self, PrepareShard, Reply, Request, ShardSpec, WireError, WireRow};

/// Runs one shard's serve loop over a framed byte stream until the peer
/// sends [`Request::Shutdown`] or closes the connection.
///
/// The first frame must be [`Request::Prepare`]; everything the shard
/// needs (graph, cluster, predictor spec) arrives in it. Application
/// errors (a bad query set, an engine failure, an unbuildable spec) are
/// answered with [`Reply::Err`] and the loop keeps serving; transport
/// errors (truncation, corruption, I/O failure) abort the loop with the
/// [`WireError`], which an OS-process shard turns into a nonzero exit.
///
/// # Errors
///
/// Any [`WireError`] on the underlying stream; a clean peer close
/// (`WireError::Closed`) between frames returns `Ok(())`.
pub fn serve_connection<R: Read, W: Write>(mut reader: R, mut writer: W) -> Result<(), WireError> {
    let mut payload = Vec::new();
    let tag = match wire::read_frame(&mut reader, &mut payload) {
        Ok(tag) => tag,
        Err(WireError::Closed) => return Ok(()),
        Err(e) => return Err(e),
    };
    let prep = match Request::decode(tag, &payload)? {
        Request::Prepare(p) => p,
        _ => return Err(WireError::Malformed("first frame must be Prepare")),
    };
    run_shard(*prep, reader, &mut writer, payload)
}

fn send<W: Write>(writer: &mut W, reply: &Reply) -> Result<(), WireError> {
    let frame = reply.encode()?;
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

fn send_err<W: Write>(
    writer: &mut W,
    request_id: u64,
    message: impl ToString,
) -> Result<(), WireError> {
    send(
        writer,
        &Reply::Err {
            request_id,
            message: message.to_string(),
        },
    )
}

fn run_shard<R: Read, W: Write>(
    prep: PrepareShard,
    mut reader: R,
    writer: &mut W,
    mut payload: Vec<u8>,
) -> Result<(), WireError> {
    let graph = match snaple_graph::io::read_binary(prep.graph_blob.as_slice()) {
        Ok(g) => g,
        Err(e) => {
            send_err(writer, 0, format!("shard graph blob: {e}"))?;
            return Ok(());
        }
    };
    let cluster = prep.cluster;
    let predictor: Box<dyn Predictor> = match prep.spec {
        ShardSpec::Single(config) => Box::new(Snaple::new(config)),
        ShardSpec::Plan { specs, config } => {
            let parsed: Result<Vec<ScoreSpec>, _> =
                specs.iter().map(|s| ScoreSpec::parse(s)).collect();
            let plan = parsed.and_then(|specs| ScorePlan::with_config(specs, config));
            match plan {
                Ok(p) => Box::new(p),
                Err(e) => {
                    send_err(writer, 0, e)?;
                    return Ok(());
                }
            }
        }
    };
    let mut server = match predictor.prepare(&PrepareRequest::new(&graph, &cluster)) {
        Ok(prepared) => Server::from_prepared(prepared),
        Err(e) => {
            send_err(writer, 0, e)?;
            return Ok(());
        }
    };
    if let Some(seed) = prep.seed_override {
        server = server.with_seed(seed);
    }

    let mut num_vertices = graph.num_vertices() as u64;
    send(writer, &Reply::Ready { num_vertices })?;

    loop {
        let tag = match wire::read_frame(&mut reader, &mut payload) {
            Ok(tag) => tag,
            Err(WireError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        match Request::decode(tag, &payload)? {
            Request::Prepare(_) => {
                return Err(WireError::Malformed("duplicate Prepare frame"));
            }
            Request::Predict {
                request_id,
                queries,
            } => {
                let query_set = QuerySet::from_indices(queries.iter().copied());
                match server.serve(&query_set) {
                    Ok(prediction) => {
                        // Ship only the queried rows: every other row of
                        // the response is empty.
                        let rows: Vec<WireRow> = query_set
                            .iter()
                            .map(|q| {
                                let preds = prediction
                                    .for_vertex(q)
                                    .iter()
                                    .map(|&(v, s)| (v.as_u32(), s))
                                    .collect();
                                (q.as_u32(), preds)
                            })
                            .collect();
                        send(
                            writer,
                            &Reply::Rows {
                                request_id,
                                num_vertices: prediction.num_vertices() as u64,
                                rows,
                                stats: prediction.stats,
                            },
                        )?;
                    }
                    Err(e) => send_err(writer, request_id, e)?,
                }
            }
            Request::Delta { request_id, ops } => {
                let mut delta = GraphDelta::new();
                for (u, v, w, insert) in ops {
                    if insert {
                        delta.insert_weighted(u, v, w);
                    } else {
                        delta.remove(u, v);
                    }
                }
                match server.apply_update(&delta) {
                    Ok(delta_stats) => {
                        num_vertices += delta_stats.grown_vertices as u64;
                        send(
                            writer,
                            &Reply::DeltaOk {
                                request_id,
                                num_vertices,
                                stats: delta_stats,
                            },
                        )?;
                    }
                    Err(e) => send_err(writer, request_id, e)?,
                }
            }
            Request::Shutdown => {
                send(
                    writer,
                    &Reply::Stats {
                        stats: Box::new(server.stats().clone()),
                    },
                )?;
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Channel-backed byte streams: the in-process transport.
// ---------------------------------------------------------------------------

/// A `Read` over an `mpsc` channel of byte chunks — the receiving half
/// of the in-process shard transport. Blocks on the channel when its
/// buffer runs dry; a closed channel reads as EOF, which the frame layer
/// reports as [`WireError::Closed`] on a frame boundary (and
/// [`WireError::Truncated`] inside one).
pub struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl ChannelReader {
    /// Wraps the receiving end of a chunk channel.
    pub fn new(rx: Receiver<Vec<u8>>) -> Self {
        ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        // Zero-length chunks are legal; keep receiving until bytes or EOF.
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // channel closed = EOF
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        // snaple-lint: allow(index) — n = min(out.len(), buf.len() - pos), so both ranges are in bounds
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A `Write` over an `mpsc` channel of byte chunks — the sending half of
/// the in-process shard transport. Each `write` forwards one chunk; a
/// hung-up receiver surfaces as `BrokenPipe`, exactly like a dead child
/// process on the pipe transport.
pub struct ChannelWriter {
    tx: Sender<Vec<u8>>,
}

impl ChannelWriter {
    /// Wraps the sending end of a chunk channel.
    pub fn new(tx: Sender<Vec<u8>>) -> Self {
        ChannelWriter { tx }
    }
}

impl Write for ChannelWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.tx.send(data.to_vec()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "shard channel closed")
        })?;
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use snaple_gas::ClusterSpec;
    use snaple_graph::gen::datasets;

    use crate::config::{NamedScore, SnapleConfig};

    fn prepare_frame(graph_blob: Vec<u8>) -> Vec<u8> {
        Request::Prepare(Box::new(PrepareShard {
            shard: 0,
            num_shards: 1,
            seed_override: None,
            spec: ShardSpec::Single(
                SnapleConfig::new(NamedScore::LinearSum)
                    .k(5)
                    .klocal(Some(10)),
            ),
            cluster: ClusterSpec::type_ii(4),
            graph_blob,
        }))
        .encode()
        .unwrap()
    }

    #[test]
    fn channel_streams_round_trip_frames() {
        let (tx, rx) = mpsc::channel();
        let mut w = ChannelWriter::new(tx);
        let frame = Request::Shutdown.encode().unwrap();
        w.write_all(&frame).unwrap();
        drop(w);
        let mut r = ChannelReader::new(rx);
        let mut payload = Vec::new();
        let tag = wire::read_frame(&mut r, &mut payload).unwrap();
        assert!(matches!(
            Request::decode(tag, &payload).unwrap(),
            Request::Shutdown
        ));
        // Past the last chunk: clean EOF.
        assert_eq!(
            wire::read_frame(&mut r, &mut payload),
            Err(WireError::Closed)
        );
    }

    #[test]
    fn shard_serves_prepare_predict_shutdown_over_channels() {
        let graph = datasets::GOWALLA.emulate(0.003, 3);
        let mut blob = Vec::new();
        snaple_graph::io::write_binary(&graph, &mut blob).unwrap();

        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel();
        let shard = std::thread::spawn(move || {
            serve_connection(ChannelReader::new(cmd_rx), ChannelWriter::new(reply_tx))
        });

        cmd_tx.send(prepare_frame(blob)).unwrap();
        let mut reader = ChannelReader::new(reply_rx);
        let mut payload = Vec::new();
        let tag = wire::read_frame(&mut reader, &mut payload).unwrap();
        let nv = match Reply::decode(tag, &payload).unwrap() {
            Reply::Ready { num_vertices } => num_vertices,
            other => panic!("expected Ready, got {other:?}"),
        };
        assert_eq!(nv, graph.num_vertices() as u64);

        cmd_tx
            .send(
                Request::Predict {
                    request_id: 1,
                    queries: vec![0, 3, 9],
                }
                .encode()
                .unwrap(),
            )
            .unwrap();
        let tag = wire::read_frame(&mut reader, &mut payload).unwrap();
        match Reply::decode(tag, &payload).unwrap() {
            Reply::Rows {
                request_id, rows, ..
            } => {
                assert_eq!(request_id, 1);
                assert_eq!(rows.len(), 3);
                let queried: Vec<u32> = rows.iter().map(|(v, _)| *v).collect();
                assert_eq!(queried, vec![0, 3, 9]);
            }
            other => panic!("expected Rows, got {other:?}"),
        }

        cmd_tx.send(Request::Shutdown.encode().unwrap()).unwrap();
        let tag = wire::read_frame(&mut reader, &mut payload).unwrap();
        match Reply::decode(tag, &payload).unwrap() {
            Reply::Stats { stats } => {
                assert_eq!(stats.requests, 1);
                assert_eq!(stats.queries_received, 3);
                assert_eq!(stats.latency.count(), 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        shard.join().unwrap().unwrap();
    }

    #[test]
    fn shard_reports_prepare_failures_as_err_replies() {
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel();
        let shard = std::thread::spawn(move || {
            serve_connection(ChannelReader::new(cmd_rx), ChannelWriter::new(reply_tx))
        });
        // A garbage graph blob cannot deserialize; the shard must answer
        // with a typed Err reply and exit cleanly, not crash.
        cmd_tx.send(prepare_frame(vec![0xDE, 0xAD])).unwrap();
        let mut reader = ChannelReader::new(reply_rx);
        let mut payload = Vec::new();
        let tag = wire::read_frame(&mut reader, &mut payload).unwrap();
        match Reply::decode(tag, &payload).unwrap() {
            Reply::Err {
                request_id,
                message,
            } => {
                assert_eq!(request_id, 0);
                assert!(message.contains("graph blob"), "message: {message}");
            }
            other => panic!("expected Err, got {other:?}"),
        }
        drop(cmd_tx);
        shard.join().unwrap().unwrap();
    }
}
