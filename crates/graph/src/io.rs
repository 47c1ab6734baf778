//! Graph serialization: SNAP-style text edge lists and the binary
//! formats.
//!
//! The text format is one `source target [weight]` triple per line, with `#`
//! or `%` starting comment lines — the format the paper's public datasets
//! ship in.
//!
//! # Binary formats and routing
//!
//! Two binary formats exist; both are auto-detected from their magic:
//!
//! * **`SNPLG2`** (see [`v2`]) — the current format.
//!   [`write_binary`] emits it; its sections are the CSR arrays
//!   verbatim (both adjacency directions), so loading is a vectorized
//!   bytes→ints copy with no per-edge decode and no reverse-adjacency
//!   rebuild, and [`v2::FileCsr`] can open it
//!   lazily in O(1) of the edge count.
//! * **`SNPLG1`** — the legacy format (out-adjacency only, in-adjacency
//!   re-derived on load). Kept fully readable; [`write_binary_v1`]
//!   still writes it for tooling that needs the old layout.
//!
//! [`read_binary`] accepts either. [`open_store`] is the file-level
//! entry point: it dispatches on magic (and the varint flag) to the
//! right [`GraphStore`] backend — eager [`CsrGraph`], lazy
//! [`FileCsr`](crate::v2::FileCsr), or compressed
//! [`CompressedGraph`](crate::compress::CompressedGraph).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::store::GraphStore;
use crate::{store, v2, CsrGraph, GraphBuilder, GraphError, VertexId};

const MAGIC: &[u8; 6] = b"SNPLG1";
const FLAG_WEIGHTED: u8 = 1;

/// Reads a text edge list.
///
/// Lines starting with `#` or `%` and blank lines are skipped. Each data
/// line must contain two vertex ids and may contain a third `f32` weight
/// field; fields are whitespace-separated.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines and [`GraphError::Io`]
/// on read failures.
///
/// ```
/// use snaple_graph::io::read_edge_list;
/// let g = read_edge_list("# demo\n0 1\n1 2\n".as_bytes(), false)?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), snaple_graph::GraphError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R, symmetrize: bool) -> Result<CsrGraph, GraphError> {
    let mut builder = GraphBuilder::new();
    builder.symmetrize(symmetrize);
    let buf = BufReader::new(reader);
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (su, sv) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: "expected at least two fields".into(),
                })
            }
        };
        let parse = |s: &str| -> Result<u32, GraphError> {
            s.parse().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                message: format!("invalid vertex id {s:?}"),
            })
        };
        let (u, v) = (parse(su)?, parse(sv)?);
        match it.next() {
            Some(sw) => {
                let w: f32 = sw.parse().map_err(|_| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("invalid weight {sw:?}"),
                })?;
                builder.add_weighted_edge(u, v, w);
            }
            None => {
                builder.add_edge(u, v);
            }
        }
        if let Some(extra) = it.next() {
            // A line like `0 1 0.5 junk` is corrupt input, not a comment
            // — accepting it silently hides truncated/merged records.
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: format!("trailing field {extra:?} after edge data"),
            });
        }
    }
    Ok(builder.build())
}

/// Writes a graph as a text edge list (weights included when present).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_edge_list<W: Write>(graph: &dyn GraphStore, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# snaple edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for u in store::vertices(graph) {
        let nbrs = graph.out_neighbors(u);
        match graph.out_weights(u) {
            Some(ws) => {
                for (v, w) in nbrs.iter().zip(ws) {
                    writeln!(writer, "{} {} {}", u.as_u32(), v.as_u32(), w)?;
                }
            }
            None => {
                for v in nbrs {
                    writeln!(writer, "{} {}", u.as_u32(), v.as_u32())?;
                }
            }
        }
    }
    Ok(())
}

/// Encodes a graph in the current binary format (`SNPLG2`, raw flavor).
///
/// Use [`write_binary_v1`] when the legacy layout is explicitly needed;
/// [`read_binary`] auto-detects either. For the compressed flavor see
/// [`compress::write_v2_varint`](crate::compress::write_v2_varint).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_binary<W: Write>(graph: &dyn GraphStore, writer: W) -> Result<(), GraphError> {
    v2::write_v2(graph, writer)
}

/// Encodes a graph into the legacy `SNPLG1` binary format.
///
/// Kept for tooling pinned to the old layout; new writes should go
/// through [`write_binary`]. Unlike `SNPLG2`, this stores only the
/// out-adjacency — readers pay an O(edges) reverse-adjacency rebuild.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_binary_v1<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    let mut header = Vec::with_capacity(MAGIC.len() + 1 + 16);
    header.extend_from_slice(MAGIC);
    header.push(if graph.is_weighted() {
        FLAG_WEIGHTED
    } else {
        0
    });
    header.extend_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    header.extend_from_slice(&(graph.num_edges() as u64).to_le_bytes());
    writer.write_all(&header)?;

    let mut body = Vec::with_capacity(graph.num_edges() * 4 + graph.num_vertices() * 8 + 16);
    let mut offset = 0u64;
    body.extend_from_slice(&0u64.to_le_bytes());
    for u in graph.vertices() {
        offset += graph.out_degree(u) as u64;
        body.extend_from_slice(&offset.to_le_bytes());
    }
    for u in graph.vertices() {
        for v in graph.out_neighbors(u) {
            body.extend_from_slice(&v.as_u32().to_le_bytes());
        }
    }
    if graph.is_weighted() {
        for u in graph.vertices() {
            for &w in graph.out_weights(u).unwrap_or(&[]) {
                body.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    writer.write_all(&body)?;
    Ok(())
}

/// Decodes a graph from either binary format, auto-detected from the
/// magic (`SNPLG2` current, `SNPLG1` legacy).
///
/// # Errors
///
/// Returns [`GraphError::Corrupt`] on malformed input and [`GraphError::Io`]
/// on read failures.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    if data.get(..v2::MAGIC2.len()) == Some(v2::MAGIC2.as_slice()) {
        return v2::decode_v2(&data);
    }
    read_binary_v1_bytes(&data)
}

/// Opens a graph file as the [`GraphStore`] backend its format calls
/// for, dispatching on the magic bytes:
///
/// * raw `SNPLG2` → lazy [`FileCsr`](crate::v2::FileCsr) (open is O(1)
///   in the edge count);
/// * varint `SNPLG2` → [`CompressedGraph`](crate::compress::CompressedGraph)
///   (streams stay compressed in memory);
/// * `SNPLG1` → eager in-RAM [`CsrGraph`].
///
/// # Errors
///
/// Returns [`GraphError::Io`] on filesystem failures and
/// [`GraphError::Corrupt`] on malformed or unrecognized files.
pub fn open_store(path: &Path) -> Result<Arc<dyn GraphStore>, GraphError> {
    use std::io::Seek;
    let mut file = std::fs::File::open(path)?;
    let mut prelude = [0u8; 8];
    let got = file.read(&mut prelude)?;
    if prelude.get(..v2::MAGIC2.len()) == Some(v2::MAGIC2.as_slice()) {
        let varint = prelude.get(7).is_some_and(|f| f & v2::FLAG2_VARINT != 0);
        drop(file);
        if varint {
            return Ok(Arc::new(crate::compress::CompressedGraph::open(path)?));
        }
        return Ok(Arc::new(v2::FileCsr::open(path)?));
    }
    if prelude.get(..MAGIC.len()) == Some(MAGIC.as_slice()) {
        file.seek(std::io::SeekFrom::Start(0))?;
        return Ok(Arc::new(read_binary(BufReader::new(file))?));
    }
    let _ = got;
    Err(GraphError::Corrupt(format!(
        "{}: not a SNPLG1/SNPLG2 graph file",
        path.display()
    )))
}

/// Takes the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], GraphError> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| GraphError::Corrupt("truncated body".into()))?;
    *buf = rest;
    Ok(*head)
}

fn read_binary_v1_bytes(data: &[u8]) -> Result<CsrGraph, GraphError> {
    let mut buf = data;
    if buf.len() < MAGIC.len() + 1 + 16 {
        return Err(GraphError::Corrupt("truncated header".into()));
    }
    if &take::<6>(&mut buf)? != MAGIC {
        return Err(GraphError::Corrupt("bad magic".into()));
    }
    let [flags] = take(&mut buf)?;
    if flags & !FLAG_WEIGHTED != 0 {
        return Err(GraphError::Corrupt(format!("unknown flag bits {flags:#x}")));
    }
    let weighted = flags & FLAG_WEIGHTED != 0;
    let raw_n = u64::from_le_bytes(take(&mut buf)?);
    let raw_m = u64::from_le_bytes(take(&mut buf)?);
    // Vertex ids are u32: a count beyond u32::MAX + 1 cannot index and
    // would only arise from corruption; rejecting it here keeps the
    // allocation sizing below meaningful.
    if raw_n > u32::MAX as u64 + 1 {
        return Err(GraphError::Corrupt(format!(
            "vertex count {raw_n} exceeds the u32 id space"
        )));
    }
    let n = raw_n as usize;
    let m = raw_m as usize;

    // Validate the declared counts against the bytes actually present
    // BEFORE any allocation is sized from them: a truncated or corrupt
    // header must produce `GraphError::Corrupt`, not an OOM or panic.
    // Wide arithmetic so hostile counts cannot overflow the check itself.
    let need =
        (n as u128 + 1) * 8 + (raw_m as u128) * 4 + if weighted { raw_m as u128 * 4 } else { 0 };
    if (buf.len() as u128) < need {
        return Err(GraphError::Corrupt(format!(
            "body too short: need {need} bytes, have {}",
            buf.len()
        )));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(u64::from_le_bytes(take(&mut buf)?) as usize);
    }
    if offsets[0] != 0 || offsets[n] != m || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphError::Corrupt("non-monotonic offsets".into()));
    }
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        let t = u32::from_le_bytes(take(&mut buf)?);
        if t as usize >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: t,
                num_vertices: n,
            });
        }
        targets.push(VertexId::new(t));
    }
    let weights = if weighted {
        let mut w = Vec::with_capacity(m);
        for _ in 0..m {
            w.push(f32::from_le_bytes(take(&mut buf)?));
        }
        Some(w)
    } else {
        None
    };
    Ok(CsrGraph::from_parts(n, offsets, targets, weights))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (3, 1), (4, 0)])
    }

    #[test]
    fn text_round_trip() {
        let g = sample();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(&out[..], false).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for u in g.vertices() {
            assert_eq!(g.out_neighbors(u), g2.out_neighbors(u));
        }
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let g = read_edge_list("# c\n% c\n\n0 1\n".as_bytes(), false).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn text_symmetrize_doubles_edges() {
        let g = read_edge_list("0 1\n1 2\n".as_bytes(), true).unwrap();
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn text_rejects_garbage() {
        let err = read_edge_list("0\n".as_bytes(), false).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = read_edge_list("0 x\n".as_bytes(), false).unwrap_err();
        assert!(err.to_string().contains("invalid vertex id"));
        let err = read_edge_list("0 1 zz\n".as_bytes(), false).unwrap_err();
        assert!(err.to_string().contains("invalid weight"));
    }

    #[test]
    fn text_rejects_trailing_fields() {
        // Regression: `0 1 0.5 junk` used to parse silently, dropping
        // the extra field — a merged or truncated record must error.
        let err = read_edge_list("0 1 0.5 junk\n".as_bytes(), false).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("trailing field"), "{err}");
        let err = read_edge_list("0 1\n2 3 1.0 4 5\n".as_bytes(), false).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn text_parses_weights() {
        let g = read_edge_list("0 1 0.5\n".as_bytes(), false).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(VertexId::new(0), VertexId::new(1)), Some(0.5));
    }

    #[test]
    fn binary_round_trip() {
        let g = sample();
        let mut out = Vec::new();
        write_binary(&g, &mut out).unwrap();
        assert_eq!(&out[..6], b"SNPLG2", "default writes are v2");
        let g2 = read_binary(&out[..]).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for u in g.vertices() {
            assert_eq!(g.out_neighbors(u), g2.out_neighbors(u));
            assert_eq!(g.in_neighbors(u), g2.in_neighbors(u));
        }
    }

    #[test]
    fn legacy_v1_files_stay_readable_through_the_same_entry_point() {
        let g = sample();
        let mut v1 = Vec::new();
        write_binary_v1(&g, &mut v1).unwrap();
        assert_eq!(&v1[..6], b"SNPLG1");
        let g2 = read_binary(&v1[..]).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        for u in g.vertices() {
            assert_eq!(g.out_neighbors(u), g2.out_neighbors(u));
            assert_eq!(g.in_neighbors(u), g2.in_neighbors(u));
        }
    }

    #[test]
    fn open_store_dispatches_every_format_to_its_backend() {
        let dir = std::env::temp_dir().join(format!("snpl-open-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();

        let v2_path = dir.join("g.v2.snplg");
        let mut v2_bytes = Vec::new();
        write_binary(&g, &mut v2_bytes).unwrap();
        std::fs::write(&v2_path, &v2_bytes).unwrap();

        let v1_path = dir.join("g.v1.snplg");
        let mut v1_bytes = Vec::new();
        write_binary_v1(&g, &mut v1_bytes).unwrap();
        std::fs::write(&v1_path, &v1_bytes).unwrap();

        let vz_path = dir.join("g.vz.snplg");
        let mut vz_bytes = Vec::new();
        crate::compress::write_v2_varint(&g, &mut vz_bytes).unwrap();
        std::fs::write(&vz_path, &vz_bytes).unwrap();

        let expectations = [
            (&v2_path, "file-csr"),
            (&v1_path, "csr"),
            (&vz_path, "varint"),
        ];
        for (path, backend) in expectations {
            let s = open_store(path).unwrap();
            assert_eq!(s.backend_name(), backend, "{}", path.display());
            assert!(s.hydrate().is_ok());
            assert_eq!(s.num_edges(), g.num_edges());
            for u in g.vertices() {
                assert_eq!(s.out_neighbors(u), g.out_neighbors(u));
                assert_eq!(s.in_neighbors(u), g.in_neighbors(u));
            }
        }

        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"not a graph at all").unwrap();
        assert!(matches!(open_store(&junk), Err(GraphError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_round_trip_weighted() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 2.5).add_weighted_edge(1, 0, 0.5);
        let g = b.build();
        let mut out = Vec::new();
        write_binary(&g, &mut out).unwrap();
        let g2 = read_binary(&out[..]).unwrap();
        assert!(g2.is_weighted());
        assert_eq!(
            g2.edge_weight(VertexId::new(0), VertexId::new(1)),
            Some(2.5)
        );
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAG\x00"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let mut out = Vec::new();
        write_binary(&g, &mut out).unwrap();
        for cut in [3, MAGIC.len() + 10, out.len() - 1] {
            let err = read_binary(&out[..cut]).unwrap_err();
            assert!(matches!(err, GraphError::Corrupt(_)), "cut at {cut}");
        }
    }

    /// Hand-crafts a `SNPLG1` header with arbitrary counts and a short
    /// body.
    fn forged_header(flags: u8, n: u64, m: u64, body_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(flags);
        out.extend_from_slice(&n.to_le_bytes());
        out.extend_from_slice(&m.to_le_bytes());
        out.extend(std::iter::repeat_n(0u8, body_bytes));
        out
    }

    #[test]
    fn binary_rejects_counts_larger_than_the_body() {
        // Counts drive allocations: a corrupt header declaring billions
        // of vertices/edges over a tiny body must fail cleanly *before*
        // any allocation is sized from it.
        for (n, m) in [
            (1u64 << 32, 0u64),     // vertex count beyond u32 ids
            (u64::MAX, u64::MAX),   // would overflow naive size math
            (10, u64::MAX / 4),     // edge bytes overflow
            (1_000_000, 1_000_000), // plausible counts, missing body
        ] {
            let err = read_binary(&forged_header(0, n, m, 64)[..]).unwrap_err();
            assert!(matches!(err, GraphError::Corrupt(_)), "n={n} m={m}: {err}");
        }
    }

    #[test]
    fn binary_rejects_unknown_flags() {
        let err = read_binary(&forged_header(0xfe, 1, 0, 64)[..]).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("flag"), "{err}");
    }

    #[test]
    fn binary_rejects_non_monotonic_offsets() {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(0);
        out.extend_from_slice(&2u64.to_le_bytes()); // 2 vertices
        out.extend_from_slice(&2u64.to_le_bytes()); // 2 edges
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&9u64.to_le_bytes()); // offset beyond the edge count...
        out.extend_from_slice(&2u64.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        let err = read_binary(&out[..]).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err}");
    }

    #[test]
    fn binary_rejects_out_of_range_targets() {
        // Hand-craft: 1 vertex, 1 edge pointing at vertex 5.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(0);
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&5u32.to_le_bytes());
        let err = read_binary(&out[..]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, .. }
        ));
    }
}
