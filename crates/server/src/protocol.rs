//! The wire protocol: length-prefixed frames carrying a line-oriented
//! text payload.
//!
//! Every message — request or reply — travels as one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8. The
//! payload's first whitespace-separated token names the message; the
//! rest are its operands. Text keeps the protocol debuggable with
//! `nc`-grade tooling while the length prefix keeps framing trivial and
//! binary-safe (no in-band delimiters, bounded reads).
//!
//! ```text
//! client                                server
//!   HELLO alice 3              ->
//!                              <-       OK
//!   CREATE web 1000            ->
//!                              <-       OK
//!   EDGE+ web 0 1              ->
//!                              <-       OK
//!   BFS web 0                  ->
//!                              <-       LEVELS 0 1 -1 ...
//!   STATS                      ->
//!                              <-       STATS\n<report lines>
//! ```
//!
//! A tenant must introduce itself with `HELLO <tenant> <weight>` before
//! any data request; the weight feeds the fair scheduler
//! ([`crate::sched`]). `OVERLOADED` is the typed load-shed reply of
//! admission control — clients are expected to back off and retry.

use std::fmt::Write as _;
use std::io::{self, Read, Write};

use graphblas_core::Index;

/// Hard ceiling on a single frame's payload, both directions.
pub const MAX_FRAME: usize = 16 << 20;

/// A client request. See the module docs for the wire grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `HELLO <tenant> <weight>` — introduce the connection's tenant.
    Hello { tenant: String, weight: u32 },
    /// `CREATE <graph> <nodes> [tiles=<r>x<c>]` — create an empty named
    /// graph, optionally sharded into an `r × c` tile grid (the
    /// `GxB_set(…, TileShape, …)` knob, reachable over the wire).
    CreateGraph {
        graph: String,
        nodes: usize,
        tiles: Option<(usize, usize)>,
    },
    /// `EDGE+ <graph> <u> <v>` — point insert (delta-log append).
    AddEdge { graph: String, u: Index, v: Index },
    /// `EDGE- <graph> <u> <v>` — point delete (delta-log append).
    RemoveEdge { graph: String, u: Index, v: Index },
    /// `HAS <graph> <u> <v>` — point read.
    HasEdge { graph: String, u: Index, v: Index },
    /// `DEG <graph> <v>` — out-degree of a vertex.
    Degree { graph: String, v: Index },
    /// `HOP <graph> <v>` — one-hop out-neighborhood of a vertex.
    OneHop { graph: String, v: Index },
    /// `BFS <graph> <src>` — BFS levels from a source.
    Bfs { graph: String, src: Index },
    /// `PR <graph> <iters>` — PageRank, capped power iterations.
    Pagerank { graph: String, iters: usize },
    /// `STATS` — service-wide and per-tenant counters and latencies.
    Stats,
}

/// A server reply. `Overloaded` is admission control's typed shed.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK`
    Ok,
    /// `BOOL 0|1`
    Bool(bool),
    /// `COUNT <n>`
    Count(u64),
    /// `IDS <i> <j> ...` (sorted vertex ids)
    Ids(Vec<Index>),
    /// `LEVELS <l0> <l1> ...` — one entry per vertex, `-1` = unreachable.
    Levels(Vec<i64>),
    /// `RANKS <r0> <r1> ...` — one entry per vertex.
    Ranks(Vec<f64>),
    /// `STATS\n<report>` — pre-rendered multi-line report.
    Stats(String),
    /// `OVERLOADED` — shed by admission control; back off and retry.
    Overloaded,
    /// `ERR <detail>`
    Err(String),
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn tok<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    it.next()
        .ok_or_else(|| format!("missing {what}"))?
        .parse::<T>()
        .map_err(|_| format!("malformed {what}"))
}

fn graph_tok<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<String, String> {
    let g: String = tok(it, "graph name")?;
    if !name_ok(&g) {
        return Err(format!("invalid graph name {g:?}"));
    }
    Ok(g)
}

/// Parse a `tiles=<r>x<c>` operand; both axes must be ≥ 1.
fn tiles_tok(t: &str) -> Result<(usize, usize), String> {
    let spec = t
        .strip_prefix("tiles=")
        .ok_or_else(|| format!("unknown CREATE operand {t:?}"))?;
    let axis = |s: &str| {
        s.parse::<usize>()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| format!("malformed tile grid {spec:?}"))
    };
    let (r, c) = spec
        .split_once('x')
        .ok_or_else(|| format!("malformed tile grid {spec:?}"))?;
    Ok((axis(r)?, axis(c)?))
}

impl Request {
    /// Parse one request payload. Errors are human-readable and become
    /// `ERR` replies.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let mut it = payload.split_whitespace();
        let cmd = it.next().ok_or_else(|| "empty request".to_string())?;
        let req = match cmd {
            "HELLO" => {
                let tenant: String = tok(&mut it, "tenant name")?;
                if !name_ok(&tenant) {
                    return Err(format!("invalid tenant name {tenant:?}"));
                }
                let weight: u32 = tok(&mut it, "weight")?;
                if weight == 0 {
                    return Err("weight must be >= 1".into());
                }
                Request::Hello { tenant, weight }
            }
            "CREATE" => Request::CreateGraph {
                graph: graph_tok(&mut it)?,
                nodes: tok(&mut it, "node count")?,
                tiles: it.next().map(tiles_tok).transpose()?,
            },
            "EDGE+" => Request::AddEdge {
                graph: graph_tok(&mut it)?,
                u: tok(&mut it, "u")?,
                v: tok(&mut it, "v")?,
            },
            "EDGE-" => Request::RemoveEdge {
                graph: graph_tok(&mut it)?,
                u: tok(&mut it, "u")?,
                v: tok(&mut it, "v")?,
            },
            "HAS" => Request::HasEdge {
                graph: graph_tok(&mut it)?,
                u: tok(&mut it, "u")?,
                v: tok(&mut it, "v")?,
            },
            "DEG" => Request::Degree {
                graph: graph_tok(&mut it)?,
                v: tok(&mut it, "v")?,
            },
            "HOP" => Request::OneHop {
                graph: graph_tok(&mut it)?,
                v: tok(&mut it, "v")?,
            },
            "BFS" => Request::Bfs {
                graph: graph_tok(&mut it)?,
                src: tok(&mut it, "source")?,
            },
            "PR" => Request::Pagerank {
                graph: graph_tok(&mut it)?,
                iters: tok(&mut it, "iteration count")?,
            },
            "STATS" => Request::Stats,
            other => return Err(format!("unknown command {other:?}")),
        };
        if it.next().is_some() {
            return Err(format!("trailing operands after {cmd}"));
        }
        Ok(req)
    }

    /// Render this request as a frame payload (inverse of [`Request::parse`]).
    pub fn render(&self) -> String {
        match self {
            Request::Hello { tenant, weight } => format!("HELLO {tenant} {weight}"),
            Request::CreateGraph {
                graph,
                nodes,
                tiles,
            } => match tiles {
                Some((r, c)) => format!("CREATE {graph} {nodes} tiles={r}x{c}"),
                None => format!("CREATE {graph} {nodes}"),
            },
            Request::AddEdge { graph, u, v } => format!("EDGE+ {graph} {u} {v}"),
            Request::RemoveEdge { graph, u, v } => format!("EDGE- {graph} {u} {v}"),
            Request::HasEdge { graph, u, v } => format!("HAS {graph} {u} {v}"),
            Request::Degree { graph, v } => format!("DEG {graph} {v}"),
            Request::OneHop { graph, v } => format!("HOP {graph} {v}"),
            Request::Bfs { graph, src } => format!("BFS {graph} {src}"),
            Request::Pagerank { graph, iters } => format!("PR {graph} {iters}"),
            Request::Stats => "STATS".into(),
        }
    }

    /// Whether this request mutates graph state (the write half of the
    /// admission mix; point writes ride the delta logs).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::AddEdge { .. } | Request::RemoveEdge { .. } | Request::CreateGraph { .. }
        )
    }
}

fn join_nums<T: std::fmt::Display>(prefix: &str, xs: &[T]) -> String {
    let mut s = String::with_capacity(prefix.len() + xs.len() * 3);
    s.push_str(prefix);
    for x in xs {
        let _ = write!(s, " {x}");
    }
    s
}

fn parse_nums<'a, T: std::str::FromStr>(
    it: impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<Vec<T>, String> {
    it.map(|t| {
        t.parse::<T>()
            .map_err(|_| format!("malformed {what} {t:?}"))
    })
    .collect()
}

impl Reply {
    /// Render this reply as a frame payload.
    pub fn render(&self) -> String {
        match self {
            Reply::Ok => "OK".into(),
            Reply::Bool(b) => format!("BOOL {}", u8::from(*b)),
            Reply::Count(n) => format!("COUNT {n}"),
            Reply::Ids(ids) => join_nums("IDS", ids),
            Reply::Levels(ls) => join_nums("LEVELS", ls),
            Reply::Ranks(rs) => join_nums("RANKS", rs),
            Reply::Stats(report) => format!("STATS\n{report}"),
            Reply::Overloaded => "OVERLOADED".into(),
            Reply::Err(msg) => format!("ERR {msg}"),
        }
    }

    /// Parse one reply payload (the client half of the protocol).
    pub fn parse(payload: &str) -> Result<Reply, String> {
        // ERR and STATS carry free-form text: split those off raw
        if let Some(msg) = payload.strip_prefix("ERR ") {
            return Ok(Reply::Err(msg.to_string()));
        }
        if let Some(report) = payload.strip_prefix("STATS\n") {
            return Ok(Reply::Stats(report.to_string()));
        }
        let mut it = payload.split_whitespace();
        let tag = it.next().ok_or_else(|| "empty reply".to_string())?;
        match tag {
            "OK" => Ok(Reply::Ok),
            "BOOL" => {
                let b: u8 = tok(&mut it, "bool")?;
                Ok(Reply::Bool(b != 0))
            }
            "COUNT" => Ok(Reply::Count(tok(&mut it, "count")?)),
            "IDS" => Ok(Reply::Ids(parse_nums(it, "id")?)),
            "LEVELS" => Ok(Reply::Levels(parse_nums(it, "level")?)),
            "RANKS" => Ok(Reply::Ranks(parse_nums(it, "rank")?)),
            "OVERLOADED" => Ok(Reply::Overloaded),
            "ERR" => Ok(Reply::Err(String::new())),
            other => Err(format!("unknown reply tag {other:?}")),
        }
    }
}

/// Write one frame: 4-byte big-endian length, then the payload bytes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other?,
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                tenant: "alice".into(),
                weight: 3,
            },
            Request::CreateGraph {
                graph: "web".into(),
                nodes: 1000,
                tiles: None,
            },
            Request::CreateGraph {
                graph: "web2".into(),
                nodes: 1000,
                tiles: Some((4, 4)),
            },
            Request::AddEdge {
                graph: "web".into(),
                u: 0,
                v: 1,
            },
            Request::RemoveEdge {
                graph: "web".into(),
                u: 5,
                v: 9,
            },
            Request::HasEdge {
                graph: "web".into(),
                u: 1,
                v: 2,
            },
            Request::Degree {
                graph: "web".into(),
                v: 7,
            },
            Request::OneHop {
                graph: "g-2".into(),
                v: 7,
            },
            Request::Bfs {
                graph: "web".into(),
                src: 4,
            },
            Request::Pagerank {
                graph: "web".into(),
                iters: 20,
            },
            Request::Stats,
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.render()).unwrap(), r);
        }
    }

    #[test]
    fn replies_round_trip() {
        let reps = [
            Reply::Ok,
            Reply::Bool(true),
            Reply::Bool(false),
            Reply::Count(42),
            Reply::Ids(vec![1, 2, 30]),
            Reply::Levels(vec![0, 1, -1, 2]),
            Reply::Ranks(vec![0.25, 0.5, 0.125]),
            Reply::Stats("line one\nline two".into()),
            Reply::Overloaded,
            Reply::Err("no such graph".into()),
        ];
        for r in reps {
            assert_eq!(Reply::parse(&r.render()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "NOPE web 1",
            "BFS",
            "BFS web x",
            "BFS web 1 extra",
            "CREATE sp ace 4",
            "CREATE g 4 tiles=0x4",
            "CREATE g 4 tiles=4",
            "CREATE g 4 grid=4x4",
            "CREATE g 4 tiles=4x4 extra",
            "HELLO t 0",
            "HELLO bad!name 1",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "BFS web 3").unwrap();
        write_frame(&mut buf, "STATS").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("BFS web 3"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("STATS"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
