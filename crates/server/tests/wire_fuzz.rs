//! Hostile wire traffic against a live `Server`: random bytes,
//! oversized and truncated frames, invalid UTF-8, data before `HELLO`
//! and well-formed requests with absurd operands (a tile grid past its
//! bound among them). Each hostile connection is opened, used and
//! closed on its own; after each one a well-behaved tenant on a fresh
//! connection must still get the exact BFS levels of a chain graph.
//!
//! The generator is a seeded xorshift, so a failure replays exactly.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use server::protocol::{read_frame, MAX_FRAME};
use server::{Client, Reply, Request, Server, Service, ServiceConfig};

const CHAIN: usize = 16;
const CONNECTIONS: usize = 16;
const MAX_FRAMES: usize = 200;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-enough draw from `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// Raw frame bytes: a 4-byte big-endian length, then `payload`.
fn frame(len: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = len.to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// One hostile connection's traffic: the raw chunks to write, and the
/// tags its replies must start with, in order (empty when the server
/// may hang up at any point).
fn hostile(kind: usize, rng: &mut XorShift) -> (Vec<Vec<u8>>, Vec<&'static str>) {
    let text = |s: &str| frame(s.len() as u32, s.as_bytes());
    match kind {
        // random bytes, unframed
        0 => {
            let chunks = (0..rng.range(1, 8))
                .map(|_| {
                    let n = rng.range(1, 64);
                    rng.bytes(n)
                })
                .collect();
            (chunks, vec![])
        }
        // a length prefix above MAX_FRAME
        1 => {
            let len = rng.range(MAX_FRAME + 1, u32::MAX as usize) as u32;
            (vec![frame(len, b"BFS chain 0")], vec![])
        }
        // a truncated payload, then close
        2 => {
            let len = rng.range(8, 64);
            let sent = rng.range(0, len - 1);
            (vec![frame(len as u32, &rng.bytes(sent))], vec![])
        }
        // invalid UTF-8 in a well-formed frame
        3 => {
            let mut payload = b"BFS chain ".to_vec();
            payload.extend_from_slice(&[0xff, 0xfe, 0xc3]);
            (vec![frame(payload.len() as u32, &payload)], vec![])
        }
        // data requests before HELLO
        4 => {
            let requests = ["BFS chain 0", "STATS", "HAS chain 0 1", "EDGE+ chain 1 0"];
            let n = rng.range(1, requests.len());
            let chunks = requests[..n].iter().map(|r| text(r)).collect();
            (chunks, vec!["ERR "; n])
        }
        // well-formed requests with absurd operands
        _ => {
            let mut absurd = [
                "BFS chain 18446744073709551615",
                "CREATE x 0",
                "CREATE huge 2305843009213693951",
                "CREATE t 8 0x9",
                // past the per-axis grid bound: refused before any tile
                "CREATE big 1000000 tiles=1x65535",
            ];
            let k = rng.range(0, absurd.len() - 1);
            absurd.rotate_left(k);
            let mut chunks = vec![text("HELLO fuzz 1")];
            chunks.extend(absurd.iter().map(|r| text(r)));
            (chunks, vec!["OK", "ERR ", "ERR ", "ERR ", "ERR ", "ERR "])
        }
    }
}

/// Send the chunks, close our half, and read replies until the server
/// closes its half (or resets the connection after a bad frame).
fn attack(addr: SocketAddr, chunks: &[Vec<u8>]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for chunk in chunks {
        // the server may already have hung up on an earlier bad frame
        if stream.write_all(chunk).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some(reply)) => replies.push(reply),
            Ok(None) => break,
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "the server neither answered nor closed: {e}"
                );
                break;
            }
        }
    }
    replies
}

#[test]
fn hostile_connections_never_disturb_a_well_behaved_tenant() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let server = Server::bind("127.0.0.1:0", svc.clone()).unwrap();
    let mut setup = Client::connect(server.addr(), "setup", 1).unwrap();
    let create = Request::CreateGraph {
        graph: "chain".into(),
        nodes: CHAIN,
        tiles: None,
    };
    assert_eq!(setup.call(&create).unwrap(), Reply::Ok);
    for u in 0..CHAIN - 1 {
        let add = Request::AddEdge {
            graph: "chain".into(),
            u,
            v: u + 1,
        };
        assert_eq!(setup.call(&add).unwrap(), Reply::Ok);
    }

    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut frames = 0;
    for i in 0..CONNECTIONS {
        let kind = i % 6;
        let (chunks, want) = hostile(kind, &mut rng);
        frames += chunks.len();
        let replies = attack(server.addr(), &chunks);
        if !want.is_empty() {
            assert_eq!(replies.len(), want.len(), "kind {kind}: {replies:?}");
            for (reply, tag) in replies.iter().zip(&want) {
                assert!(reply.starts_with(tag), "kind {kind}: {reply:?}");
            }
        }

        let mut good = Client::connect(server.addr(), "good", 1).unwrap();
        let src = rng.range(0, CHAIN - 1);
        let bfs = Request::Bfs {
            graph: "chain".into(),
            src,
        };
        let want: Vec<i64> = (0..CHAIN)
            .map(|v| if v >= src { (v - src) as i64 } else { -1 })
            .collect();
        assert_eq!(
            good.call(&bfs).unwrap(),
            Reply::Levels(want),
            "after hostile connection {i} (kind {kind})"
        );
    }
    assert!(frames <= MAX_FRAMES, "{frames} frames");

    server.shutdown();
    svc.shutdown();
}
