//! The TCP front end: a thread-per-connection listener translating
//! framed protocol messages ([`crate::protocol`]) into
//! [`Service::submit`] calls.
//!
//! Thread-per-connection is the right shape here because connections
//! are *sessions*: each blocks on at most one in-flight request, so
//! thread count tracks concurrent clients, and the real concurrency
//! limit — the executor crew and the engine's worker pool — is managed
//! by the service behind admission control, not by the socket layer.
//! A connection must introduce its tenant (`HELLO <tenant> <weight>`)
//! before any data request.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::protocol::{read_frame, write_frame, Reply, Request};
use crate::service::Service;

/// A listening server. Dropping it does *not* stop the listener; call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections for `service`.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<Service>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let accept = std::thread::Builder::new()
            .name("grb-server-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let service = service.clone();
                    // connection threads are detached: they exit on
                    // client EOF or I/O error
                    let _ = std::thread::Builder::new()
                        .name("grb-server-conn".into())
                        .spawn(move || connection(&service, stream));
                }
            })?;
        Ok(Server {
            addr,
            stop,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections and join the accept thread.
    /// Established connections drain on their own (client EOF).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // poke the listener so the accept loop observes the flag
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
    }
}

/// Serve one connection to completion.
fn connection(service: &Service, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let mut tenant: Option<String> = None;
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let reply = match Request::parse(&payload) {
            Err(msg) => Reply::Err(msg),
            Ok(Request::Hello {
                tenant: name,
                weight,
            }) => {
                let r = service.submit(
                    &name,
                    Request::Hello {
                        tenant: name.clone(),
                        weight,
                    },
                );
                tenant = Some(name);
                r
            }
            Ok(req) => match &tenant {
                Some(t) => service.submit(t, req),
                None => Reply::Err("introduce yourself first: HELLO <tenant> <weight>".into()),
            },
        };
        if write_frame(&mut writer, &reply.render()).is_err() {
            break;
        }
    }
}

/// A minimal synchronous client for the framed protocol — what the
/// demo example, the tests, and external tooling use.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect and introduce the tenant (`HELLO`).
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str, weight: u32) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut c = Client { reader, writer };
        match c.call(&Request::Hello {
            tenant: tenant.into(),
            weight,
        })? {
            Reply::Ok => Ok(c),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("HELLO rejected: {other:?}"),
            )),
        }
    }

    /// Send one request and block for its reply.
    pub fn call(&mut self, request: &Request) -> io::Result<Reply> {
        write_frame(&mut self.writer, &request.render())?;
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Reply::parse(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn tcp_round_trip() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let server = Server::bind("127.0.0.1:0", svc.clone()).unwrap();
        let mut c = Client::connect(server.addr(), "alice", 2).unwrap();
        assert_eq!(
            c.call(&Request::CreateGraph {
                graph: "g".into(),
                nodes: 4,
                tiles: None
            })
            .unwrap(),
            Reply::Ok
        );
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            c.call(&Request::AddEdge {
                graph: "g".into(),
                u,
                v,
            })
            .unwrap();
        }
        assert_eq!(
            c.call(&Request::Bfs {
                graph: "g".into(),
                src: 1
            })
            .unwrap(),
            Reply::Levels(vec![-1, 0, 1, 2])
        );
        assert_eq!(
            c.call(&Request::OneHop {
                graph: "g".into(),
                v: 1
            })
            .unwrap(),
            Reply::Ids(vec![2])
        );
        let Reply::Stats(report) = c.call(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert!(report.contains("tenant alice weight=2"), "{report}");
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn an_unallocatable_create_is_an_err_and_the_connection_lives() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let server = Server::bind("127.0.0.1:0", svc.clone()).unwrap();
        let mut c = Client::connect(server.addr(), "t", 1).unwrap();
        let create = |graph: &str, nodes| Request::CreateGraph {
            graph: graph.into(),
            nodes,
            tiles: None,
        };
        // 2^61 row pointers of 8 bytes each overflow the allocator
        let huge = c.call(&create("huge", 2305843009213693951)).unwrap();
        assert!(matches!(huge, Reply::Err(_)), "{huge:?}");
        assert_eq!(c.call(&create("g", 3)).unwrap(), Reply::Ok);
        let edge = Request::AddEdge {
            graph: "g".into(),
            u: 0,
            v: 2,
        };
        assert_eq!(c.call(&edge).unwrap(), Reply::Ok);
        let bfs = Request::Bfs {
            graph: "g".into(),
            src: 0,
        };
        assert_eq!(c.call(&bfs).unwrap(), Reply::Levels(vec![0, -1, 1]));
        server.shutdown();
        svc.shutdown();
    }

    #[test]
    fn data_requests_require_hello() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let server = Server::bind("127.0.0.1:0", svc.clone()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, "STATS").unwrap();
        let reply = read_frame(&mut reader).unwrap().unwrap();
        assert!(reply.starts_with("ERR "), "{reply}");
        server.shutdown();
        svc.shutdown();
    }
}
