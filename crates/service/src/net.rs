//! A real `std::net` TCP front door for the threaded runtime.
//!
//! The wire format is exactly the in-process one: length-prefixed,
//! version-stamped `saba_core::rpc` frames — an [`Envelope`] per
//! request, a [`Response`] frame back. One TCP connection carries one
//! client's request stream, in order; the server spawns a thread per
//! connection (the shard tier behind it is already bounded, so the
//! accept path does not need its own limiter).
//!
//! Malformed or version-mismatched frames get a best-effort typed
//! error response before the connection drops: a peer from a
//! different build generation learns *why* instead of seeing a reset.

use crate::runtime::ServiceRuntime;
use saba_core::library::Transport;
use saba_core::rpc::{
    decode_envelope, encode_envelope, encode_response, Envelope, ErrorCode, Request, Response,
    RpcError,
};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The TCP server wrapping a [`ServiceRuntime`].
pub struct TcpServiceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
}

fn serve_connection(runtime: &ServiceRuntime, mut stream: TcpStream) {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete frame currently buffered.
        loop {
            match decode_envelope(&buf) {
                Ok((env, rest)) => {
                    let consumed = buf.len() - rest.len();
                    buf.drain(..consumed);
                    let resp = runtime.call(env);
                    if stream.write_all(&encode_response(&resp)).is_err() {
                        return;
                    }
                }
                Err(RpcError::Incomplete) => break,
                Err(e) => {
                    // Tell the peer why before hanging up; the stream
                    // is desynchronized beyond repair.
                    let code = match e {
                        RpcError::Version(_) => ErrorCode::VersionMismatch,
                        _ => ErrorCode::Malformed,
                    };
                    let resp = Response::Error {
                        code,
                        message: e.to_string(),
                    };
                    let _ = stream.write_all(&encode_response(&resp));
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
    }
}

impl TcpServiceServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `runtime`.
    ///
    /// # Errors
    ///
    /// Binding errors, and the OS refusing the accept thread.
    pub fn bind(runtime: Arc<ServiceRuntime>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let stop = stop.clone();
            // `accept` blocks; `stop` wakes it with a connection of its own.
            std::thread::Builder::new()
                .name("saba-tcp-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { break };
                        let _ = stream.set_nodelay(true);
                        let runtime = runtime.clone();
                        let _ = std::thread::Builder::new()
                            .name("saba-tcp-conn".into())
                            .spawn(move || serve_connection(&runtime, stream));
                    }
                })?
        };
        Ok(Self {
            addr,
            stop,
            accept_thread,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting: raises the flag, wakes the blocked `accept`
    /// with one loopback connection to the bound port, and joins the
    /// accept thread. Existing connection threads drain naturally when
    /// their peers hang up.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let loopback: IpAddr = match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            wake.set_ip(loopback);
        }
        // Without the wake-up the join would wait forever: leave the
        // thread parked then.
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = self.accept_thread.join();
        }
    }
}

/// A blocking TCP [`Transport`]: one stream, one in-flight request.
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
}

impl TcpTransport {
    /// Connects to a [`TcpServiceServer`], issuing request ids from
    /// `base_id` (give each client a disjoint range).
    pub fn connect(addr: impl ToSocketAddrs, base_id: u64) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
            next_id: base_id,
        })
    }

    /// Scrapes the server's metrics exposition page. Returns the
    /// Prometheus text page, or an error string for any other reply.
    pub fn dump_metrics(&mut self) -> Result<String, String> {
        let env = Envelope::new(self.next_id, Request::MetricsDump);
        self.next_id += 1;
        match self.round_trip(&env) {
            Ok(Response::Metrics { text }) => Ok(text),
            Ok(other) => Err(format!("unexpected reply to a scrape: {other:?}")),
            Err(e) => Err(format!("transport failure: {e}")),
        }
    }

    fn round_trip(&mut self, env: &Envelope) -> std::io::Result<Response> {
        self.stream.write_all(&encode_envelope(env))?;
        let mut chunk = [0u8; 4096];
        loop {
            match saba_core::rpc::decode_response(&self.buf) {
                Ok((resp, rest)) => {
                    let consumed = self.buf.len() - rest.len();
                    self.buf.drain(..consumed);
                    return Ok(resp);
                }
                Err(RpcError::Incomplete) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, req: Request) -> Response {
        let env = Envelope::new(self.next_id, req);
        self.next_id += 1;
        match self.round_trip(&env) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: ErrorCode::Timeout,
                message: format!("transport failure: {e}"),
            },
        }
    }
}
