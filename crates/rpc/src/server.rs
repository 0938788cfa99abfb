//! The shard-server: one [`Engine`] behind a TCP listener.
//!
//! `subrank serve --shard-server K` runs one of these instead of the HTTP
//! server. Connections are few and long-lived (each router holds one per
//! replica), so the server is thread-per-connection; each connection
//! serves frames sequentially until EOF. A request's trace id (sent by
//! the router) is re-entered via [`logging::trace_scope`] for the
//! duration of the call, so the shard host's log lines carry the same id
//! as the router's — one grep spans both machines.
//!
//! When the engine has a durable store attached, a background thread
//! snapshots on the configured interval and a final snapshot + flush runs
//! on graceful shutdown, mirroring the HTTP server's snapshotter.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approxrank_engine::{Engine, EngineError};
use approxrank_trace::logging::{self, Level};

use crate::wire::{self, PingInfo, RpcFault, RpcRequest, RpcResponse, StatsInfo};

/// Poll granularity for the accept loop and shutdown checks.
const POLL: Duration = Duration::from_millis(25);

/// A running shard RPC server.
pub struct ShardServer {
    listener: TcpListener,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    snapshot_interval: Duration,
}

/// Cloneable handle for stopping a [`ShardServer`] from another thread
/// (e.g. a signal watcher).
#[derive(Clone)]
pub struct ShardServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ShardServerHandle {
    /// Asks the server to drain: stop accepting, finish in-flight
    /// requests, snapshot, and return from [`ShardServer::serve`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

impl ShardServer {
    /// Binds a listener for `engine` on `addr` (e.g. `127.0.0.1:7101`).
    pub fn bind(addr: &str, engine: Arc<Engine>, snapshot_interval: Duration) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(ShardServer {
            listener,
            engine,
            shutdown: Arc::new(AtomicBool::new(false)),
            snapshot_interval,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ShardServerHandle {
        ShardServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Serves until [`ShardServerHandle::shutdown`] is called, then
    /// drains connections, takes a final snapshot, and flushes the WAL.
    pub fn serve(&self) -> io::Result<()> {
        let snapshotter = self.spawn_snapshotter();
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let engine = Arc::clone(&self.engine);
                    let shutdown = Arc::clone(&self.shutdown);
                    let worker = std::thread::Builder::new()
                        .name(format!("rpc-conn-{peer}"))
                        .spawn(move || serve_connection(stream, engine, shutdown))?;
                    workers.push(worker);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    logging::log(Level::Error, "rpc", &format!("accept failed: {e}"));
                    std::thread::sleep(POLL);
                }
            }
            workers.retain(|w| !w.is_finished());
        }
        // Drain: connection threads see the shutdown flag within one read
        // timeout and exit; join them before the final snapshot so no
        // mutation races the WAL flush.
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(snapshotter) = snapshotter {
            let _ = snapshotter.join();
        }
        if self.engine.store().is_some() {
            if let Err(e) = self.engine.snapshot_now() {
                logging::log(Level::Error, "rpc", &format!("final snapshot failed: {e}"));
            }
            if let Err(e) = self.engine.flush() {
                logging::log(Level::Error, "rpc", &format!("final flush failed: {e}"));
            }
        }
        Ok(())
    }

    fn spawn_snapshotter(&self) -> Option<std::thread::JoinHandle<()>> {
        self.engine.store()?;
        let engine = Arc::clone(&self.engine);
        let shutdown = Arc::clone(&self.shutdown);
        let interval = self.snapshot_interval;
        std::thread::Builder::new()
            .name("rpc-snapshot".into())
            .spawn(move || {
                let mut last = Instant::now();
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(POLL);
                    if last.elapsed() >= interval {
                        if let Err(e) = engine.snapshot_now() {
                            logging::log(
                                Level::Error,
                                "rpc",
                                &format!("periodic snapshot failed: {e}"),
                            );
                        }
                        last = Instant::now();
                    }
                }
            })
            .ok()
    }
}

/// Fills `buf`, tracking position across read timeouts so a slow frame
/// never desynchronizes the stream. Returns `Ok(false)` on shutdown or
/// on clean EOF at a frame boundary (`*started == false`, no bytes of
/// the current frame consumed).
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    started: &mut bool,
) -> io::Result<bool> {
    let mut pos = 0;
    while pos < buf.len() {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(false);
        }
        match r.read(&mut buf[pos..]) {
            Ok(0) => {
                if !*started && pos == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF mid-frame",
                ));
            }
            Ok(n) => {
                pos += n;
                *started = true;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame, waking every read timeout to check `shutdown`.
/// `Ok(None)` means stop serving this connection (shutdown or clean
/// EOF); errors mean the stream is poisoned or lost.
fn read_frame_interruptible(
    r: &mut impl Read,
    shutdown: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut started = false;
    let mut header = [0u8; wire::FRAME_HEADER];
    if !read_full(r, &mut header, shutdown, &mut started)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let expect_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > wire::MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {}", wire::MAX_FRAME_PAYLOAD),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(r, &mut payload, shutdown, &mut started)? {
        return Ok(None);
    }
    let got_crc = approxrank_store::crc32(&payload);
    if got_crc != expect_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: header {expect_crc:#010x}, payload {got_crc:#010x}"),
        ));
    }
    Ok(Some(payload))
}

/// Serves one connection: frames in, frames out, until EOF, a poisoned
/// stream, or shutdown.
fn serve_connection(stream: TcpStream, engine: Arc<Engine>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    // The read timeout is the shutdown poll: a blocked read wakes every
    // interval to check the flag (read_full keeps frame alignment).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = io::BufWriter::new(stream);
    loop {
        let payload = match read_frame_interruptible(&mut reader, &shutdown) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return,
            Err(e) => {
                logging::log(Level::Warn, "rpc", &format!("closing connection: {e}"));
                return;
            }
        };
        let response = match wire::decode_request(&payload) {
            Ok((trace_id, tenant, request)) => {
                let _scope = (!trace_id.is_empty()).then(|| logging::trace_scope(&trace_id));
                let _tenant = (!tenant.is_empty()).then(|| logging::tenant_scope(&tenant));
                let start = Instant::now();
                let response = handle_request(&engine, &request);
                logging::log_with(
                    Level::Debug,
                    "rpc",
                    "request served",
                    &[
                        ("op", request_name(&request)),
                        ("us", &(start.elapsed().as_micros() as u64).to_string()),
                    ],
                );
                response
            }
            Err(e) => RpcResponse::Error(RpcFault::BadProtocol(e.0)),
        };
        let encoded = wire::encode_response(&response);
        if wire::write_frame(&mut writer, &encoded)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

fn request_name(req: &RpcRequest) -> &'static str {
    match req {
        RpcRequest::Ping => "ping",
        RpcRequest::Rank(_) => "rank",
        RpcRequest::SessionCreate { .. } => "session_create",
        RpcRequest::SessionUpdate { .. } => "session_update",
        RpcRequest::SessionGet { .. } => "session_get",
        RpcRequest::SessionDelete { .. } => "session_delete",
        RpcRequest::Stats => "stats",
        RpcRequest::MutateGraph { .. } => "mutate_graph",
        RpcRequest::Keyword { .. } => "keyword",
    }
}

fn fault_of(e: EngineError) -> RpcFault {
    match e {
        EngineError::BadRequest(msg) => RpcFault::BadRequest(msg),
        EngineError::NoSuchSession(id) => RpcFault::NoSuchSession(id),
        EngineError::Unavailable(msg) => RpcFault::Unavailable(msg),
    }
}

/// Maps one decoded request onto the engine. Solver spans on the shard
/// host are not collected into a ring here — the router's request trace
/// is the system of record; this side contributes log lines keyed by the
/// propagated trace id.
fn handle_request(engine: &Engine, request: &RpcRequest) -> RpcResponse {
    let obs = approxrank_trace::null();
    match request {
        RpcRequest::Ping => RpcResponse::Pong(PingInfo {
            shard_id: engine.shard_id(),
            global_nodes: engine.global_nodes() as u64,
            num_dangling: engine.num_dangling() as u64,
            session_count: engine.session_count() as u64,
        }),
        RpcRequest::Stats => RpcResponse::Stats(StatsInfo {
            cache: engine.cache_stats(),
            session_count: engine.session_count() as u64,
            wal_errors: engine.wal_errors(),
            graph_epoch: engine.graph_epoch(),
        }),
        RpcRequest::Rank(params) => match engine.rank(params, obs) {
            Ok(outcome) => RpcResponse::Ranked {
                cached: outcome.cached,
                result: outcome.result,
            },
            Err(e) => RpcResponse::Error(fault_of(e)),
        },
        RpcRequest::SessionCreate(params) => match engine.session_create(params, obs) {
            Ok((id, result)) => RpcResponse::SessionCreated { id, result },
            Err(e) => RpcResponse::Error(fault_of(e)),
        },
        RpcRequest::SessionUpdate { id, add, remove } => {
            match engine.session_update(*id, add, remove, obs) {
                Ok((members, result)) => RpcResponse::SessionUpdated { members, result },
                Err(e) => RpcResponse::Error(fault_of(e)),
            }
        }
        RpcRequest::SessionGet { id } => RpcResponse::Session(engine.session_view(*id)),
        RpcRequest::SessionDelete { id } => {
            RpcResponse::SessionDeleted(engine.session_delete(*id, obs))
        }
        RpcRequest::Keyword { params } => match engine.keyword_rank(params, obs) {
            Ok(result) => RpcResponse::KeywordRanked { result },
            Err(e) => RpcResponse::Error(fault_of(e)),
        },
        RpcRequest::MutateGraph { insert, delete } => {
            match engine.mutate_graph(insert, delete, obs) {
                Ok(outcome) => RpcResponse::Mutated {
                    epoch: outcome.epoch,
                    inserted: outcome.inserted as u64,
                    deleted: outcome.deleted as u64,
                    touched_pages: outcome.touched_pages as u64,
                    structural: outcome.structural,
                    sessions_repaired: outcome.sessions_repaired as u64,
                },
                Err(e) => RpcResponse::Error(fault_of(e)),
            }
        }
    }
}
