//! Frame and payload codec for the shard RPC protocol.
//!
//! The frame layout, payload preambles, and the versioning rules that
//! govern them are documented at the [crate root](crate). This module
//! holds the machinery: [`write_frame`]/[`read_frame`] for the CRC32
//! envelope, the [`RpcRequest`]/[`RpcResponse`] message enums, and their
//! encoders/decoders. Every decoder is total — arbitrary bytes produce an
//! error, never a panic — which the torn-frame test sweep relies on.

use std::io::{self, Read, Write};
use std::sync::Arc;

use approxrank_engine::{
    Algorithm, CacheStats, CachedResult, Estimate, EstimatorOptions, KeywordRequest, RankRequest,
    SessionView,
};
use approxrank_store::crc32;

/// Protocol version; the first byte of every request and response
/// payload. See the crate docs for the rules a bump must follow.
///
/// v2: `RANK` and `SESSION_CREATE` carry the estimator parameters
/// (walks, epsilon, seed) and results carry an optional `estimate`
/// block; `SESSION_CREATE` gained the algorithm byte.
///
/// v3: the `MUTATE` opcode (graph edge-mutation batches) and its
/// `Mutated` response; `STATS` answers carry the cache's stale-eviction
/// counter and the engine's graph epoch.
///
/// v4: every request preamble carries a tenant string after the trace
/// id (empty for untenanted callers), and the `KEYWORD` opcode ranks a
/// subgraph under a keyword base-set personalization.
///
/// v5: the `KEYWORD` payload drops its trailing batch-hint byte; the
/// serving engine shares Λ-collapses among concurrent keyword requests
/// without holding any of them back.
pub const WIRE_VERSION: u8 = 5;

/// Ceiling on a frame's payload length. Anything larger is corruption
/// (or a peer speaking a different protocol) — no legitimate message
/// approaches it.
pub const MAX_FRAME_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Size of the `[u32 len][u32 crc]` frame header.
pub const FRAME_HEADER: usize = 8;

/// Opcode bytes, one per request kind.
pub mod opcode {
    /// Liveness + identity probe.
    pub const PING: u8 = 1;
    /// Cold-path rank of a member list.
    pub const RANK: u8 = 2;
    /// Open a warm session.
    pub const SESSION_CREATE: u8 = 3;
    /// Edit a warm session's membership.
    pub const SESSION_UPDATE: u8 = 4;
    /// Read a session snapshot.
    pub const SESSION_GET: u8 = 5;
    /// Close a session.
    pub const SESSION_DELETE: u8 = 6;
    /// Engine counters (cache, sessions, WAL errors).
    pub const STATS: u8 = 7;
    /// Apply an edge-mutation batch to the live graph.
    pub const MUTATE: u8 = 8;
    /// Rank a member list under a keyword base-set personalization.
    pub const KEYWORD: u8 = 9;
}

/// Status bytes, the second byte of every response payload.
pub mod status {
    /// Success; the body is opcode-specific.
    pub const OK: u8 = 0;
    /// The request was invalid for the engine (maps to HTTP 400).
    pub const BAD_REQUEST: u8 = 1;
    /// No session with the given id (maps to HTTP 404).
    pub const NO_SUCH_SESSION: u8 = 2;
    /// The engine exists but cannot answer right now (maps to HTTP 503).
    pub const UNAVAILABLE: u8 = 3;
    /// The server could not decode the request (version or layout
    /// mismatch); a deployment error, not a data error.
    pub const BAD_PROTOCOL: u8 = 4;
}

/// A decoding failure. Always a sign of corruption or version skew —
/// well-formed peers never produce one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// One request, as seen by both sides of the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcRequest {
    /// Probe liveness and identity (answered without touching a solver).
    Ping,
    /// Rank a member list.
    Rank(RankRequest),
    /// Open a warm session. Carries a full [`RankRequest`] because the
    /// session pins an algorithm (`approxrank` or `mc`) and, for the
    /// estimator tier, its sampling parameters.
    SessionCreate(RankRequest),
    /// Edit a session's membership and warm-start re-solve.
    SessionUpdate {
        /// Session id.
        id: u64,
        /// Ids to add.
        add: Vec<u32>,
        /// Ids to remove.
        remove: Vec<u32>,
    },
    /// Read a session snapshot without re-solving.
    SessionGet {
        /// Session id.
        id: u64,
    },
    /// Close a session.
    SessionDelete {
        /// Session id.
        id: u64,
    },
    /// Read engine counters.
    Stats,
    /// Apply an edge-mutation batch to the shard's live graph. A static
    /// shard server answers `BadRequest`; replicas of a live-delta shard
    /// apply the batch and repair intersecting warm sessions.
    MutateGraph {
        /// Edges to insert, `(source, target)` pairs.
        insert: Vec<(u32, u32)>,
        /// Edges to delete, `(source, target)` pairs.
        delete: Vec<(u32, u32)>,
    },
    /// Rank a member list under a keyword base-set personalization.
    Keyword {
        /// Members, base set, and solver knobs.
        params: KeywordRequest,
    },
}

/// What a `Ping` answers: enough for a router to verify it dialed the
/// shard it meant to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingInfo {
    /// The served shard's id, or `None` for a global (unsharded) engine.
    pub shard_id: Option<u32>,
    /// Node count of the underlying *global* graph.
    pub global_nodes: u64,
    /// Dangling-node count of the global graph.
    pub num_dangling: u64,
    /// Open warm sessions on this replica.
    pub session_count: u64,
}

/// What a `Stats` answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsInfo {
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Open warm sessions.
    pub session_count: u64,
    /// WAL append failures since boot.
    pub wal_errors: u64,
    /// The engine's current graph epoch (0 when static).
    pub graph_epoch: u64,
}

/// One response. `Error` covers every non-`OK` status.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcResponse {
    /// Answer to [`RpcRequest::Ping`].
    Pong(PingInfo),
    /// Answer to [`RpcRequest::Rank`].
    Ranked {
        /// Whether the engine served it from its result cache.
        cached: bool,
        /// The scores.
        result: CachedResult,
    },
    /// Answer to [`RpcRequest::SessionCreate`].
    SessionCreated {
        /// The allocated (strided) session id.
        id: u64,
        /// The first solution.
        result: CachedResult,
    },
    /// Answer to [`RpcRequest::SessionUpdate`].
    SessionUpdated {
        /// Membership after the edit, ascending.
        members: Vec<u32>,
        /// The re-solved scores.
        result: CachedResult,
    },
    /// Answer to [`RpcRequest::SessionGet`]; `None` when no such session.
    Session(Option<SessionView>),
    /// Answer to [`RpcRequest::SessionDelete`]; `false` when no such
    /// session existed.
    SessionDeleted(bool),
    /// Answer to [`RpcRequest::Stats`].
    Stats(StatsInfo),
    /// Answer to [`RpcRequest::Keyword`].
    KeywordRanked {
        /// The keyword-personalized scores.
        result: CachedResult,
    },
    /// Answer to [`RpcRequest::MutateGraph`].
    Mutated {
        /// Graph epoch after the batch.
        epoch: u64,
        /// Edges actually inserted (idempotent re-inserts excluded).
        inserted: u64,
        /// Edges actually deleted.
        deleted: u64,
        /// Pages whose adjacency or degree changed.
        touched_pages: u64,
        /// Whether the batch changed global aggregates (node or dangling
        /// count), invalidating every cached answer.
        structural: bool,
        /// Warm sessions whose answers intersected the batch and were
        /// re-solved.
        sessions_repaired: u64,
    },
    /// Any non-`OK` status.
    Error(RpcFault),
}

/// A non-`OK` response status plus its detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcFault {
    /// Invalid request for this engine (HTTP 400).
    BadRequest(String),
    /// Unknown session id (HTTP 404).
    NoSuchSession(u64),
    /// Engine present but unable to answer (HTTP 503).
    Unavailable(String),
    /// The server could not decode the request — version skew or a
    /// corrupted-but-CRC-valid payload.
    BadProtocol(String),
}

// ---------------------------------------------------------------------------
// Frame envelope
// ---------------------------------------------------------------------------

/// Writes one `[len][crc][payload]` frame. Does not flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD as usize);
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame and verifies its CRC. An oversize length or a CRC
/// mismatch returns [`io::ErrorKind::InvalidData`]; after either, the
/// stream's byte alignment is untrustworthy and the connection must be
/// closed. EOF mid-frame surfaces as [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let expect_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_PAYLOAD}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let got_crc = crc32(&payload);
    if got_crc != expect_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: header {expect_crc:#010x}, payload {got_crc:#010x}"),
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u32(out, id);
    }
}

fn put_edges(out: &mut Vec<u8>, edges: &[(u32, u32)]) {
    put_u32(out, edges.len() as u32);
    for &(u, v) in edges {
        put_u32(out, u);
        put_u32(out, v);
    }
}

fn put_scores(out: &mut Vec<u8>, scores: &[(u32, f64)]) {
    put_u32(out, scores.len() as u32);
    for &(page, score) in scores {
        put_u32(out, page);
        put_f64(out, score);
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            put_u8(out, 1);
            put_f64(out, x);
        }
        None => put_u8(out, 0),
    }
}

fn put_result(out: &mut Vec<u8>, r: &CachedResult) {
    put_scores(out, &r.scores);
    put_opt_f64(out, r.lambda);
    put_u64(out, r.iterations as u64);
    put_bool(out, r.converged);
    match &r.estimate {
        Some(est) => {
            put_u8(out, 1);
            put_u64(out, est.walks);
            put_f64(out, est.epsilon);
            put_f64(out, est.residual);
        }
        None => put_u8(out, 0),
    }
}

/// The `KEYWORD` payload tail: everything a [`KeywordRequest`] carries.
fn put_keyword_request(out: &mut Vec<u8>, r: &KeywordRequest) {
    put_f64(out, r.damping);
    put_f64(out, r.tolerance);
    put_ids(out, &r.members);
    put_ids(out, &r.base);
}

/// The shared tail of `RANK` and `SESSION_CREATE` payloads: everything a
/// [`RankRequest`] carries.
fn put_rank_request(out: &mut Vec<u8>, r: &RankRequest) {
    put_u8(out, r.algorithm.code());
    put_f64(out, r.damping);
    put_f64(out, r.tolerance);
    put_u32(out, r.estimator.walks);
    put_f64(out, r.estimator.epsilon);
    put_u64(out, r.estimator.seed);
    put_ids(out, &r.members);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated payload reading {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError(format!("{what}: bad bool byte {other}"))),
        }
    }

    fn str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        let bytes = self.bytes(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError(format!("{what}: invalid UTF-8")))
    }

    fn ids(&mut self, what: &str) -> Result<Vec<u32>, WireError> {
        let count = self.u32(what)? as usize;
        // Length sanity: each id is 4 bytes, so the remaining payload
        // bounds the plausible count (rejects huge allocations early).
        if count > (self.buf.len() - self.pos) / 4 {
            return Err(WireError(format!(
                "{what}: id count {count} exceeds payload"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32(what)?);
        }
        Ok(out)
    }

    fn edges(&mut self, what: &str) -> Result<Vec<(u32, u32)>, WireError> {
        let count = self.u32(what)? as usize;
        if count > (self.buf.len() - self.pos) / 8 {
            return Err(WireError(format!(
                "{what}: edge count {count} exceeds payload"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let u = self.u32(what)?;
            let v = self.u32(what)?;
            out.push((u, v));
        }
        Ok(out)
    }

    fn scores(&mut self, what: &str) -> Result<Vec<(u32, f64)>, WireError> {
        let count = self.u32(what)? as usize;
        if count > (self.buf.len() - self.pos) / 12 {
            return Err(WireError(format!(
                "{what}: score count {count} exceeds payload"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let page = self.u32(what)?;
            let score = self.f64(what)?;
            out.push((page, score));
        }
        Ok(out)
    }

    fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, WireError> {
        if self.bool(what)? {
            Ok(Some(self.f64(what)?))
        } else {
            Ok(None)
        }
    }

    fn result(&mut self, what: &str) -> Result<CachedResult, WireError> {
        let scores = self.scores(what)?;
        let lambda = self.opt_f64(what)?;
        let iterations = self.u64(what)? as usize;
        let converged = self.bool(what)?;
        let estimate = if self.bool(what)? {
            Some(Estimate {
                walks: self.u64(what)?,
                epsilon: self.f64(what)?,
                residual: self.f64(what)?,
            })
        } else {
            None
        };
        Ok(CachedResult {
            scores: Arc::new(scores),
            lambda,
            iterations,
            converged,
            estimate,
        })
    }

    fn rank_request(&mut self, what: &str) -> Result<RankRequest, WireError> {
        let algorithm = algorithm_from_code(self.u8(what)?)?;
        let damping = self.f64(what)?;
        let tolerance = self.f64(what)?;
        let estimator = EstimatorOptions {
            walks: self.u32(what)?,
            epsilon: self.f64(what)?,
            seed: self.u64(what)?,
        };
        let members = self.ids(what)?;
        Ok(RankRequest {
            members,
            algorithm,
            damping,
            tolerance,
            estimator,
        })
    }

    fn keyword_request(&mut self, what: &str) -> Result<KeywordRequest, WireError> {
        let damping = self.f64(what)?;
        let tolerance = self.f64(what)?;
        let members = self.ids(what)?;
        let base = self.ids(what)?;
        Ok(KeywordRequest {
            members,
            base,
            damping,
            tolerance,
        })
    }

    fn finish(&self, what: &str) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError(format!(
                "{what}: {} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Request encode/decode
// ---------------------------------------------------------------------------

/// Encodes a request payload (frame envelope not included). `tenant`
/// attributes the request to a serving tenant for the far side's logs
/// and quotas; untenanted callers pass `""`.
pub fn encode_request(trace_id: &str, tenant: &str, req: &RpcRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u8(&mut out, WIRE_VERSION);
    let op = match req {
        RpcRequest::Ping => opcode::PING,
        RpcRequest::Rank(_) => opcode::RANK,
        RpcRequest::SessionCreate { .. } => opcode::SESSION_CREATE,
        RpcRequest::SessionUpdate { .. } => opcode::SESSION_UPDATE,
        RpcRequest::SessionGet { .. } => opcode::SESSION_GET,
        RpcRequest::SessionDelete { .. } => opcode::SESSION_DELETE,
        RpcRequest::Stats => opcode::STATS,
        RpcRequest::MutateGraph { .. } => opcode::MUTATE,
        RpcRequest::Keyword { .. } => opcode::KEYWORD,
    };
    put_u8(&mut out, op);
    put_str(&mut out, trace_id);
    put_str(&mut out, tenant);
    match req {
        RpcRequest::Ping | RpcRequest::Stats => {}
        RpcRequest::Rank(r) | RpcRequest::SessionCreate(r) => {
            put_rank_request(&mut out, r);
        }
        RpcRequest::SessionUpdate { id, add, remove } => {
            put_u64(&mut out, *id);
            put_ids(&mut out, add);
            put_ids(&mut out, remove);
        }
        RpcRequest::SessionGet { id } | RpcRequest::SessionDelete { id } => {
            put_u64(&mut out, *id);
        }
        RpcRequest::MutateGraph { insert, delete } => {
            put_edges(&mut out, insert);
            put_edges(&mut out, delete);
        }
        RpcRequest::Keyword { params } => put_keyword_request(&mut out, params),
    }
    out
}

fn algorithm_from_code(code: u8) -> Result<Algorithm, WireError> {
    match code {
        0 => Ok(Algorithm::ApproxRank),
        1 => Ok(Algorithm::IdealRank),
        2 => Ok(Algorithm::Local),
        3 => Ok(Algorithm::Lpr2),
        4 => Ok(Algorithm::Sc),
        5 => Ok(Algorithm::Mc),
        6 => Ok(Algorithm::Push),
        other => Err(WireError(format!("unknown algorithm code {other}"))),
    }
}

/// Decodes a request payload into `(trace_id, tenant, request)`.
pub fn decode_request(payload: &[u8]) -> Result<(String, String, RpcRequest), WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8("version")?;
    if version != WIRE_VERSION {
        return Err(WireError(format!(
            "protocol version mismatch: peer speaks {version}, this build speaks {WIRE_VERSION}"
        )));
    }
    let op = r.u8("opcode")?;
    let trace_id = r.str("trace_id")?;
    let tenant = r.str("tenant")?;
    let req = match op {
        opcode::PING => RpcRequest::Ping,
        opcode::STATS => RpcRequest::Stats,
        opcode::RANK => RpcRequest::Rank(r.rank_request("rank")?),
        opcode::SESSION_CREATE => RpcRequest::SessionCreate(r.rank_request("session create")?),
        opcode::SESSION_UPDATE => {
            let id = r.u64("session id")?;
            let add = r.ids("add")?;
            let remove = r.ids("remove")?;
            RpcRequest::SessionUpdate { id, add, remove }
        }
        opcode::SESSION_GET => RpcRequest::SessionGet {
            id: r.u64("session id")?,
        },
        opcode::SESSION_DELETE => RpcRequest::SessionDelete {
            id: r.u64("session id")?,
        },
        opcode::MUTATE => {
            let insert = r.edges("insert")?;
            let delete = r.edges("delete")?;
            RpcRequest::MutateGraph { insert, delete }
        }
        opcode::KEYWORD => RpcRequest::Keyword {
            params: r.keyword_request("keyword")?,
        },
        other => return Err(WireError(format!("unknown opcode {other}"))),
    };
    r.finish("request")?;
    Ok((trace_id, tenant, req))
}

// ---------------------------------------------------------------------------
// Response encode/decode
// ---------------------------------------------------------------------------

/// Encodes a response payload (frame envelope not included).
pub fn encode_response(resp: &RpcResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u8(&mut out, WIRE_VERSION);
    match resp {
        RpcResponse::Error(fault) => match fault {
            RpcFault::BadRequest(msg) => {
                put_u8(&mut out, status::BAD_REQUEST);
                put_str(&mut out, msg);
            }
            RpcFault::NoSuchSession(id) => {
                put_u8(&mut out, status::NO_SUCH_SESSION);
                put_u64(&mut out, *id);
            }
            RpcFault::Unavailable(msg) => {
                put_u8(&mut out, status::UNAVAILABLE);
                put_str(&mut out, msg);
            }
            RpcFault::BadProtocol(msg) => {
                put_u8(&mut out, status::BAD_PROTOCOL);
                put_str(&mut out, msg);
            }
        },
        ok => {
            put_u8(&mut out, status::OK);
            match ok {
                RpcResponse::Pong(info) => {
                    put_u8(&mut out, opcode::PING);
                    match info.shard_id {
                        Some(id) => {
                            put_u8(&mut out, 1);
                            put_u32(&mut out, id);
                        }
                        None => put_u8(&mut out, 0),
                    }
                    put_u64(&mut out, info.global_nodes);
                    put_u64(&mut out, info.num_dangling);
                    put_u64(&mut out, info.session_count);
                }
                RpcResponse::Ranked { cached, result } => {
                    put_u8(&mut out, opcode::RANK);
                    put_bool(&mut out, *cached);
                    put_result(&mut out, result);
                }
                RpcResponse::SessionCreated { id, result } => {
                    put_u8(&mut out, opcode::SESSION_CREATE);
                    put_u64(&mut out, *id);
                    put_result(&mut out, result);
                }
                RpcResponse::SessionUpdated { members, result } => {
                    put_u8(&mut out, opcode::SESSION_UPDATE);
                    put_ids(&mut out, members);
                    put_result(&mut out, result);
                }
                RpcResponse::Session(view) => {
                    put_u8(&mut out, opcode::SESSION_GET);
                    match view {
                        None => put_u8(&mut out, 0),
                        Some(v) => {
                            put_u8(&mut out, 1);
                            put_ids(&mut out, &v.members);
                            put_u64(&mut out, v.last_iterations as u64);
                            put_f64(&mut out, v.damping);
                            put_f64(&mut out, v.tolerance);
                            match &v.solution {
                                None => put_u8(&mut out, 0),
                                Some((scores, lambda)) => {
                                    put_u8(&mut out, 1);
                                    put_scores(&mut out, scores);
                                    put_f64(&mut out, *lambda);
                                }
                            }
                        }
                    }
                }
                RpcResponse::SessionDeleted(existed) => {
                    put_u8(&mut out, opcode::SESSION_DELETE);
                    put_bool(&mut out, *existed);
                }
                RpcResponse::Stats(info) => {
                    put_u8(&mut out, opcode::STATS);
                    put_u64(&mut out, info.cache.hits);
                    put_u64(&mut out, info.cache.misses);
                    put_u64(&mut out, info.cache.evictions);
                    put_u64(&mut out, info.cache.invalidations);
                    put_u64(&mut out, info.cache.stale_evictions);
                    put_u64(&mut out, info.cache.entries as u64);
                    put_u64(&mut out, info.cache.capacity as u64);
                    put_u64(&mut out, info.session_count);
                    put_u64(&mut out, info.wal_errors);
                    put_u64(&mut out, info.graph_epoch);
                }
                RpcResponse::KeywordRanked { result } => {
                    put_u8(&mut out, opcode::KEYWORD);
                    put_result(&mut out, result);
                }
                RpcResponse::Mutated {
                    epoch,
                    inserted,
                    deleted,
                    touched_pages,
                    structural,
                    sessions_repaired,
                } => {
                    put_u8(&mut out, opcode::MUTATE);
                    put_u64(&mut out, *epoch);
                    put_u64(&mut out, *inserted);
                    put_u64(&mut out, *deleted);
                    put_u64(&mut out, *touched_pages);
                    put_bool(&mut out, *structural);
                    put_u64(&mut out, *sessions_repaired);
                }
                RpcResponse::Error(_) => unreachable!("handled above"),
            }
        }
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<RpcResponse, WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8("version")?;
    if version != WIRE_VERSION {
        return Err(WireError(format!(
            "protocol version mismatch: peer speaks {version}, this build speaks {WIRE_VERSION}"
        )));
    }
    let st = r.u8("status")?;
    let resp = match st {
        status::BAD_REQUEST => RpcResponse::Error(RpcFault::BadRequest(r.str("message")?)),
        status::NO_SUCH_SESSION => {
            RpcResponse::Error(RpcFault::NoSuchSession(r.u64("session id")?))
        }
        status::UNAVAILABLE => RpcResponse::Error(RpcFault::Unavailable(r.str("message")?)),
        status::BAD_PROTOCOL => RpcResponse::Error(RpcFault::BadProtocol(r.str("message")?)),
        status::OK => {
            let op = r.u8("response opcode")?;
            match op {
                opcode::PING => {
                    let shard_id = if r.bool("shard flag")? {
                        Some(r.u32("shard id")?)
                    } else {
                        None
                    };
                    RpcResponse::Pong(PingInfo {
                        shard_id,
                        global_nodes: r.u64("global nodes")?,
                        num_dangling: r.u64("dangling")?,
                        session_count: r.u64("sessions")?,
                    })
                }
                opcode::RANK => {
                    let cached = r.bool("cached")?;
                    let result = r.result("result")?;
                    RpcResponse::Ranked { cached, result }
                }
                opcode::SESSION_CREATE => {
                    let id = r.u64("session id")?;
                    let result = r.result("result")?;
                    RpcResponse::SessionCreated { id, result }
                }
                opcode::SESSION_UPDATE => {
                    let members = r.ids("members")?;
                    let result = r.result("result")?;
                    RpcResponse::SessionUpdated { members, result }
                }
                opcode::SESSION_GET => {
                    if r.bool("session flag")? {
                        let members = r.ids("members")?;
                        let last_iterations = r.u64("iterations")? as usize;
                        let damping = r.f64("damping")?;
                        let tolerance = r.f64("tolerance")?;
                        let solution = if r.bool("solution flag")? {
                            let scores = r.scores("solution")?;
                            let lambda = r.f64("lambda")?;
                            Some((scores, lambda))
                        } else {
                            None
                        };
                        RpcResponse::Session(Some(SessionView {
                            members,
                            last_iterations,
                            damping,
                            tolerance,
                            solution,
                        }))
                    } else {
                        RpcResponse::Session(None)
                    }
                }
                opcode::SESSION_DELETE => RpcResponse::SessionDeleted(r.bool("existed")?),
                opcode::STATS => RpcResponse::Stats(StatsInfo {
                    cache: CacheStats {
                        hits: r.u64("hits")?,
                        misses: r.u64("misses")?,
                        evictions: r.u64("evictions")?,
                        invalidations: r.u64("invalidations")?,
                        stale_evictions: r.u64("stale evictions")?,
                        entries: r.u64("entries")? as usize,
                        capacity: r.u64("capacity")? as usize,
                    },
                    session_count: r.u64("sessions")?,
                    wal_errors: r.u64("wal errors")?,
                    graph_epoch: r.u64("graph epoch")?,
                }),
                opcode::KEYWORD => RpcResponse::KeywordRanked {
                    result: r.result("keyword result")?,
                },
                opcode::MUTATE => RpcResponse::Mutated {
                    epoch: r.u64("epoch")?,
                    inserted: r.u64("inserted")?,
                    deleted: r.u64("deleted")?,
                    touched_pages: r.u64("touched pages")?,
                    structural: r.bool("structural")?,
                    sessions_repaired: r.u64("sessions repaired")?,
                },
                other => return Err(WireError(format!("unknown response opcode {other}"))),
            }
        }
        other => return Err(WireError(format!("unknown status byte {other}"))),
    };
    r.finish("response")?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> CachedResult {
        CachedResult {
            scores: Arc::new(vec![(3, 0.125), (9, 1.0 / 3.0), (17, f64::MIN_POSITIVE)]),
            lambda: Some(0.4375),
            iterations: 42,
            converged: true,
            estimate: None,
        }
    }

    fn sample_estimated_result() -> CachedResult {
        CachedResult {
            estimate: Some(Estimate {
                walks: 2560,
                epsilon: 1e-3,
                residual: 0.0078125,
            }),
            ..sample_result()
        }
    }

    fn all_requests() -> Vec<RpcRequest> {
        vec![
            RpcRequest::Ping,
            RpcRequest::Stats,
            RpcRequest::Rank(RankRequest {
                members: vec![1, 5, 9],
                algorithm: Algorithm::ApproxRank,
                damping: 0.85,
                tolerance: 1e-10,
                estimator: EstimatorOptions::default(),
            }),
            RpcRequest::Rank(RankRequest {
                members: vec![1, 5, 9],
                algorithm: Algorithm::Mc,
                damping: 0.85,
                tolerance: 1e-10,
                estimator: EstimatorOptions {
                    walks: 512,
                    epsilon: 1e-2,
                    seed: 99,
                },
            }),
            RpcRequest::SessionCreate(RankRequest {
                members: vec![2, 4],
                algorithm: Algorithm::Mc,
                damping: 0.9,
                tolerance: 1e-8,
                estimator: EstimatorOptions::default(),
            }),
            RpcRequest::SessionUpdate {
                id: 7,
                add: vec![11],
                remove: vec![2],
            },
            RpcRequest::SessionGet { id: 3 },
            RpcRequest::SessionDelete { id: 3 },
            RpcRequest::MutateGraph {
                insert: vec![(1, 2), (3, 4)],
                delete: vec![(5, 6)],
            },
            RpcRequest::MutateGraph {
                insert: Vec::new(),
                delete: Vec::new(),
            },
            RpcRequest::Keyword {
                params: KeywordRequest {
                    members: vec![1, 5, 9],
                    base: vec![5, 40],
                    damping: 0.85,
                    tolerance: 1e-10,
                },
            },
            RpcRequest::Keyword {
                params: KeywordRequest {
                    members: vec![2],
                    base: vec![2],
                    damping: 0.9,
                    tolerance: 1e-8,
                },
            },
        ]
    }

    fn all_responses() -> Vec<RpcResponse> {
        vec![
            RpcResponse::Pong(PingInfo {
                shard_id: Some(1),
                global_nodes: 200,
                num_dangling: 3,
                session_count: 2,
            }),
            RpcResponse::Pong(PingInfo {
                shard_id: None,
                global_nodes: 7,
                num_dangling: 0,
                session_count: 0,
            }),
            RpcResponse::Ranked {
                cached: true,
                result: sample_result(),
            },
            RpcResponse::Ranked {
                cached: false,
                result: sample_estimated_result(),
            },
            RpcResponse::SessionCreated {
                id: 5,
                result: sample_result(),
            },
            RpcResponse::SessionCreated {
                id: 6,
                result: sample_estimated_result(),
            },
            RpcResponse::SessionUpdated {
                members: vec![1, 2, 3],
                result: sample_result(),
            },
            RpcResponse::Session(None),
            RpcResponse::Session(Some(SessionView {
                members: vec![4, 8],
                last_iterations: 9,
                damping: 0.85,
                tolerance: 1e-9,
                solution: Some((vec![(4, 0.5), (8, 0.25)], 0.25)),
            })),
            RpcResponse::Session(Some(SessionView {
                members: vec![4],
                last_iterations: 0,
                damping: 0.85,
                tolerance: 1e-9,
                solution: None,
            })),
            RpcResponse::SessionDeleted(true),
            RpcResponse::KeywordRanked {
                result: sample_result(),
            },
            RpcResponse::Stats(StatsInfo {
                cache: CacheStats {
                    hits: 1,
                    misses: 2,
                    evictions: 3,
                    invalidations: 4,
                    stale_evictions: 9,
                    entries: 5,
                    capacity: 6,
                },
                session_count: 7,
                wal_errors: 8,
                graph_epoch: 11,
            }),
            RpcResponse::Mutated {
                epoch: 3,
                inserted: 2,
                deleted: 1,
                touched_pages: 5,
                structural: false,
                sessions_repaired: 1,
            },
            RpcResponse::Mutated {
                epoch: 4,
                inserted: 1,
                deleted: 0,
                touched_pages: 2,
                structural: true,
                sessions_repaired: 0,
            },
            RpcResponse::Error(RpcFault::BadRequest("bad".into())),
            RpcResponse::Error(RpcFault::NoSuchSession(99)),
            RpcResponse::Error(RpcFault::Unavailable("down".into())),
            RpcResponse::Error(RpcFault::BadProtocol("v2".into())),
        ]
    }

    /// Compare results bitwise (f64 == would also pass here, but the wire
    /// guarantee is bit-level, so assert at that level).
    fn assert_result_eq(a: &CachedResult, b: &CachedResult) {
        assert_eq!(a.scores.len(), b.scores.len());
        for ((pa, sa), (pb, sb)) in a.scores.iter().zip(b.scores.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
        assert_eq!(a.lambda.map(f64::to_bits), b.lambda.map(f64::to_bits));
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.estimate.is_some(), b.estimate.is_some());
        if let (Some(ea), Some(eb)) = (&a.estimate, &b.estimate) {
            assert_eq!(ea.walks, eb.walks);
            assert_eq!(ea.epsilon.to_bits(), eb.epsilon.to_bits());
            assert_eq!(ea.residual.to_bits(), eb.residual.to_bits());
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let payload = encode_request("abc123", "acme", &req);
            let (trace_id, tenant, back) = decode_request(&payload).unwrap();
            assert_eq!(trace_id, "abc123");
            assert_eq!(tenant, "acme");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn empty_trace_id_and_tenant_round_trip() {
        let payload = encode_request("", "", &RpcRequest::Ping);
        let (trace_id, tenant, req) = decode_request(&payload).unwrap();
        assert_eq!(trace_id, "");
        assert_eq!(tenant, "");
        assert_eq!(req, RpcRequest::Ping);
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            let payload = encode_response(&resp);
            let back = decode_response(&payload).unwrap();
            match (&resp, &back) {
                (RpcResponse::Ranked { result: a, .. }, RpcResponse::Ranked { result: b, .. }) => {
                    assert_result_eq(a, b)
                }
                _ => assert_eq!(back, resp),
            }
        }
    }

    #[test]
    fn frames_round_trip() {
        let payload = encode_request("t", "", &RpcRequest::Ping);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), FRAME_HEADER + payload.len());
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn corrupt_crc_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversize_length_is_invalid_data() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_rejected_both_directions() {
        let mut payload = encode_request("t", "", &RpcRequest::Ping);
        payload[0] = WIRE_VERSION + 1;
        assert!(decode_request(&payload).is_err());
        let mut payload = encode_response(&RpcResponse::SessionDeleted(false));
        payload[0] = WIRE_VERSION + 1;
        assert!(decode_response(&payload).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request("t", "", &RpcRequest::Ping);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
        let mut payload = encode_response(&RpcResponse::SessionDeleted(true));
        payload.push(0);
        assert!(decode_response(&payload).is_err());
    }

    #[test]
    fn unknown_opcode_and_status_rejected() {
        let mut payload = Vec::new();
        put_u8(&mut payload, WIRE_VERSION);
        put_u8(&mut payload, 200);
        put_str(&mut payload, "t");
        assert!(decode_request(&payload).is_err());

        let mut payload = Vec::new();
        put_u8(&mut payload, WIRE_VERSION);
        put_u8(&mut payload, 200);
        assert!(decode_response(&payload).is_err());
    }

    /// Every strict prefix of every valid payload must decode to a clean
    /// error — the every-prefix sweep the graph binary reader also gets.
    #[test]
    fn every_request_prefix_fails_cleanly() {
        for req in all_requests() {
            let payload = encode_request("abc123", "acme", &req);
            for cut in 0..payload.len() {
                assert!(
                    decode_request(&payload[..cut]).is_err(),
                    "prefix {cut} of {req:?} decoded"
                );
            }
        }
    }

    #[test]
    fn every_response_prefix_fails_cleanly() {
        for resp in all_responses() {
            let payload = encode_response(&resp);
            for cut in 0..payload.len() {
                assert!(
                    decode_response(&payload[..cut]).is_err(),
                    "prefix {cut} of {resp:?} decoded"
                );
            }
        }
    }
}
