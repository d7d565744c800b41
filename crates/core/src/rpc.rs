//! The controller RPC protocol (§6: "The connection manager … uses RPC
//! operations for all control-plane activities").
//!
//! A tiny length-prefixed binary protocol carrying the four interface
//! calls of Fig. 7 and their responses. Frames are:
//!
//! ```text
//! u32  payload length (big-endian, excluding itself)
//! u8   protocol version (PROTO_VERSION)
//! u8   message type
//! ...  fields (big-endian integers; strings are u16 length + UTF-8)
//! ```
//!
//! Error responses carry a typed [`ErrorCode`] so service clients can
//! distinguish *retryable* conditions (a shard mid-failover, an edge
//! rate limit) from *fatal* ones (`UnknownConnection`, a malformed
//! request) without parsing human-readable strings.

use crate::controller::ControllerError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_telemetry::span::TraceContext;
use saba_workload::churn::ChurnOp;
use std::fmt;

/// The protocol version stamped on (and required of) every frame.
///
/// Version 1 was the unversioned pre-service format; version 2 added
/// this byte plus typed error codes. A decoder that sees any other
/// version returns [`RpcError::Version`] — a *fatal* condition (the
/// peer speaks a different protocol; retrying cannot help).
pub const PROTO_VERSION: u8 = 2;

/// A control-plane request from the Saba library to the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `saba_app_register` (Fig. 7 ①②).
    AppRegister {
        /// The registering application.
        app: AppId,
        /// Its profiled workload name (sensitivity-table key).
        workload: String,
    },
    /// `saba_conn_create` (Fig. 7 ④⑤).
    ConnCreate {
        /// Owning application.
        app: AppId,
        /// Source server.
        src: NodeId,
        /// Destination server.
        dst: NodeId,
        /// Connection tag (ECMP hash input / identity).
        tag: u64,
    },
    /// `saba_conn_destroy` (Fig. 7 ⑧⑨).
    ConnDestroy {
        /// Owning application.
        app: AppId,
        /// The connection's tag.
        tag: u64,
    },
    /// `saba_app_deregister` (Fig. 7 ⑫⑬).
    AppDeregister {
        /// The departing application.
        app: AppId,
    },
    /// Scrape the service's metrics registry as a Prometheus-style
    /// text page. Read-only: never logged, never routed to a shard.
    MetricsDump,
}

impl Request {
    /// The tenant a request acts for — the shard-routing and admission
    /// key. `None` for the tenant-less [`Request::MetricsDump`].
    pub fn tenant(&self) -> Option<AppId> {
        match self {
            Request::AppRegister { app, .. }
            | Request::ConnCreate { app, .. }
            | Request::ConnDestroy { app, .. }
            | Request::AppDeregister { app } => Some(*app),
            Request::MetricsDump => None,
        }
    }

    /// The operation's name, as span ops (`rpc.<op>`) and metric
    /// labels (`op=<op>`) spell it.
    pub fn op(&self) -> &'static str {
        match self {
            Request::AppRegister { .. } => "register",
            Request::ConnCreate { .. } => "conn_create",
            Request::ConnDestroy { .. } => "conn_destroy",
            Request::AppDeregister { .. } => "deregister",
            Request::MetricsDump => "metrics_dump",
        }
    }

    /// The request a synthetic churn op stands for, its server indices
    /// wrapped onto `servers`. `None` for demand shifts — a
    /// workload-plane signal with no control-plane call.
    pub fn from_churn(op: &ChurnOp, servers: &[NodeId]) -> Option<Self> {
        let server = |i: u32| servers[i as usize % servers.len()];
        Some(match op {
            ChurnOp::Register { app, workload } => Request::AppRegister {
                app: AppId(*app),
                workload: workload.clone(),
            },
            ChurnOp::ConnCreate { app, src, dst, tag } => Request::ConnCreate {
                app: AppId(*app),
                src: server(*src),
                dst: server(*dst),
                tag: *tag,
            },
            ChurnOp::ConnDestroy { app, tag } => Request::ConnDestroy {
                app: AppId(*app),
                tag: *tag,
            },
            ChurnOp::Deregister { app } => Request::AppDeregister { app: AppId(*app) },
            ChurnOp::DemandShift { .. } => return None,
        })
    }
}

/// A request wrapped with a client-chosen idempotency id.
///
/// Lossy transports may retry or duplicate a request; the id lets the
/// controller recognise a replay of an operation it has already applied
/// and return the cached response instead of applying it twice (e.g. a
/// duplicated `ConnCreate` must not double-count link references).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-unique request id (monotonic per client).
    pub request_id: u64,
    /// Trace id shared by every span this request causes. Deterministic
    /// (derived from `request_id`, never wall-clock) so seeded drills
    /// export byte-identical span trees.
    pub trace_id: u64,
    /// The caller's span id (parent of server-side spans).
    pub span_id: u64,
    /// The caller's parent span id; 0 when the client is the root.
    pub parent_id: u64,
    /// The wrapped request.
    pub request: Request,
}

impl Envelope {
    /// Wraps a request with its deterministic root trace context (a
    /// pure function of `request_id`; see `saba_telemetry::span`).
    pub fn new(request_id: u64, request: Request) -> Self {
        let ctx = TraceContext::root(request_id);
        Self {
            request_id,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            request,
        }
    }

    /// This envelope's propagated trace context.
    pub fn ctx(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
        }
    }
}

/// A controller response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Registration succeeded; connections must carry this SL (Fig. 7 ③).
    Registered {
        /// The assigned Service Level (priority level).
        sl: ServiceLevel,
    },
    /// The operation succeeded.
    Ack,
    /// The metrics page answering a [`Request::MetricsDump`].
    Metrics {
        /// Prometheus-style text exposition of the service registry.
        text: String,
    },
    /// The operation failed.
    Error {
        /// Machine-readable failure class (retryable vs fatal).
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
}

/// A typed failure class carried in every [`Response::Error`] frame.
///
/// Codes below 16 are **retryable**: the request was well-formed and
/// may succeed if re-sent after a backoff (the shard is busy or
/// failing over, the edge rate limiter pushed back). Codes 16 and up
/// are **fatal**: re-sending the identical request can never succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// The shard's admission queue is full; retry after a backoff.
    ShardBusy = 1,
    /// The shard is mid-failover; a standby is replaying its log.
    FailingOver = 2,
    /// The per-tenant edge rate limiter rejected the request.
    RateLimited = 3,
    /// Reserved, never emitted: once "the controller is down with no
    /// standby yet"; a request to a shard that is down or dies
    /// mid-request now reads [`Self::FailingOver`] while its standby
    /// comes up. Decoders still accept wire code 4, so an older peer's
    /// frame decodes (as a retryable failure); the code is not reused.
    ControllerDown = 4,
    /// The client-side transport exhausted its retry budget.
    Timeout = 5,
    /// The workload was never profiled (no sensitivity model).
    UnknownWorkload = 16,
    /// The application id is not registered.
    UnknownApp = 17,
    /// The application id is already registered.
    AlreadyRegistered = 18,
    /// No route exists between the connection's endpoints.
    Unreachable = 19,
    /// The connection id is unknown.
    UnknownConnection = 20,
    /// All priority levels are exhausted.
    NoPlAvailable = 21,
    /// The request frame was malformed.
    Malformed = 22,
    /// The peer speaks an unsupported protocol version.
    VersionMismatch = 23,
    /// An unclassified server-side failure.
    Internal = 24,
}

impl ErrorCode {
    /// True for transient conditions worth retrying after a backoff.
    pub fn is_retryable(self) -> bool {
        (self as u8) < 16
    }

    /// Decodes a wire byte into a code, if it names one.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::ShardBusy,
            2 => Self::FailingOver,
            3 => Self::RateLimited,
            4 => Self::ControllerDown,
            5 => Self::Timeout,
            16 => Self::UnknownWorkload,
            17 => Self::UnknownApp,
            18 => Self::AlreadyRegistered,
            19 => Self::Unreachable,
            20 => Self::UnknownConnection,
            21 => Self::NoPlAvailable,
            22 => Self::Malformed,
            23 => Self::VersionMismatch,
            24 => Self::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl ControllerError {
    /// The wire-level error class of this controller failure. All
    /// controller errors are fatal: the controller rejected the
    /// operation itself, not the circumstances around it.
    pub fn code(&self) -> ErrorCode {
        match self {
            ControllerError::UnknownWorkload(_) => ErrorCode::UnknownWorkload,
            ControllerError::UnknownApp(_) => ErrorCode::UnknownApp,
            ControllerError::AlreadyRegistered(_) => ErrorCode::AlreadyRegistered,
            ControllerError::Unreachable { .. } => ErrorCode::Unreachable,
            ControllerError::UnknownConnection(_) => ErrorCode::UnknownConnection,
            ControllerError::DuplicateConnection(_) => ErrorCode::Malformed,
            ControllerError::NoPlAvailable => ErrorCode::NoPlAvailable,
        }
    }
}

impl Response {
    /// Builds an error response from a controller rejection.
    pub fn from_controller_error(e: &ControllerError) -> Self {
        Response::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The buffer does not yet hold a complete frame.
    Incomplete,
    /// The frame is malformed (bad type byte, truncated fields, bad
    /// UTF-8).
    Malformed(&'static str),
    /// The frame carries a protocol version this decoder does not
    /// speak. Fatal: the peer is from a different build generation.
    Version(u8),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Incomplete => write!(f, "incomplete frame"),
            RpcError::Malformed(what) => write!(f, "malformed frame: {what}"),
            RpcError::Version(got) => {
                write!(
                    f,
                    "unsupported protocol version {got} (want {PROTO_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for RpcError {}

const T_APP_REGISTER: u8 = 1;
const T_CONN_CREATE: u8 = 2;
const T_CONN_DESTROY: u8 = 3;
const T_APP_DEREGISTER: u8 = 4;
const T_ENVELOPE: u8 = 5;
const T_METRICS_DUMP: u8 = 6;
const T_REGISTERED: u8 = 16;
const T_ACK: u8 = 17;
const T_ERROR: u8 = 18;
const T_METRICS: u8 = 19;

/// Upper bound on a frame's payload length. Requests are a few dozen
/// bytes (an `AppRegister` with a 64 KiB workload name is the worst
/// case); the largest legitimate frame is a [`Response::Metrics`] page,
/// which under a long soak with many tenants runs to hundreds of KiB.
/// Anything bigger is garbage — rejecting it here keeps a malformed
/// length prefix from asking the decoder to wait for gigabytes that
/// will never arrive.
pub const MAX_FRAME_LEN: usize = 1 << 20;

fn put_string(buf: &mut BytesMut, s: &str) {
    assert!(
        s.len() <= u16::MAX as usize,
        "string too long for the wire format"
    );
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, RpcError> {
    if buf.remaining() < 2 {
        return Err(RpcError::Malformed("truncated string length"));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(RpcError::Malformed("truncated string body"));
    }
    let (head, rest) = buf.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| RpcError::Malformed("invalid UTF-8"))?
        .to_string();
    *buf = rest;
    Ok(s)
}

fn frame(body: BytesMut) -> Bytes {
    // The version byte counts toward the declared payload length.
    let mut out = BytesMut::with_capacity(5 + body.len());
    out.put_u32(body.len() as u32 + 1);
    out.put_u8(PROTO_VERSION);
    out.extend_from_slice(&body);
    out.freeze()
}

/// Writes a request's body (type byte + fields, no length prefix).
fn encode_request_body(req: &Request, b: &mut BytesMut) {
    match req {
        Request::AppRegister { app, workload } => {
            b.put_u8(T_APP_REGISTER);
            b.put_u32(app.0);
            put_string(b, workload);
        }
        Request::ConnCreate { app, src, dst, tag } => {
            b.put_u8(T_CONN_CREATE);
            b.put_u32(app.0);
            b.put_u32(src.0);
            b.put_u32(dst.0);
            b.put_u64(*tag);
        }
        Request::ConnDestroy { app, tag } => {
            b.put_u8(T_CONN_DESTROY);
            b.put_u32(app.0);
            b.put_u64(*tag);
        }
        Request::AppDeregister { app } => {
            b.put_u8(T_APP_DEREGISTER);
            b.put_u32(app.0);
        }
        Request::MetricsDump => {
            b.put_u8(T_METRICS_DUMP);
        }
    }
}

/// Encodes a request into a wire frame.
pub fn encode_request(req: &Request) -> Bytes {
    let mut b = BytesMut::new();
    encode_request_body(req, &mut b);
    frame(b)
}

/// Encodes an id-wrapped request into a wire frame.
///
/// Layout: `u8 type (5) · u64 request id · u64 trace id · u64 span id
/// · u64 parent id · request body` — the inner request is embedded
/// without its own length prefix.
pub fn encode_envelope(env: &Envelope) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u8(T_ENVELOPE);
    b.put_u64(env.request_id);
    b.put_u64(env.trace_id);
    b.put_u64(env.span_id);
    b.put_u64(env.parent_id);
    encode_request_body(&env.request, &mut b);
    frame(b)
}

/// Encodes a response into a wire frame.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut b = BytesMut::new();
    match resp {
        Response::Registered { sl } => {
            b.put_u8(T_REGISTERED);
            b.put_u8(sl.value());
        }
        Response::Ack => b.put_u8(T_ACK),
        Response::Metrics { text } => {
            b.put_u8(T_METRICS);
            // A metrics page can exceed the u16 string limit, so it
            // carries its own u32 length.
            b.put_u32(text.len() as u32);
            b.put_slice(text.as_bytes());
        }
        Response::Error { code, message } => {
            b.put_u8(T_ERROR);
            b.put_u8(*code as u8);
            put_string(&mut b, message);
        }
    }
    frame(b)
}

/// Splits one frame's payload off `data`, returning `(payload, rest)`.
///
/// Rejects frames whose declared length exceeds [`MAX_FRAME_LEN`] — an
/// attacker-controlled (or corrupted) length prefix must not stall the
/// decoder forever waiting for data that will never come.
fn take_frame(data: &[u8]) -> Result<(&[u8], &[u8]), RpcError> {
    if data.len() < 4 {
        return Err(RpcError::Incomplete);
    }
    let len = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(RpcError::Malformed("oversized frame"));
    }
    if data.len() < 4 + len {
        return Err(RpcError::Incomplete);
    }
    let payload = &data[4..4 + len];
    let rest = &data[4 + len..];
    // Every frame leads with its protocol version.
    let (&version, payload) = payload
        .split_first()
        .ok_or(RpcError::Malformed("empty frame"))?;
    if version != PROTO_VERSION {
        return Err(RpcError::Version(version));
    }
    Ok((payload, rest))
}

/// Reads a request body (type byte + fields) from `body`, advancing it.
fn decode_request_body(body: &mut &[u8]) -> Result<Request, RpcError> {
    if body.remaining() < 1 {
        return Err(RpcError::Malformed("empty frame"));
    }
    let ty = body.get_u8();
    match ty {
        T_APP_REGISTER => {
            if body.remaining() < 4 {
                return Err(RpcError::Malformed("truncated AppRegister"));
            }
            let app = AppId(body.get_u32());
            let workload = get_string(body)?;
            Ok(Request::AppRegister { app, workload })
        }
        T_CONN_CREATE => {
            if body.remaining() < 4 + 4 + 4 + 8 {
                return Err(RpcError::Malformed("truncated ConnCreate"));
            }
            Ok(Request::ConnCreate {
                app: AppId(body.get_u32()),
                src: NodeId(body.get_u32()),
                dst: NodeId(body.get_u32()),
                tag: body.get_u64(),
            })
        }
        T_CONN_DESTROY => {
            if body.remaining() < 4 + 8 {
                return Err(RpcError::Malformed("truncated ConnDestroy"));
            }
            Ok(Request::ConnDestroy {
                app: AppId(body.get_u32()),
                tag: body.get_u64(),
            })
        }
        T_APP_DEREGISTER => {
            if body.remaining() < 4 {
                return Err(RpcError::Malformed("truncated AppDeregister"));
            }
            Ok(Request::AppDeregister {
                app: AppId(body.get_u32()),
            })
        }
        T_METRICS_DUMP => Ok(Request::MetricsDump),
        _ => Err(RpcError::Malformed("unknown request type")),
    }
}

/// Decodes one request frame, returning it and the unconsumed tail.
///
/// Strict: bytes left over *inside* the frame after the message are
/// rejected (a length/body mismatch is corruption, not padding).
pub fn decode_request(data: &[u8]) -> Result<(Request, &[u8]), RpcError> {
    let (mut body, rest) = take_frame(data)?;
    let req = decode_request_body(&mut body)?;
    if !body.is_empty() {
        return Err(RpcError::Malformed("trailing bytes in frame"));
    }
    Ok((req, rest))
}

/// Decodes one id-wrapped request frame, returning it and the
/// unconsumed tail. Strict about trailing bytes, like
/// [`decode_request`].
pub fn decode_envelope(data: &[u8]) -> Result<(Envelope, &[u8]), RpcError> {
    let (mut body, rest) = take_frame(data)?;
    if body.remaining() < 1 {
        return Err(RpcError::Malformed("empty frame"));
    }
    if body.get_u8() != T_ENVELOPE {
        return Err(RpcError::Malformed("not an envelope"));
    }
    if body.remaining() < 8 * 4 {
        return Err(RpcError::Malformed("truncated envelope header"));
    }
    let request_id = body.get_u64();
    let trace_id = body.get_u64();
    let span_id = body.get_u64();
    let parent_id = body.get_u64();
    let request = decode_request_body(&mut body)?;
    if !body.is_empty() {
        return Err(RpcError::Malformed("trailing bytes in frame"));
    }
    Ok((
        Envelope {
            request_id,
            trace_id,
            span_id,
            parent_id,
            request,
        },
        rest,
    ))
}

/// Decodes one response frame, returning it and the unconsumed tail.
///
/// Strict: bytes left over inside the frame are rejected.
pub fn decode_response(data: &[u8]) -> Result<(Response, &[u8]), RpcError> {
    let (mut body, rest) = take_frame(data)?;
    if body.remaining() < 1 {
        return Err(RpcError::Malformed("empty frame"));
    }
    let ty = body.get_u8();
    let resp = match ty {
        T_REGISTERED => {
            if body.remaining() < 1 {
                return Err(RpcError::Malformed("truncated Registered"));
            }
            let sl = body.get_u8();
            if sl as usize >= ServiceLevel::COUNT {
                return Err(RpcError::Malformed("SL out of range"));
            }
            Response::Registered {
                sl: ServiceLevel(sl),
            }
        }
        T_ACK => Response::Ack,
        T_METRICS => {
            if body.remaining() < 4 {
                return Err(RpcError::Malformed("truncated metrics length"));
            }
            let len = body.get_u32() as usize;
            if body.remaining() < len {
                return Err(RpcError::Malformed("truncated metrics body"));
            }
            let (head, rest_body) = body.split_at(len);
            let text = std::str::from_utf8(head)
                .map_err(|_| RpcError::Malformed("invalid UTF-8"))?
                .to_string();
            body = rest_body;
            Response::Metrics { text }
        }
        T_ERROR => {
            if body.remaining() < 1 {
                return Err(RpcError::Malformed("truncated error code"));
            }
            let code = ErrorCode::from_u8(body.get_u8())
                .ok_or(RpcError::Malformed("unknown error code"))?;
            Response::Error {
                code,
                message: get_string(&mut body)?,
            }
        }
        _ => return Err(RpcError::Malformed("unknown response type")),
    };
    if !body.is_empty() {
        return Err(RpcError::Malformed("trailing bytes in frame"));
    }
    Ok((resp, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let wire = encode_request(&req);
        let (back, rest) = decode_request(&wire).unwrap();
        assert_eq!(back, req);
        assert!(rest.is_empty());
    }

    fn round_trip_response(resp: Response) {
        let wire = encode_response(&resp);
        let (back, rest) = decode_response(&wire).unwrap();
        assert_eq!(back, resp);
        assert!(rest.is_empty());
    }

    #[test]
    fn all_requests_round_trip() {
        round_trip_request(Request::AppRegister {
            app: AppId(7),
            workload: "LR".into(),
        });
        round_trip_request(Request::ConnCreate {
            app: AppId(1),
            src: NodeId(2),
            dst: NodeId(3),
            tag: 0xDEAD_BEEF_CAFE,
        });
        round_trip_request(Request::ConnDestroy {
            app: AppId(1),
            tag: 42,
        });
        round_trip_request(Request::AppDeregister { app: AppId(9) });
        round_trip_request(Request::MetricsDump);
    }

    #[test]
    fn all_responses_round_trip() {
        round_trip_response(Response::Registered {
            sl: ServiceLevel(13),
        });
        round_trip_response(Response::Ack);
        round_trip_response(Response::Error {
            code: ErrorCode::UnknownWorkload,
            message: "unknown workload".into(),
        });
        round_trip_response(Response::Metrics {
            text: String::new(),
        });
        // A metrics page larger than the u16 string limit still fits.
        round_trip_response(Response::Metrics {
            text: "# TYPE x counter\nx 1\n".repeat(5000),
        });
    }

    #[test]
    fn every_error_code_round_trips() {
        for v in 0..=u8::MAX {
            if let Some(code) = ErrorCode::from_u8(v) {
                assert_eq!(code as u8, v);
                round_trip_response(Response::Error {
                    code,
                    message: format!("code {v}"),
                });
            }
        }
    }

    #[test]
    fn reserved_controller_down_still_decodes() {
        assert_eq!(ErrorCode::from_u8(4), Some(ErrorCode::ControllerDown));
        assert!(ErrorCode::ControllerDown.is_retryable());
    }

    #[test]
    fn retryable_fatal_split_is_stable() {
        for code in [
            ErrorCode::ShardBusy,
            ErrorCode::FailingOver,
            ErrorCode::RateLimited,
            ErrorCode::ControllerDown,
            ErrorCode::Timeout,
        ] {
            assert!(code.is_retryable(), "{code} must be retryable");
        }
        for code in [
            ErrorCode::UnknownWorkload,
            ErrorCode::UnknownApp,
            ErrorCode::AlreadyRegistered,
            ErrorCode::Unreachable,
            ErrorCode::UnknownConnection,
            ErrorCode::NoPlAvailable,
            ErrorCode::Malformed,
            ErrorCode::VersionMismatch,
            ErrorCode::Internal,
        ] {
            assert!(!code.is_retryable(), "{code} must be fatal");
        }
    }

    #[test]
    fn unknown_error_code_byte_is_malformed() {
        let mut b = BytesMut::new();
        b.put_u8(T_ERROR);
        b.put_u8(0); // 0 names no code
        put_string(&mut b, "x");
        let wire = frame(b);
        assert_eq!(
            decode_response(&wire).unwrap_err(),
            RpcError::Malformed("unknown error code")
        );
    }

    #[test]
    fn wrong_version_byte_is_a_version_error() {
        let mut wire = encode_request(&Request::AppDeregister { app: AppId(1) }).to_vec();
        wire[4] = PROTO_VERSION + 1;
        assert_eq!(
            decode_request(&wire).unwrap_err(),
            RpcError::Version(PROTO_VERSION + 1)
        );
        // Version 1 frames (the pre-service format) are rejected too:
        // their first body byte was the type, which reads as version 1
        // for requests.
        wire[4] = 1;
        assert_eq!(decode_request(&wire).unwrap_err(), RpcError::Version(1));
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_request(&Request::AppDeregister { app: AppId(1) }));
        wire.extend_from_slice(&encode_request(&Request::ConnDestroy {
            app: AppId(1),
            tag: 5,
        }));
        let (r1, rest) = decode_request(&wire).unwrap();
        assert_eq!(r1, Request::AppDeregister { app: AppId(1) });
        let (r2, rest) = decode_request(rest).unwrap();
        assert_eq!(
            r2,
            Request::ConnDestroy {
                app: AppId(1),
                tag: 5
            }
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn partial_frame_is_incomplete() {
        let wire = encode_request(&Request::AppDeregister { app: AppId(1) });
        for cut in 0..wire.len() {
            assert_eq!(
                decode_request(&wire[..cut]).unwrap_err(),
                RpcError::Incomplete
            );
        }
    }

    #[test]
    fn garbage_type_is_malformed() {
        let mut b = BytesMut::new();
        b.put_u8(200);
        let wire = frame(b);
        assert!(matches!(
            decode_request(&wire).unwrap_err(),
            RpcError::Malformed(_)
        ));
    }

    #[test]
    fn out_of_range_sl_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(T_REGISTERED);
        b.put_u8(16);
        let wire = frame(b);
        assert!(matches!(
            decode_response(&wire).unwrap_err(),
            RpcError::Malformed(_)
        ));
    }

    #[test]
    fn envelope_round_trips() {
        let env = Envelope::new(
            0x0123_4567_89AB_CDEF,
            Request::ConnCreate {
                app: AppId(3),
                src: NodeId(1),
                dst: NodeId(2),
                tag: 99,
            },
        );
        let wire = encode_envelope(&env);
        let (back, rest) = decode_envelope(&wire).unwrap();
        assert_eq!(back, env);
        assert!(rest.is_empty());
    }

    #[test]
    fn envelope_trace_context_is_deterministic_and_propagated() {
        let a = Envelope::new(7, Request::MetricsDump);
        let b = Envelope::new(7, Request::MetricsDump);
        assert_eq!(a, b, "the root context is a pure function of the id");
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_eq!(a.parent_id, 0);
        // A hand-tweaked (propagated, non-root) context survives the wire.
        let mut env = Envelope::new(8, Request::AppDeregister { app: AppId(1) });
        env.parent_id = a.span_id;
        env.trace_id = a.trace_id;
        let (back, _) = decode_envelope(&encode_envelope(&env)).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.ctx().parent_id, a.span_id);
    }

    #[test]
    fn envelope_is_not_a_plain_request() {
        let wire = encode_envelope(&Envelope::new(1, Request::AppDeregister { app: AppId(1) }));
        assert!(matches!(
            decode_request(&wire).unwrap_err(),
            RpcError::Malformed(_)
        ));
    }

    #[test]
    fn plain_request_is_not_an_envelope() {
        let wire = encode_request(&Request::AppDeregister { app: AppId(1) });
        assert_eq!(
            decode_envelope(&wire).unwrap_err(),
            RpcError::Malformed("not an envelope")
        );
    }

    #[test]
    fn truncated_envelope_is_rejected_not_panicking() {
        let wire = encode_envelope(&Envelope::new(
            7,
            Request::ConnDestroy {
                app: AppId(1),
                tag: 2,
            },
        ));
        for cut in 0..wire.len() {
            assert!(decode_envelope(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn oversized_length_prefix_is_malformed_not_incomplete() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::to_be_bytes((MAX_FRAME_LEN + 1) as u32));
        wire.push(T_ACK);
        assert_eq!(
            decode_response(&wire).unwrap_err(),
            RpcError::Malformed("oversized frame")
        );
        assert_eq!(
            decode_request(&wire).unwrap_err(),
            RpcError::Malformed("oversized frame")
        );
    }

    #[test]
    fn trailing_bytes_inside_frame_are_rejected() {
        // An Ack frame padded with one junk byte: the length prefix
        // says 2 bytes but Ack is 1.
        let mut b = BytesMut::new();
        b.put_u8(T_ACK);
        b.put_u8(0xAA);
        let wire = frame(b);
        assert_eq!(
            decode_response(&wire).unwrap_err(),
            RpcError::Malformed("trailing bytes in frame")
        );
        let mut b = BytesMut::new();
        b.put_u8(T_APP_DEREGISTER);
        b.put_u32(1);
        b.put_u8(0xAA);
        let wire = frame(b);
        assert_eq!(
            decode_request(&wire).unwrap_err(),
            RpcError::Malformed("trailing bytes in frame")
        );
    }

    #[test]
    fn unicode_workload_names_survive() {
        round_trip_request(Request::AppRegister {
            app: AppId(0),
            workload: "Ωμέγα-analytics".into(),
        });
    }
}
