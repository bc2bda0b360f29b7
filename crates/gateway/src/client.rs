//! A blocking, keep-alive [`GatewayClient`] — the counterpart the loadgen
//! example and the e2e tests drive. One client owns one connection and
//! reuses it across requests; a stale pooled connection (server closed it
//! between requests) is retried once on a fresh socket, so callers only
//! see real failures.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{read_response, HttpError, HttpLimits, ParsedResponse};
use crate::json::{RecommendRequest, RecommendResponse};

/// Errors surfaced by [`GatewayClient`].
#[derive(Debug)]
pub enum ClientError {
    /// The gateway shed the request with `503` — not a failure of the
    /// request itself; the caller may back off and retry.
    Shed,
    /// Any other non-200 status, with the response body.
    Status(u16, String),
    /// The response body failed to decode.
    Decode(String),
    /// A transport or protocol error.
    Http(HttpError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Shed => write!(f, "gateway shed the request (503)"),
            ClientError::Status(code, body) => write!(f, "gateway returned {code}: {body}"),
            ClientError::Decode(e) => write!(f, "bad response body: {e}"),
            ClientError::Http(e) => write!(f, "http error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The trace id the gateway echoed in the `X-Trace-Id` response header.
fn echoed_trace_id(resp: &ParsedResponse) -> Option<u64> {
    resp.headers
        .iter()
        .find(|(k, _)| k == "x-trace-id")
        .and_then(|(_, v)| intellitag_obs::parse_trace_id(v))
}

/// The serving model version the gateway stamped in `X-Model-Version`.
fn echoed_model_version(resp: &ParsedResponse) -> Option<u64> {
    resp.headers
        .iter()
        .find(|(k, _)| k == "x-model-version")
        .and_then(|(_, v)| v.trim().parse().ok())
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether this connection has served at least one response — only a
    /// *reused* connection may be stale, so only then do we retry.
    used: bool,
}

/// A blocking HTTP client for the gateway, with connection reuse.
pub struct GatewayClient {
    addr: SocketAddr,
    timeout: Duration,
    limits: HttpLimits,
    conn: Option<Conn>,
}

impl GatewayClient {
    /// A client for the gateway at `addr`. No connection is opened until
    /// the first request.
    pub fn new(addr: SocketAddr) -> Self {
        GatewayClient {
            addr,
            timeout: Duration::from_millis(5_000),
            limits: HttpLimits::default(),
            conn: None,
        }
    }

    /// Overrides the per-socket read/write deadline (default 5 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// `POST /v1/recommend` — question path when `question` is set,
    /// cold-start otherwise.
    pub fn recommend(&mut self, req: &RecommendRequest) -> Result<RecommendResponse, ClientError> {
        let resp = self.post_json("/v1/recommend", &req.to_json(), None)?;
        RecommendResponse::from_json(&resp.body).map_err(ClientError::Decode)
    }

    /// `POST /v1/click` — the TagRec path.
    pub fn click(&mut self, req: &RecommendRequest) -> Result<RecommendResponse, ClientError> {
        let resp = self.post_json("/v1/click", &req.to_json(), None)?;
        RecommendResponse::from_json(&resp.body).map_err(ClientError::Decode)
    }

    /// [`Self::recommend`] with a caller-supplied trace id sent as
    /// `X-Trace-Id`; returns the response plus the trace id the gateway
    /// echoed back (which matches the retained trace in `/debug/traces`).
    pub fn recommend_traced(
        &mut self,
        req: &RecommendRequest,
        trace_id: u64,
    ) -> Result<(RecommendResponse, Option<u64>), ClientError> {
        let resp = self.post_json("/v1/recommend", &req.to_json(), Some(trace_id))?;
        let echoed = echoed_trace_id(&resp);
        let wire = RecommendResponse::from_json(&resp.body).map_err(ClientError::Decode)?;
        Ok((wire, echoed))
    }

    /// [`Self::click`] with a caller-supplied trace id sent as
    /// `X-Trace-Id`; returns the response plus the echoed trace id.
    pub fn click_traced(
        &mut self,
        req: &RecommendRequest,
        trace_id: u64,
    ) -> Result<(RecommendResponse, Option<u64>), ClientError> {
        let resp = self.post_json("/v1/click", &req.to_json(), Some(trace_id))?;
        let echoed = echoed_trace_id(&resp);
        let wire = RecommendResponse::from_json(&resp.body).map_err(ClientError::Decode)?;
        Ok((wire, echoed))
    }

    /// [`Self::click`], also returning the `X-Model-Version` response
    /// header — the version of the model snapshot that answered this
    /// request (`Some(0)` until a swap lands, `None` only against
    /// pre-versioning gateways).
    pub fn click_versioned(
        &mut self,
        req: &RecommendRequest,
    ) -> Result<(RecommendResponse, Option<u64>), ClientError> {
        let resp = self.post_json("/v1/click", &req.to_json(), None)?;
        let version = echoed_model_version(&resp);
        let wire = RecommendResponse::from_json(&resp.body).map_err(ClientError::Decode)?;
        Ok((wire, version))
    }

    /// `GET /debug/traces`: the gateway's retained request traces as JSON
    /// lines (one object per trace).
    pub fn debug_traces(&mut self) -> Result<String, ClientError> {
        let resp = self.send("GET", "/debug/traces", None, None)?;
        String::from_utf8(resp.body)
            .map_err(|_| ClientError::Decode("trace body is not UTF-8".into()))
    }

    /// `GET /healthz`, returning the raw body on success.
    pub fn healthz(&mut self) -> Result<String, ClientError> {
        let resp = self.send("GET", "/healthz", None, None)?;
        Ok(String::from_utf8_lossy(&resp.body).into_owned())
    }

    /// `GET /metrics`: one live Prometheus scrape of the shared registry.
    pub fn scrape_metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.send("GET", "/metrics", None, None)?;
        String::from_utf8(resp.body)
            .map_err(|_| ClientError::Decode("metrics body is not UTF-8".into()))
    }

    /// Drops the pooled connection (the next request reconnects).
    pub fn close(&mut self) {
        self.conn = None;
    }

    fn post_json(
        &mut self,
        path: &str,
        body: &str,
        trace_id: Option<u64>,
    ) -> Result<ParsedResponse, ClientError> {
        self.send("POST", path, Some(body.as_bytes()), trace_id)
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        trace_id: Option<u64>,
    ) -> Result<ParsedResponse, ClientError> {
        // First attempt may ride a pooled connection; if that connection
        // turns out stale (server closed it between requests), retry once
        // on a fresh one. A fresh connection's failure is real.
        let reused = self.conn.as_ref().is_some_and(|c| c.used);
        match self.round_trip(method, path, body, trace_id) {
            Err(ClientError::Http(e)) if reused && e.is_stale_connection() => {
                self.conn = None;
                self.round_trip(method, path, body, trace_id)
            }
            other => other,
        }
        .and_then(|resp| match resp.status {
            200 => Ok(resp),
            503 => Err(ClientError::Shed),
            code => {
                Err(ClientError::Status(code, String::from_utf8_lossy(&resp.body).into_owned()))
            }
        })
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        trace_id: Option<u64>,
    ) -> Result<ParsedResponse, ClientError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)
                .map_err(|e| ClientError::Http(HttpError::Io(e.to_string())))?;
            let _ = stream.set_read_timeout(Some(self.timeout));
            let _ = stream.set_write_timeout(Some(self.timeout));
            let _ = stream.set_nodelay(true);
            let writer =
                stream.try_clone().map_err(|e| ClientError::Http(HttpError::Io(e.to_string())))?;
            self.conn = Some(Conn { reader: BufReader::new(stream), writer, used: false });
        }
        let conn = self.conn.as_mut().expect("just ensured");
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: intellitag-gateway\r\n");
        if let Some(id) = trace_id {
            head.push_str(&format!("x-trace-id: {}\r\n", intellitag_obs::format_trace_id(id)));
        }
        let body = body.unwrap_or(&[]);
        if !body.is_empty() {
            head.push_str("content-type: application/json\r\n");
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        // Single write per request (head + body) — see `Response::write_to`
        // for the Nagle/delayed-ACK rationale.
        let mut wire = Vec::with_capacity(head.len() + body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(body);
        let wrote = conn.writer.write_all(&wire).and_then(|_| conn.writer.flush());
        if let Err(e) = wrote {
            self.conn = None;
            return Err(ClientError::Http(crate::http::io_to_http_error(e)));
        }
        match read_response(&mut conn.reader, &self.limits) {
            Ok(resp) => {
                conn.used = true;
                if !resp.keep_alive {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(ClientError::Http(e))
            }
        }
    }
}
