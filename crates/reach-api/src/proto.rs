//! Wire protocol: versioned JSON messages, newline-delimited.
//!
//! One request per line, one response per line, UTF-8 JSON. The framing
//! codec accumulates bytes (via [`bytes::BytesMut`]) and yields complete
//! frames; partial lines stay buffered, oversized lines are rejected — the
//! classic pitfalls the framing chapter of the Tokio guide warns about,
//! handled explicitly.

use bytes::{Buf, BytesMut};
use serde::{Deserialize, Serialize};
use uof_telemetry::TraceContext;

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Maximum frame **payload** length, excluding the newline delimiter (a
/// 25-interest request is ~500 bytes; 64 KiB is generous headroom while
/// still bounding memory per connection).
///
/// The boundary is payload-based on both codec paths: a complete line with
/// exactly `MAX_FRAME` payload bytes is accepted, and a partial line is
/// rejected as soon as `MAX_FRAME + 1` bytes are buffered without a newline
/// (at which point its eventual payload can only be over the limit).
pub const MAX_FRAME: usize = 64 * 1024;

/// A potential-reach query.
///
/// The `nested`, `stats`, `snapshot`, and `sampled` fields are optional
/// extensions added after the first protocol release; absent keys
/// deserialize as `None`, so version-1 frames from older clients remain
/// valid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReachRequest {
    /// Protocol version (must equal [`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Two-letter country codes (1..=50, the compulsory location set).
    pub locations: Vec<String>,
    /// Interest ids forming the conjunction (0..=25).
    pub interests: Vec<u32>,
    /// `Some(true)`: report the reach of **every prefix** of `interests`
    /// in request order (the uniqueness pipeline's bulk query) via
    /// [`ReachResponse::Nested`] instead of a single conjunction.
    pub nested: Option<bool>,
    /// `Some(true)`: ignore the query fields and return the server's cache
    /// statistics via [`ReachResponse::Stats`].
    pub stats: Option<bool>,
    /// `Some(true)`: ignore the query fields and return the server's full
    /// telemetry registry dump via [`ReachResponse::StatsSnapshot`].
    pub snapshot: Option<bool>,
    /// `Some(true)`: answer from the bit-packed posting-list index (one
    /// realized membership draw per user) via
    /// [`ReachResponse::SampledReach`] instead of the expected-value
    /// engine. Requires the server to have the index enabled
    /// (`UOF_REACH_INDEX`); mutually exclusive with `nested`. Like the
    /// other extension fields, an absent key deserializes as `None`, so
    /// pre-`sampled` frames remain valid.
    #[serde(default)]
    pub sampled: Option<bool>,
    /// Pipelining extension: a client-chosen request id. A server that
    /// understands ids echoes the id in the response frame (see
    /// [`encode_response_frame`]); responses to id-less requests carry no
    /// id. Absent on v1 frames — they still decode (`None`) and are
    /// answered in arrival order, so pre-pipelining clients and servers
    /// interoperate both ways.
    #[serde(default)]
    pub id: Option<u64>,
    /// Sharding extension: `Some(true)` asks a shard-configured backend for
    /// its raw per-chunk partial accumulators via
    /// [`ReachResponse::ShardPartials`] instead of a floored report. Only
    /// the router speaks this opcode; a server **not** running as a shard
    /// refuses it, because partials expose sub-floor audience values that
    /// the reporting floor deliberately hides (the floor is applied once,
    /// at the router, after the merge).
    #[serde(default)]
    pub shard: Option<bool>,
    /// Tracing extension: the sender's [`TraceContext`], so spans recorded
    /// server-side land in the caller's trace as children of the request
    /// span. Strictly observational — the server answers identically with
    /// or without it — and optional on the wire like every other
    /// extension: absent keys decode as `None`, so v1 and v2-id-only
    /// frames remain valid. A request that carries a context is also the
    /// only kind that gets a server-timing block echoed on its response
    /// (see [`encode_response_frame`]); clients that never send a context
    /// never see a tracing byte. Rides as the compact pair
    /// `[trace_id, parent_span_id]` ([`TraceContext`]'s wire form).
    #[serde(default)]
    pub trace: Option<TraceContext>,
}

impl ReachRequest {
    /// A scalar conjunction-reach query.
    pub fn scalar(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations,
            interests,
            nested: None,
            stats: None,
            snapshot: None,
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A nested prefix-sweep query (order of `interests` is significant).
    pub fn nested(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations,
            interests,
            nested: Some(true),
            stats: None,
            snapshot: None,
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A cache-statistics probe.
    pub fn stats() -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations: Vec::new(),
            interests: Vec::new(),
            nested: None,
            stats: Some(true),
            snapshot: None,
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A telemetry-registry probe (full metrics dump).
    pub fn stats_snapshot() -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations: Vec::new(),
            interests: Vec::new(),
            nested: None,
            stats: None,
            snapshot: Some(true),
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A sampled conjunction-reach query answered from the server's
    /// bit-packed posting-list index (order-insensitive, like
    /// [`ReachRequest::scalar`]).
    pub fn sampled(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations,
            interests,
            nested: None,
            stats: None,
            snapshot: None,
            sampled: Some(true),
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// Tags the request with a pipelining id (builder style).
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Marks the request as a shard-partials fan-out query (builder style;
    /// composes with [`ReachRequest::scalar`], [`ReachRequest::nested`],
    /// and [`ReachRequest::sampled`]).
    pub fn with_shard(mut self) -> Self {
        self.shard = Some(true);
        self
    }

    /// Attaches (or clears) the sender's trace context (builder style).
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Self {
        self.trace = trace;
        self
    }
}

/// One reported prefix reach within a [`ReachResponse::Nested`] answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachPoint {
    /// Reported potential reach (floor applied).
    pub reported: u64,
    /// Whether the floor masked a smaller value.
    pub floored: bool,
    /// Whether the "audience too narrow" advisory applies.
    pub too_narrow_warning: bool,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ReachResponse {
    /// Successful reach report.
    Reach {
        /// Reported potential reach (floor applied).
        reported: u64,
        /// Whether the floor masked a smaller value.
        floored: bool,
        /// Whether the "audience too narrow" advisory applies.
        too_narrow_warning: bool,
    },
    /// The connection exceeded its rate budget; retry after the given
    /// backoff.
    RateLimited {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request was invalid.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Successful nested (prefix-sweep) report: element `k` is the reach of
    /// the first `k+1` interests of the request, floors applied.
    Nested {
        /// Per-prefix reported reaches, in request order.
        reaches: Vec<ReachPoint>,
    },
    /// The server's query-cache statistics snapshot.
    Stats {
        /// Counters and residency at the time of the request.
        stats: reach_cache::CacheStats,
    },
    /// The server's full telemetry registry dump: every counter, gauge,
    /// and latency histogram, sorted by name (cache statistics are
    /// mirrored in as `reach_cache.*` gauges at snapshot time).
    StatsSnapshot {
        /// Registry contents at the time of the request.
        registry: uof_telemetry::RegistrySnapshot,
    },
    /// Successful sampled reach report from the posting-list index. The
    /// reporting floor and advisory are applied server-side exactly as for
    /// [`ReachResponse::Reach`] — the raw panel count is deliberately **not**
    /// on the wire, so a client cannot observe a sub-floor audience through
    /// this opcode either.
    SampledReach {
        /// Reported potential reach (index count × panel scale, floor
        /// applied).
        reported: u64,
        /// Whether the floor masked a smaller value.
        floored: bool,
        /// Whether the "audience too narrow" advisory applies.
        too_narrow_warning: bool,
    },
    /// A shard backend's raw per-chunk partial accumulators, the router's
    /// merge input. Only shard-configured servers emit this (raw values are
    /// sub-floor; see [`ReachRequest`]'s `shard` field). Float partials ride
    /// as `f64::to_bits` so the wire is lossless and the router's merge can
    /// be bit-identical to a single-node fold.
    ShardPartials {
        /// The backend world's [`fbsim_population::World::generation`] the
        /// partials were computed under — the router refuses to merge
        /// partials from mismatched epochs.
        generation: u64,
        /// Global chunk indices this shard owns, ascending.
        chunks: Vec<u32>,
        /// `values[k]` holds chunk `chunks[k]`'s partials: one
        /// `f64::to_bits` element for a scalar query, one per prefix for a
        /// nested query, and one raw (integer) survivor count for a sampled
        /// query.
        values: Vec<Vec<u64>>,
    },
}

/// Errors from the framing codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A line exceeded [`MAX_FRAME`] before its newline arrived.
    Oversized,
    /// A complete frame was not valid UTF-8 JSON of the expected type.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized => write!(f, "frame exceeds {MAX_FRAME} bytes"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Newline-delimited frame accumulator.
///
/// The newline scan is incremental: bytes checked by a previous
/// [`FrameCodec::next_frame`] are never rescanned, so trickle-fed input
/// (one TCP segment at a time) costs O(total bytes), not O(n²). Popping a
/// frame only moves a read offset; the consumed prefix is dropped once per
/// [`FrameCodec::feed`], so a read batch of N frames moves its leftover
/// bytes once, not N times.
#[derive(Debug, Default)]
pub struct FrameCodec {
    buffer: BytesMut,
    /// Prefix of `buffer` already handed out as frames.
    consumed: usize,
    /// Bytes past `consumed` already known to contain no newline.
    scanned: usize,
}

impl FrameCodec {
    /// An empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds received bytes into the buffer.
    pub fn feed(&mut self, data: &[u8]) {
        self.buffer.advance(self.consumed);
        self.consumed = 0;
        self.buffer.extend_from_slice(data);
    }

    /// Pops the next complete frame (without its newline), if any.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when a line's payload exceeds
    /// [`MAX_FRAME`] — whether its newline has already arrived or not; the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let unread = &self.buffer[self.consumed..];
        if let Some(off) = unread[self.scanned..].iter().position(|&b| b == b'\n') {
            let pos = self.scanned + off;
            self.scanned = 0;
            if pos > MAX_FRAME {
                return Err(FrameError::Oversized);
            }
            let frame = unread[..pos].to_vec();
            self.consumed += pos + 1;
            return Ok(Some(frame));
        }
        self.scanned = unread.len();
        if unread.len() > MAX_FRAME {
            return Err(FrameError::Oversized);
        }
        Ok(None)
    }

    /// Bytes currently buffered and not yet popped (for tests and
    /// diagnostics).
    pub fn buffered(&self) -> usize {
        self.buffer.remaining() - self.consumed
    }

    /// Bytes already scanned for a newline — the incremental-scan cursor
    /// (for tests and diagnostics).
    pub fn scan_offset(&self) -> usize {
        self.scanned
    }
}

/// Encodes a serialisable message as one frame (JSON + newline).
pub fn encode<T: Serialize>(message: &T) -> Vec<u8> {
    // lint:allow(no-unwrap) — invariant: protocol types contain no non-serialisable values
    let mut line = serde_json::to_vec(message).expect("protocol types serialise");
    line.push(b'\n');
    line
}

/// Decodes one frame into a message.
///
/// # Errors
///
/// [`FrameError::Malformed`] with the serde error text.
pub fn decode<T: for<'de> Deserialize<'de>>(frame: &[u8]) -> Result<T, FrameError> {
    serde_json::from_slice(frame).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Where a request's server-side time went, echoed on the response of any
/// request that carried a [`TraceContext`].
///
/// All figures are nanoseconds of server wall clock for this one frame.
/// Purely observational — it is spliced into the response frame the same
/// way the pipelining id is, so clients that never sent a context receive
/// byte-identical frames with no tracing keys at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTiming {
    /// Time the decoded frame waited behind earlier frames of the same
    /// read batch before its handler started.
    pub queue_ns: u64,
    /// Total handler time (validation + cache + engine + encoding the
    /// answer's payload).
    pub handler_ns: u64,
    /// Whether the answer was produced without any engine compute (query
    /// cache hit or non-compute opcode).
    pub cache_hit: bool,
    /// Time spent inside engine compute closures (0 on a cache hit).
    pub engine_ns: u64,
}

impl Serialize for ServerTiming {
    fn to_value(&self) -> serde::Value {
        // Compact wire form, mirroring the trace-context pair: a fixed
        // four-element array instead of a named object. The echo rides on
        // every traced response, so its bytes are warm-path bytes — the
        // array form is a third the size of the named one.
        serde::Value::Array(vec![
            serde::Value::U64(self.queue_ns),
            serde::Value::U64(self.handler_ns),
            serde::Value::U64(u64::from(self.cache_hit)),
            serde::Value::U64(self.engine_ns),
        ])
    }
}

impl<'de> Deserialize<'de> for ServerTiming {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Array(items) if items.len() == 4 => Ok(ServerTiming {
                queue_ns: u64::from_value(&items[0])?,
                handler_ns: u64::from_value(&items[1])?,
                cache_hit: u64::from_value(&items[2])? != 0,
                engine_ns: u64::from_value(&items[3])?,
            }),
            other => Err(serde::Error::msg(format!(
                "expected [queue_ns, handler_ns, cache_hit, engine_ns], got {other:?}"
            ))),
        }
    }
}

/// Probe for the optional spliced response extensions: decodes any
/// response object while ignoring every other key, so the body can be
/// decoded separately as a plain [`ReachResponse`].
#[derive(Deserialize)]
struct ExtensionsProbe {
    #[serde(default)]
    id: Option<u64>,
    #[serde(default)]
    st: Option<ServerTiming>,
}

/// A decoded response frame: the body plus the optional spliced
/// extensions (pipelining id, server-timing echo).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echoed pipelining id, when the request carried one.
    pub id: Option<u64>,
    /// Server-timing echo, when the request carried a trace context.
    pub server_timing: Option<ServerTiming>,
    /// The response body.
    pub response: ReachResponse,
}

/// Encodes a response frame, echoing the request's pipelining id and — for
/// requests that sent a trace context — the server-timing block. Both ride
/// as extra keys spliced into the response object: internally-tagged
/// decoding ignores unknown keys, so pre-id clients still decode the
/// frame, and requests without the extensions get byte-identical v1
/// frames (no tracing bytes ever reach a client that didn't opt in).
pub fn encode_response_frame(
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    response: &ReachResponse,
) -> Vec<u8> {
    let line = encode(response);
    if id.is_none() && timing.is_none() {
        return line;
    }
    debug_assert_eq!(line.first(), Some(&b'{'));
    // The splice is assembled by hand rather than through `format!`: it
    // rides on every pipelined response (and every traced one), and the
    // fmt machinery plus its per-extension allocations measurably tax the
    // warm path. The exact byte shape produced here is what
    // `decode_spliced_fast` pattern-matches on the client side.
    let mut out = Vec::with_capacity(line.len() + 112);
    out.push(b'{');
    if let Some(id) = id {
        out.extend_from_slice(b"\"id\":");
        push_u64(&mut out, id);
        out.push(b',');
    }
    if let Some(t) = timing {
        out.extend_from_slice(b"\"st\":[");
        push_u64(&mut out, t.queue_ns);
        out.push(b',');
        push_u64(&mut out, t.handler_ns);
        out.push(b',');
        out.push(if t.cache_hit { b'1' } else { b'0' });
        out.push(b',');
        push_u64(&mut out, t.engine_ns);
        out.extend_from_slice(b"],");
    }
    out.extend_from_slice(&line[1..]);
    out
}

/// Appends `n` in decimal ASCII.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Consumes `lit` at `pos`, returning the position after it.
fn eat(frame: &[u8], pos: usize, lit: &[u8]) -> Option<usize> {
    frame[pos..].starts_with(lit).then_some(pos + lit.len())
}

/// Whether `needle` occurs anywhere in `hay`.
fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Parses a decimal `u64` starting at `pos` (at least one digit, no
/// overflow), returning the value and the position after it.
fn scan_u64(frame: &[u8], mut pos: usize) -> Option<(u64, usize)> {
    let start = pos;
    let mut n: u64 = 0;
    while let Some(&b @ b'0'..=b'9') = frame.get(pos) {
        n = n.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        pos += 1;
    }
    (pos > start).then_some((n, pos))
}

/// Fast path for frames our own [`encode_response_frame`] produced: the
/// extensions are spliced at the front of the object in a fixed order and
/// byte shape, so they can be stripped with one linear scan and the body
/// parsed by serde exactly once — instead of the general path's two full
/// parses (extension probe + body), which costs real time on every
/// pipelined warm-cache response. Any frame that doesn't match the shape
/// (no extensions, different key order, whitespace, an overflowing digit
/// run) returns `None` and takes the general path; behaviour is identical
/// either way.
fn decode_spliced_fast(frame: &[u8]) -> Option<ResponseFrame> {
    let mut pos = eat(frame, 0, b"{")?;
    let mut id = None;
    if let Some(p) = eat(frame, pos, b"\"id\":") {
        let (n, p) = scan_u64(frame, p)?;
        pos = eat(frame, p, b",")?;
        id = Some(n);
    }
    let mut server_timing = None;
    if let Some(p) = eat(frame, pos, b"\"st\":[") {
        let (queue_ns, p) = scan_u64(frame, p)?;
        let p = eat(frame, p, b",")?;
        let (handler_ns, p) = scan_u64(frame, p)?;
        let p = eat(frame, p, b",")?;
        let (cache_hit, p) = match frame.get(p) {
            Some(b'0') => (false, p + 1),
            Some(b'1') => (true, p + 1),
            _ => return None,
        };
        let p = eat(frame, p, b",")?;
        let (engine_ns, p) = scan_u64(frame, p)?;
        pos = eat(frame, p, b"],")?;
        server_timing = Some(ServerTiming { queue_ns, handler_ns, cache_hit, engine_ns });
    }
    if id.is_none() && server_timing.is_none() {
        return None;
    }
    // The remainder must immediately open the body's first key; anything
    // else (whitespace, a second splice) is not our server's byte shape.
    if frame.get(pos) != Some(&b'"') {
        return None;
    }
    // The general path extracts extension keys from *anywhere* in the
    // object; bail out if one could still be lurking in the remainder so
    // the two paths can never disagree (a false hit inside a string value
    // merely costs the fallback parse).
    let rest = &frame[pos..];
    if contains(rest, b"\"id\":") || contains(rest, b"\"st\":") {
        return None;
    }
    let mut body = Vec::with_capacity(frame.len() + 1 - pos);
    body.push(b'{');
    body.extend_from_slice(&frame[pos..]);
    let response = decode::<ReachResponse>(&body).ok()?;
    Some(ResponseFrame { id, server_timing, response })
}

/// Decodes a response frame into its body and optional extensions.
///
/// # Errors
///
/// [`FrameError::Malformed`] with the serde error text.
pub fn decode_response_frame(frame: &[u8]) -> Result<ResponseFrame, FrameError> {
    if let Some(parsed) = decode_spliced_fast(frame) {
        return Ok(parsed);
    }
    let probe: ExtensionsProbe = decode(frame)?;
    let response: ReachResponse = decode(frame)?;
    Ok(ResponseFrame { id: probe.id, server_timing: probe.st, response })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> ReachRequest {
        ReachRequest::scalar(vec!["ES".into(), "FR".into()], vec![1, 2, 3])
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = encode(&request());
        assert_eq!(*frame.last().unwrap(), b'\n');
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, request());
    }

    #[test]
    fn response_variants_round_trip() {
        for response in [
            ReachResponse::Reach { reported: 1_000, floored: true, too_narrow_warning: true },
            ReachResponse::RateLimited { retry_after_ms: 250 },
            ReachResponse::Error { message: "nope".into() },
            ReachResponse::Nested {
                reaches: vec![
                    ReachPoint { reported: 500, floored: false, too_narrow_warning: false },
                    ReachPoint { reported: 20, floored: true, too_narrow_warning: true },
                ],
            },
            ReachResponse::SampledReach {
                reported: 750,
                floored: false,
                too_narrow_warning: false,
            },
        ] {
            let frame = encode(&response);
            let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn version_one_frames_without_extension_keys_still_decode() {
        // Wire backward compatibility: the original protocol-1 request shape
        // (no `nested`/`stats`/`snapshot` keys) must keep decoding, with the
        // extension fields defaulting to `None`.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5]}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.v, 1);
        assert_eq!(request.interests, vec![0, 5]);
        assert_eq!(request.nested, None);
        assert_eq!(request.stats, None);
        assert_eq!(request.snapshot, None);
        assert_eq!(request.sampled, None);
        // Pre-`sampled` frames (extension keys present, no `sampled` key —
        // what every client before this release emits) also still decode.
        let raw = br#"{"v":1,"locations":["US"],"interests":[2],"nested":null,"stats":null,"snapshot":null}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.sampled, None);
    }

    #[test]
    fn sampled_request_round_trips() {
        let sampled = ReachRequest::sampled(vec!["US".into()], vec![1, 2]);
        assert_eq!(sampled.sampled, Some(true));
        assert_eq!(sampled.nested, None);
        let frame = encode(&sampled);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, sampled);
    }

    #[test]
    fn request_constructors_set_extension_flags() {
        assert_eq!(ReachRequest::scalar(vec!["US".into()], vec![1]).nested, None);
        assert_eq!(ReachRequest::nested(vec!["US".into()], vec![1]).nested, Some(true));
        let stats = ReachRequest::stats();
        assert_eq!(stats.stats, Some(true));
        assert!(stats.interests.is_empty());
        let frame = encode(&stats);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, stats);
        let snapshot = ReachRequest::stats_snapshot();
        assert_eq!(snapshot.snapshot, Some(true));
        assert_eq!(snapshot.stats, None);
        assert!(snapshot.interests.is_empty());
    }

    #[test]
    fn stats_snapshot_response_round_trips() {
        use uof_telemetry::{Registry, RegistrySnapshot};
        let registry = Registry::new();
        registry.counter("reach.requests.scalar").add(7);
        registry.gauge("reach.requests.in_flight").set(1);
        registry.latency_histogram("reach.request.scalar").observe(42_000);
        let response = ReachResponse::StatsSnapshot { registry: registry.snapshot() };
        let frame = encode(&response);
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, response);
        // An empty registry dump is also a valid frame.
        let empty = ReachResponse::StatsSnapshot { registry: RegistrySnapshot::default() };
        let frame = encode(&empty);
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn request_id_round_trips_and_absent_id_decodes_as_none() {
        let tagged = request().with_id(42);
        assert_eq!(tagged.id, Some(42));
        let frame = encode(&tagged);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back.id, Some(42));
        // v1 frame without the id key: decodes, id is None.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5]}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.id, None);
        assert_eq!(request.shard, None);
    }

    #[test]
    fn response_frame_id_echo_round_trips() {
        let response =
            ReachResponse::Reach { reported: 1_000, floored: false, too_narrow_warning: false };
        // No extensions: byte-identical to the v1 encoding.
        assert_eq!(encode_response_frame(None, None, &response), encode(&response));
        // With id: both halves decode from the same frame.
        let frame = encode_response_frame(Some(7), None, &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, Some(7));
        assert_eq!(decoded.server_timing, None);
        assert_eq!(decoded.response, response);
        // A pre-id decoder ignores the spliced key entirely.
        let old: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(old, response);
        // And an id-less v1 frame decodes with id None.
        let v1 = encode(&response);
        let decoded = decode_response_frame(&v1[..v1.len() - 1]).unwrap();
        assert_eq!(decoded.id, None);
        assert_eq!(decoded.response, response);
    }

    #[test]
    fn server_timing_echo_round_trips_and_stays_opt_in() {
        let response =
            ReachResponse::Reach { reported: 500, floored: false, too_narrow_warning: false };
        let timing =
            ServerTiming { queue_ns: 1_200, handler_ns: 90_000, cache_hit: true, engine_ns: 0 };
        // With both extensions: id, timing, and body all decode.
        let frame = encode_response_frame(Some(3), Some(&timing), &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, Some(3));
        assert_eq!(decoded.server_timing, Some(timing));
        assert_eq!(decoded.response, response);
        // A decoder that predates the extension still reads the body.
        let old: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(old, response);
        // Timing without an id also round-trips (id-less traced client).
        let frame = encode_response_frame(None, Some(&timing), &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, None);
        assert_eq!(decoded.server_timing, Some(timing));
        // No trace context sent → not one tracing byte in the frame.
        let plain = encode_response_frame(Some(9), None, &response);
        let text = String::from_utf8(plain).unwrap();
        assert!(!text.contains("server_timing"), "{text}");
        assert!(!text.contains("trace"), "{text}");
    }

    #[test]
    fn spliced_fast_path_agrees_with_general_decode() {
        let response =
            ReachResponse::Reach { reported: 9_000, floored: true, too_narrow_warning: false };
        let timing = ServerTiming {
            queue_ns: 5,
            handler_ns: u64::MAX,
            cache_hit: false,
            engine_ns: 1_234_567_890,
        };
        // Every splice combination our server can emit decodes identically
        // through the fast path and the two-parse probe path.
        for (id, timing) in
            [(Some(7), Some(&timing)), (Some(u64::MAX), None), (None, Some(&timing)), (None, None)]
        {
            let frame = encode_response_frame(id, timing, &response);
            let frame = &frame[..frame.len() - 1];
            let fast = decode_spliced_fast(frame);
            let probe: ExtensionsProbe = decode(frame).unwrap();
            let body: ReachResponse = decode(frame).unwrap();
            let general = ResponseFrame { id: probe.id, server_timing: probe.st, response: body };
            if id.is_some() || timing.is_some() {
                assert_eq!(fast.as_ref(), Some(&general));
            } else {
                assert_eq!(fast, None, "extension-free frames take the general path");
            }
            assert_eq!(decode_response_frame(frame).unwrap(), general);
        }
        // Extensions in an order our server never produces: the fast path
        // must bail (not silently drop the out-of-place key) and the
        // general path still extracts both.
        let reordered: [&[u8]; 2] = [
            br#"{"st":[1,2,1,3],"id":7,"kind":"reach","reported":9000,"floored":true,"too_narrow_warning":false}"#,
            br#"{"id":7,"kind":"reach","reported":9000,"floored":true,"too_narrow_warning":false,"st":[1,2,1,3]}"#,
        ];
        for frame in reordered {
            assert_eq!(decode_spliced_fast(frame), None);
            let decoded = decode_response_frame(frame).unwrap();
            assert_eq!(decoded.id, Some(7));
            assert_eq!(
                decoded.server_timing,
                Some(ServerTiming { queue_ns: 1, handler_ns: 2, cache_hit: true, engine_ns: 3 })
            );
        }
        // Whitespace (not our byte shape) also falls back — and decodes.
        let spaced = br#"{"id": 7, "kind": "reach", "reported": 9000, "floored": true, "too_narrow_warning": false}"#;
        assert_eq!(decode_spliced_fast(spaced), None);
        assert_eq!(decode_response_frame(spaced).unwrap().id, Some(7));
    }

    #[test]
    fn trace_context_request_field_round_trips_and_defaults_to_none() {
        use uof_telemetry::TraceContext;
        let ctx = TraceContext { trace_id: 0xABCD, parent_span_id: 7 };
        let traced = request().with_trace(Some(ctx));
        assert_eq!(traced.trace, Some(ctx));
        let frame = encode(&traced);
        // The context rides as the compact pair on the wire…
        let text = String::from_utf8(frame.clone()).unwrap();
        assert!(text.contains("\"trace\":[43981,7]"), "{text}");
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back.trace, Some(ctx));
        // …and the named-object form a hand-rolled client might send is
        // accepted on decode too.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5],"trace":{"trace_id":43981,"parent_span_id":7}}"#;
        let named: ReachRequest = decode(raw).unwrap();
        assert_eq!(named.trace, Some(ctx));
        // v1 and v2-id-only frames decode with trace None.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5]}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.trace, None);
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5],"id":12}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.id, Some(12));
        assert_eq!(request.trace, None);
    }

    #[test]
    fn shard_partials_round_trip() {
        let response = ReachResponse::ShardPartials {
            generation: 3,
            chunks: vec![0, 2, 5],
            values: vec![
                vec![1.5f64.to_bits()],
                vec![0.0f64.to_bits()],
                vec![123.456f64.to_bits()],
            ],
        };
        let frame = encode_response_frame(Some(9), None, &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, Some(9));
        assert_eq!(decoded.response, response);
        let shard_request = ReachRequest::scalar(vec!["US".into()], vec![1]).with_shard();
        assert_eq!(shard_request.shard, Some(true));
        let frame = encode(&shard_request);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, shard_request);
    }

    #[test]
    fn codec_handles_partial_frames() {
        let mut codec = FrameCodec::new();
        let frame = encode(&request());
        let (a, b) = frame.split_at(frame.len() / 2);
        codec.feed(a);
        assert_eq!(codec.next_frame().unwrap(), None);
        codec.feed(b);
        let got = codec.next_frame().unwrap().unwrap();
        let back: ReachRequest = decode(&got).unwrap();
        assert_eq!(back, request());
        assert_eq!(codec.next_frame().unwrap(), None);
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn codec_handles_multiple_frames_per_feed() {
        let mut codec = FrameCodec::new();
        let mut data = encode(&request());
        data.extend(encode(&request()));
        codec.feed(&data);
        assert!(codec.next_frame().unwrap().is_some());
        assert!(codec.next_frame().unwrap().is_some());
        assert!(codec.next_frame().unwrap().is_none());
    }

    #[test]
    fn oversized_partial_line_rejected() {
        let mut codec = FrameCodec::new();
        codec.feed(&vec![b'x'; MAX_FRAME + 1]);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
    }

    #[test]
    fn oversized_complete_line_rejected() {
        let mut codec = FrameCodec::new();
        let mut data = vec![b'x'; MAX_FRAME + 1];
        data.push(b'\n');
        codec.feed(&data);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
    }

    #[test]
    fn trickle_feed_scans_each_byte_once() {
        // Regression for the O(n²) scan: `next_frame` used to restart the
        // newline search from the buffer start on every call; the cursor now
        // advances past everything already checked.
        let mut codec = FrameCodec::new();
        codec.feed(&[b'x'; 10]);
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.scan_offset(), 10);
        codec.feed(&[b'x'; 5]);
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.scan_offset(), 15);
        codec.feed(b"\nabc");
        let frame = codec.next_frame().unwrap().unwrap();
        assert_eq!(frame.len(), 15);
        // After a frame pops, the cursor restarts on the leftover bytes.
        assert_eq!(codec.scan_offset(), 0);
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.scan_offset(), 3);
    }

    #[test]
    fn trickle_feed_handles_large_line_in_linear_time() {
        // One MAX_FRAME-sized line fed in 1 KiB pieces with a poll between
        // each piece — linear with the scan cursor, quadratic without it.
        let mut codec = FrameCodec::new();
        for _ in 0..(MAX_FRAME / 1024) {
            codec.feed(&[b'y'; 1024]);
            assert_eq!(codec.next_frame(), Ok(None));
        }
        assert_eq!(codec.scan_offset(), MAX_FRAME);
        codec.feed(b"\n");
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), MAX_FRAME);
    }

    #[test]
    fn payload_boundary_exactly_max_frame_accepted() {
        // The size boundary is payload-based: exactly MAX_FRAME payload
        // bytes + newline is the largest accepted line, fed whole...
        let mut codec = FrameCodec::new();
        let mut data = vec![b'x'; MAX_FRAME];
        data.push(b'\n');
        codec.feed(&data);
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), MAX_FRAME);
        // ...or split at the worst spot (payload complete, newline pending).
        let mut codec = FrameCodec::new();
        codec.feed(&vec![b'x'; MAX_FRAME]);
        assert_eq!(codec.next_frame(), Ok(None));
        codec.feed(b"\n");
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), MAX_FRAME);
    }

    #[test]
    fn payload_boundary_max_frame_plus_one_rejected_on_both_paths() {
        // Complete line, one payload byte over the limit.
        let mut codec = FrameCodec::new();
        let mut data = vec![b'x'; MAX_FRAME + 1];
        data.push(b'\n');
        codec.feed(&data);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
        // Partial line: rejected as soon as the payload can no longer fit.
        let mut codec = FrameCodec::new();
        codec.feed(&vec![b'x'; MAX_FRAME + 1]);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
    }

    /// Every wire form this crate emits, paired with its exact bytes
    /// (newline excluded). Pinned so a codec change cannot alter a single
    /// byte on the wire: old peers and committed traces must keep parsing.
    fn golden_frames() -> Vec<(Vec<u8>, &'static str)> {
        use reach_cache::CacheStats;
        use uof_telemetry::trace::TraceField;
        use uof_telemetry::{
            BucketCount, CounterSnapshot, FieldValue, GaugeSnapshot, HistogramSnapshot,
            RegistrySnapshot, TraceContext, TraceEvent,
        };

        let reach =
            ReachResponse::Reach { reported: 1_000, floored: true, too_narrow_warning: false };
        let timing =
            ServerTiming { queue_ns: 1_200, handler_ns: u64::MAX, cache_hit: true, engine_ns: 0 };
        let stats = CacheStats {
            enabled: true,
            epoch: 3,
            shards: 16,
            capacity: 65_536,
            entries: 1_234,
            hits: u64::MAX,
            misses: 0,
            single_flight_waits: 7,
            insertions: 1_240,
            evictions: 6,
            invalidations: 2,
            prefix_entries: 200,
            prefix_hits: 199,
            prefix_misses: 1,
            prefix_extensions: 0,
        };
        let registry = RegistrySnapshot {
            counters: vec![CounterSnapshot { name: "reach.requests.scalar".into(), value: 7 }],
            gauges: vec![GaugeSnapshot { name: "reach.requests.in_flight".into(), value: -1 }],
            histograms: vec![HistogramSnapshot {
                name: "reach.request.scalar".into(),
                count: 2,
                sum: 84_000,
                buckets: vec![
                    BucketCount { le: 50_000, count: 2 },
                    BucketCount { le: u64::MAX, count: 0 },
                ],
            }],
        };
        let field = |key, value| TraceField { key, value };
        let event = TraceEvent {
            span: "server.frame \"q\"\\".into(),
            seq: 42,
            trace_id: 0xABCD,
            span_id: 0xABCE,
            parent_span_id: 0,
            start_ns: 1_000_000_007,
            dur_ns: 3_300,
            fields: vec![
                field("queue_ns", FieldValue::U64(u64::MAX)),
                field("delta", FieldValue::I64(i64::MIN)),
                field("share", FieldValue::F64(0.1)),
                field("tiny", FieldValue::F64(1e-7)),
                field("huge", FieldValue::F64(1e21)),
                field("nan", FieldValue::F64(f64::NAN)),
                field("cache_hit", FieldValue::Bool(true)),
                field("label", FieldValue::Str("caf\u{e9}\t\u{1F600}\u{1}\u{7f}/".into())),
            ],
        };
        let line = |frame: Vec<u8>| {
            assert_eq!(frame.last(), Some(&b'\n'), "every frame ends in its newline");
            frame[..frame.len() - 1].to_vec()
        };
        vec![
            (
                line(encode(&reach)),
                r#"{"kind":"reach","reported":1000,"floored":true,"too_narrow_warning":false}"#,
            ),
            (
                line(encode(&ReachResponse::RateLimited { retry_after_ms: 250 })),
                r#"{"kind":"rate_limited","retry_after_ms":250}"#,
            ),
            (
                line(encode(&ReachResponse::Error {
                    message: "bad \"q\" \\ /\n\r\t\u{8}\u{c}\u{0}\u{1f} caf\u{e9} \u{2028} \u{1F600}"
                        .into(),
                })),
                "{\"kind\":\"error\",\"message\":\"bad \\\"q\\\" \\\\ /\\n\\r\\t\\b\\f\\u0000\\u001f \
                 caf\u{e9} \u{2028} \u{1F600}\"}",
            ),
            (
                line(encode(&ReachResponse::Nested {
                    reaches: vec![
                        ReachPoint { reported: 500, floored: false, too_narrow_warning: false },
                        ReachPoint { reported: 20, floored: true, too_narrow_warning: true },
                    ],
                })),
                r#"{"kind":"nested","reaches":[{"reported":500,"floored":false,"too_narrow_warning":false},{"reported":20,"floored":true,"too_narrow_warning":true}]}"#,
            ),
            (
                line(encode(&ReachResponse::Nested { reaches: vec![] })),
                r#"{"kind":"nested","reaches":[]}"#,
            ),
            (
                line(encode(&ReachResponse::Stats { stats })),
                r#"{"kind":"stats","stats":{"enabled":true,"epoch":3,"shards":16,"capacity":65536,"entries":1234,"hits":18446744073709551615,"misses":0,"single_flight_waits":7,"insertions":1240,"evictions":6,"invalidations":2,"prefix_entries":200,"prefix_hits":199,"prefix_misses":1,"prefix_extensions":0}}"#,
            ),
            (
                line(encode(&ReachResponse::StatsSnapshot { registry })),
                r#"{"kind":"stats_snapshot","registry":{"counters":[{"name":"reach.requests.scalar","value":7}],"gauges":[{"name":"reach.requests.in_flight","value":-1}],"histograms":[{"name":"reach.request.scalar","count":2,"sum":84000,"buckets":[{"le":50000,"count":2},{"le":18446744073709551615,"count":0}]}]}}"#,
            ),
            (
                line(encode(&ReachResponse::SampledReach {
                    reported: 750,
                    floored: false,
                    too_narrow_warning: true,
                })),
                r#"{"kind":"sampled_reach","reported":750,"floored":false,"too_narrow_warning":true}"#,
            ),
            (
                line(encode(&ReachResponse::ShardPartials {
                    generation: 3,
                    chunks: vec![0, 2, u32::MAX],
                    values: vec![
                        vec![1.5f64.to_bits()],
                        vec![],
                        vec![(-0.0f64).to_bits(), u64::MAX],
                    ],
                })),
                r#"{"kind":"shard_partials","generation":3,"chunks":[0,2,4294967295],"values":[[4609434218613702656],[],[9223372036854775808,18446744073709551615]]}"#,
            ),
            (
                line(encode_response_frame(Some(7), None, &reach)),
                r#"{"id":7,"kind":"reach","reported":1000,"floored":true,"too_narrow_warning":false}"#,
            ),
            (
                line(encode_response_frame(Some(u64::MAX), Some(&timing), &reach)),
                r#"{"id":18446744073709551615,"st":[1200,18446744073709551615,1,0],"kind":"reach","reported":1000,"floored":true,"too_narrow_warning":false}"#,
            ),
            (
                line(encode_response_frame(None, Some(&timing), &reach)),
                r#"{"st":[1200,18446744073709551615,1,0],"kind":"reach","reported":1000,"floored":true,"too_narrow_warning":false}"#,
            ),
            (
                line(encode(&ReachRequest::scalar(
                    vec!["US".into(), "ES".into()],
                    vec![0, 5, u32::MAX],
                ))),
                r#"{"v":1,"locations":["US","ES"],"interests":[0,5,4294967295],"nested":null,"stats":null,"snapshot":null,"sampled":null,"id":null,"shard":null,"trace":null}"#,
            ),
            (
                line(encode(
                    &ReachRequest::nested(vec!["FR".into()], vec![9, 3])
                        .with_id(42)
                        .with_trace(Some(TraceContext { trace_id: 0xABCD, parent_span_id: u64::MAX })),
                )),
                r#"{"v":1,"locations":["FR"],"interests":[9,3],"nested":true,"stats":null,"snapshot":null,"sampled":null,"id":42,"shard":null,"trace":[43981,18446744073709551615]}"#,
            ),
            (
                line(encode(&ReachRequest::stats())),
                r#"{"v":1,"locations":[],"interests":[],"nested":null,"stats":true,"snapshot":null,"sampled":null,"id":null,"shard":null,"trace":null}"#,
            ),
            (
                line(encode(&ReachRequest::sampled(vec![], vec![1]).with_shard().with_id(0))),
                r#"{"v":1,"locations":[],"interests":[1],"nested":null,"stats":null,"snapshot":null,"sampled":true,"id":0,"shard":true,"trace":null}"#,
            ),
            // The line `Tracer::emit` writes, newline excluded.
            (
                serde_json::to_vec(&event).unwrap(),
                "{\"span\":\"server.frame \\\"q\\\"\\\\\",\"seq\":42,\"trace_id\":43981,\
                 \"span_id\":43982,\"parent_span_id\":0,\"start_ns\":1000000007,\"dur_ns\":3300,\
                 \"fields\":[{\"queue_ns\":18446744073709551615},\
                 {\"delta\":-9223372036854775808},{\"share\":0.1},{\"tiny\":0.0000001},\
                 {\"huge\":1000000000000000000000},{\"nan\":null},{\"cache_hit\":true},\
                 {\"label\":\"caf\u{e9}\\t\u{1F600}\\u0001\u{7f}/\"}]}",
            ),
        ]
    }

    #[test]
    fn encoded_frames_match_golden_bytes() {
        for (frame, golden) in golden_frames() {
            assert_eq!(String::from_utf8(frame).unwrap(), golden);
            // The pinned bytes parse back and re-encode to themselves.
            let line = format!("{golden}\n").into_bytes();
            if golden.starts_with(r#"{"v":"#) {
                let request: ReachRequest = decode(golden.as_bytes()).unwrap();
                assert_eq!(encode(&request), line);
            } else if !golden.starts_with(r#"{"span":"#) {
                let ResponseFrame { id, server_timing, response } =
                    decode_response_frame(golden.as_bytes()).unwrap();
                assert_eq!(encode_response_frame(id, server_timing.as_ref(), &response), line);
            }
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        for frame in [
            &b"{\"kind\":\"error\",\"message\":\"\xff\"}"[..],
            b"{\"kind\":\"error\",\"message\":\"caf\xc3\"}",
            b"{\"kind\":\"error\",\"message\":\"\xed\xa0\x80\"}",
            b"{\"kind\":\"error\",\"message\":\"ok\"}\xff",
        ] {
            assert!(matches!(decode::<ReachResponse>(frame), Err(FrameError::Malformed(_))));
        }
    }

    #[test]
    fn string_decode_is_linear_in_frame_bytes() {
        // Regression for the quadratic string scan: the reader used to
        // re-validate the whole rest of the frame for every plain character,
        // which takes minutes on this input. Linear decoding takes
        // milliseconds even unoptimised; the bound leaves >100x headroom.
        let unit = "plain ascii, caf\u{e9}, \u{1F600}, \"quoted\" and \\slashed\\ ";
        let message = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(message.len() >= 1 << 20);
        let frame = encode(&ReachResponse::Error { message: message.clone() });
        let start = std::time::Instant::now();
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back, ReachResponse::Error { message });
        assert!(elapsed < std::time::Duration::from_secs(3), "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn malformed_json_rejected() {
        let err = decode::<ReachRequest>(b"{not json").unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)));
    }

    #[test]
    fn empty_frame_is_malformed() {
        assert!(decode::<ReachRequest>(b"").is_err());
    }
}
