//! The reach server: thread-per-connection TCP over a shared world.
//!
//! Each connection gets its own token bucket (the Marketing API throttles
//! per app/token); the reporting floor is applied **server-side** so a
//! client can never observe a sub-floor audience, exactly like the real
//! endpoint. Shutdown is cooperative: an atomic flag plus a short accept
//! timeout, so [`ReachServer::shutdown`] returns promptly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_adplatform::targeting::TargetingSpec;
use fbsim_population::countries::CountryCode;
use fbsim_population::index::{IndexConfig, ReachIndex};
use fbsim_population::reach::CountryFilter;
use fbsim_population::shard::{ShardAssignment, ShardSpec};
use fbsim_population::{InterestId, World};
use parking_lot::Mutex;
use reach_cache::{key::canonical_interests, CacheConfig, CacheStats, ReachCache};
use uof_telemetry::metrics::{Counter, Gauge};
use uof_telemetry::{SpanSource, Telemetry, TelemetryConfig, TraceContext};

use crate::proto::{
    decode, encode, encode_response_frame, FrameCodec, FrameError, ReachPoint, ReachRequest,
    ReachResponse, ServerTiming, PROTOCOL_VERSION,
};

/// Token-bucket rate-limit settings (per connection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Bucket capacity (burst size).
    pub capacity: f64,
    /// Refill rate in tokens per second.
    pub refill_per_second: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        Self { capacity: 50.0, refill_per_second: 25.0 }
    }
}

/// Longest retry backoff a [`TokenBucket`] will ever suggest. Also the wait
/// reported if a non-positive refill rate slips past validation — without
/// this clamp `deficit / 0.0 = inf` and `Duration::from_secs_f64` panics in
/// the connection thread. Public because the client's default backoff
/// ceiling is defined as this value: every wait the server can suggest is
/// one the default client honours.
pub const MAX_RETRY_BACKOFF: Duration = Duration::from_secs(60);

impl RateLimitConfig {
    /// Checks the config can actually admit requests: both fields must be
    /// finite, the capacity at least one token and the refill rate positive.
    ///
    /// # Errors
    ///
    /// A human-readable description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.capacity.is_finite() || self.capacity < 1.0 {
            return Err(format!(
                "rate-limit capacity must be a finite value >= 1, got {}",
                self.capacity
            ));
        }
        if !self.refill_per_second.is_finite() || self.refill_per_second <= 0.0 {
            return Err(format!(
                "rate-limit refill rate must be a finite value > 0, got {}",
                self.refill_per_second
            ));
        }
        Ok(())
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Reporting era (controls the floor).
    pub era: ReportingEra,
    /// Per-connection rate limit.
    pub rate_limit: RateLimitConfig,
    /// Query-cache knobs. The default honours the `UOF_REACH_CACHE*`
    /// environment variables (set `UOF_REACH_CACHE=0` to disable caching);
    /// explicit construction pins the behaviour regardless of environment.
    pub cache: CacheConfig,
    /// Telemetry domain. `None` (the default) records into the
    /// process-global instance (built from `UOF_TELEMETRY*` on first
    /// touch), so engine spans and server metrics land in the one registry
    /// the `StatsSnapshot` opcode dumps. `Some(config)` gives the server a
    /// private pinned instance regardless of environment — loopback tests
    /// use this to observe metrics without ambient interference.
    pub telemetry: Option<TelemetryConfig>,
    /// Posting-list index knob. The default honours `UOF_REACH_INDEX`;
    /// when enabled, `sampled` requests are answered from a bit-packed
    /// index grown on demand (interests materialize on first use and are
    /// rebuilt when the world's generation moves). Disabled, `sampled`
    /// requests get [`ReachResponse::Error`]. The float engine remains the
    /// oracle for every other opcode either way.
    pub index: IndexConfig,
    /// Socket write timeout per response batch. A client that stops
    /// reading fills the TCP window; without this bound `write_all` wedges
    /// the connection thread forever and shutdown hangs joining it. A
    /// timed-out write is treated as a disconnect.
    pub write_timeout: Duration,
    /// `Some(spec)`: run as shard `spec.index` of `spec.count` — the
    /// server answers `shard`-flagged requests with its raw per-chunk
    /// partials ([`ReachResponse::ShardPartials`]) over the chunks the
    /// deterministic [`ShardAssignment`] gives it. `None` (the default):
    /// single-node mode; the shard opcode is refused, because raw partials
    /// expose sub-floor audiences the reporting floor hides.
    pub shard: Option<ShardSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            era: ReportingEra::Early2017,
            rate_limit: RateLimitConfig::default(),
            cache: CacheConfig::from_env(),
            telemetry: None,
            index: IndexConfig::from_env(),
            write_timeout: Duration::from_secs(5),
            shard: None,
        }
    }
}

/// The server's shared sampled-count index: one lazily grown
/// [`ReachIndex`] behind a mutex, shared by every connection thread (like
/// the query cache, cross-connection reuse is the point). Queries are
/// microsecond-scale AND-chains, so answering under the lock is cheaper
/// than cloning posting lists out.
struct SampledIndex {
    slot: Mutex<Option<ReachIndex>>,
}

impl SampledIndex {
    fn new() -> Self {
        Self { slot: Mutex::new(None) }
    }

    /// Answers a conjunction count, (re)building or extending the index as
    /// needed: a missing or stale index is replaced by a fresh build over
    /// exactly the queried interests; a current one grows by the interests
    /// it has not seen. Epochs ride the same [`World::generation`] counter
    /// the reach-cache invalidates on.
    fn count(&self, world: &World, ids: &[InterestId], filter: CountryFilter) -> Option<u64> {
        let mut slot = self.slot.lock();
        let rebuild = match slot.as_ref() {
            Some(index) => !index.is_current(world),
            None => true,
        };
        if rebuild {
            *slot = Some(ReachIndex::build_for(world, ids));
        } else if let Some(index) = slot.as_mut() {
            index.extend_for(world, ids);
        }
        slot.as_ref().and_then(|index| index.conjunction_count(ids, filter))
    }

    /// Per-block conjunction counts over `blocks`, with the same lazy
    /// build/extend/epoch discipline as [`SampledIndex::count`].
    fn count_in_blocks(
        &self,
        world: &World,
        ids: &[InterestId],
        filter: CountryFilter,
        blocks: &[usize],
    ) -> Option<Vec<u64>> {
        let mut slot = self.slot.lock();
        let rebuild = match slot.as_ref() {
            Some(index) => !index.is_current(world),
            None => true,
        };
        if rebuild {
            *slot = Some(ReachIndex::build_for(world, ids));
        } else if let Some(index) = slot.as_mut() {
            index.extend_for(world, ids);
        }
        slot.as_ref().and_then(|index| index.conjunction_count_in_blocks(ids, filter, blocks))
    }
}

/// A token bucket (shared with the router's client-facing side).
pub(crate) struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
    config: RateLimitConfig,
}

impl TokenBucket {
    pub(crate) fn new(config: RateLimitConfig) -> Self {
        Self { tokens: config.capacity, last_refill: Instant::now(), config }
    }

    /// Tries to take one token; on failure returns the suggested wait.
    pub(crate) fn try_take(&mut self) -> Result<(), Duration> {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens =
            (self.tokens + elapsed * self.config.refill_per_second).min(self.config.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            let wait = deficit / self.config.refill_per_second;
            // A zero/negative/NaN refill rate gives a non-finite or negative
            // wait; clamp into [0, MAX_RETRY_BACKOFF] so the conversion
            // below cannot panic and the client gets a well-formed backoff.
            if wait.is_finite() && wait >= 0.0 {
                Err(Duration::from_secs_f64(wait).min(MAX_RETRY_BACKOFF))
            } else {
                Err(MAX_RETRY_BACKOFF)
            }
        }
    }
}

/// A running reach server.
pub struct ReachServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    requests_served: Arc<AtomicU64>,
    cache: Arc<ReachCache>,
    /// Live connection-thread handles (finished ones are reaped on each
    /// accept; the remainder drains at shutdown).
    handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    /// `Some` when the config pinned a private telemetry domain; `None`
    /// means the process-global instance.
    telemetry: Option<Arc<Telemetry>>,
}

impl ReachServer {
    /// Starts the server on `127.0.0.1` with an OS-assigned port.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when the rate-limit or cache
    /// config is unusable (see [`RateLimitConfig::validate`] and
    /// [`CacheConfig::validate`]); otherwise propagates socket errors from
    /// binding.
    pub fn start(world: Arc<World>, config: ServerConfig) -> std::io::Result<Self> {
        config
            .rate_limit
            .validate()
            .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
        config
            .cache
            .validate()
            .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
        if let Some(shard) = &config.shard {
            shard
                .validate()
                .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests_served = Arc::new(AtomicU64::new(0));
        // One cache shared by every connection thread — cross-connection
        // reuse and single-flight deduplication are the whole point.
        let cache = Arc::new(ReachCache::new(config.cache));
        // One sampled-count index shared by every connection thread, grown
        // lazily — servers that never see a `sampled` request never build it.
        let index = Arc::new(SampledIndex::new());
        // A pinned telemetry domain, or `None` for the process global.
        let telemetry = config.telemetry.as_ref().map(|cfg| Arc::new(Telemetry::new(cfg)));
        let accept_stop = Arc::clone(&stop);
        let accept_served = Arc::clone(&requests_served);
        let accept_cache = Arc::clone(&cache);
        let accept_index = Arc::clone(&index);
        let accept_telemetry = telemetry.clone();
        let handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept_handles = Arc::clone(&handles);
        let accept_thread = std::thread::spawn(move || {
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let world = Arc::clone(&world);
                        let stop = Arc::clone(&accept_stop);
                        let served = Arc::clone(&accept_served);
                        let cache = Arc::clone(&accept_cache);
                        let index = Arc::clone(&accept_index);
                        let config = config.clone();
                        let telemetry = accept_telemetry.clone();
                        let handle = std::thread::spawn(move || {
                            let telemetry =
                                telemetry.as_deref().unwrap_or_else(|| uof_telemetry::global());
                            let _ = handle_connection(
                                stream, &world, &cache, &index, telemetry, &config, &stop, &served,
                            );
                        });
                        // Opportunistic reap: joining only *finished*
                        // threads is non-blocking, and it bounds the vector
                        // by the number of **live** connections instead of
                        // connections ever accepted (which leaked one
                        // handle per connection for the server's lifetime).
                        let mut handles = accept_handles.lock();
                        let (done, live): (Vec<_>, Vec<_>) =
                            handles.drain(..).partition(|h| h.is_finished());
                        *handles = live;
                        drop(handles);
                        for finished in done {
                            let _ = finished.join();
                        }
                        accept_handles.lock().push(handle);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            // Reap connection threads on the way out.
            for handle in accept_handles.lock().drain(..) {
                let _ = handle.join();
            }
        });
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            requests_served,
            cache,
            handles,
            telemetry,
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests successfully served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Number of connection-thread handles currently tracked. Bounded by
    /// the number of live connections (plus at most the churn since the
    /// last accept, which triggers the reap) — the observability hook the
    /// handle-leak regression test asserts on.
    pub fn connection_handles(&self) -> usize {
        self.handles.lock().len()
    }

    /// The shared query cache (in-process observability; remote clients use
    /// a [`ReachRequest::stats`] probe instead).
    pub fn cache(&self) -> &ReachCache {
        &self.cache
    }

    /// The telemetry domain this server records into: the pinned instance
    /// when [`ServerConfig::telemetry`] was `Some`, the process global
    /// otherwise. Remote clients use a [`ReachRequest::stats_snapshot`]
    /// probe instead.
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry.as_deref().unwrap_or_else(|| uof_telemetry::global())
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReachServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ReachServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReachServer")
            .field("addr", &self.addr)
            .field("requests_served", &self.requests_served())
            .finish_non_exhaustive()
    }
}

/// Serves one connection until EOF, error, or server shutdown.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    mut stream: TcpStream,
    world: &World,
    cache: &ReachCache,
    index: &SampledIndex,
    telemetry: &Telemetry,
    config: &ServerConfig,
    stop: &AtomicBool,
    served: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    // A bounded write: a client that stops reading (full TCP window) used
    // to wedge `write_all` forever, and shutdown then hung joining this
    // thread. A timed-out write is a disconnect, handled below.
    stream.set_write_timeout(Some(config.write_timeout))?;
    // Pipelined responses go out as back-to-back batches; with Nagle on,
    // every batch after the first stalls behind the peer's delayed ACK
    // (~40ms), making pipelining *slower* than one request per round trip.
    stream.set_nodelay(true)?;
    let api = AdsManagerApi::new(world, config.era);
    let mut codec = FrameCodec::new();
    let mut bucket = TokenBucket::new(config.rate_limit);
    let metrics = ConnectionMetrics::new("server.frame");
    // Sized for a full pipelined request batch in one read: a deep-pipelining
    // client sends ~10 KiB back-to-back, and a smaller buffer splits the
    // batch into extra read syscalls.
    let mut buf = [0u8; 16384];
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // EOF
            Ok(n) => codec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
        // Drain every complete frame this read delivered before touching
        // the socket again — the server half of pipelining. Frames are
        // decoded and stamped up front, then handled in order: the stamp
        // is when the request became runnable, so each frame's measured
        // queue wait covers the time it spent parked behind earlier frames
        // of the same pipelined batch. Responses are batched into one
        // write so N pipelined requests cost one syscall and one TCP
        // segment train, not N.
        let mut pending: Vec<(Instant, Result<ReachRequest, FrameError>)> = Vec::new();
        let mut oversized = false;
        loop {
            match codec.next_frame() {
                Ok(Some(frame)) => pending.push((Instant::now(), decode::<ReachRequest>(&frame))),
                Ok(None) => break,
                Err(_) => {
                    // Oversized frame: tell the client and drop them (after
                    // flushing answers to the frames before it).
                    telemetry.count("reach.requests.oversized", 1);
                    oversized = true;
                    break;
                }
            }
        }
        let mut out: Vec<u8> = Vec::new();
        for (decoded_at, parsed) in pending.drain(..) {
            let (id, timing, response) = match parsed {
                Err(e) => {
                    telemetry.count("reach.requests.error", 1);
                    (None, None, ReachResponse::Error { message: e.to_string() })
                }
                Ok(request) => {
                    let queue_ns = saturating_ns(decoded_at.elapsed());
                    // One span per wire frame, adopting the client's trace
                    // context when the request carries one — this is the
                    // server-side hop a trace tree hangs handler spans off.
                    // It starts at the frame's decode stamp (no extra clock
                    // read) so its duration covers the frame's full server
                    // residency: decode, queue wait, and handling.
                    let mut frame_span = telemetry
                        .span_via(&metrics.frame_span)
                        .child_of(request.trace)
                        .field("queue_ns", queue_ns.into())
                        .start_at(decoded_at);
                    let handler_start = Instant::now();
                    let mut probe = TimingProbe::default();
                    let response = match bucket.try_take() {
                        Err(wait) => {
                            telemetry.count("reach.requests.rate_limited", 1);
                            ReachResponse::RateLimited {
                                retry_after_ms: wait.as_millis().max(1) as u64,
                            }
                        }
                        Ok(()) => {
                            let r = answer_instrumented(
                                &api,
                                cache,
                                index,
                                config,
                                telemetry,
                                &metrics,
                                &request,
                                frame_span.trace_context(),
                                handler_start,
                                &mut probe,
                            );
                            if !matches!(
                                r,
                                ReachResponse::Error { .. } | ReachResponse::RateLimited { .. }
                            ) {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            r
                        }
                    };
                    // The timing echo is opt-in: only requests that carried
                    // a trace context get one, so v1 clients (and v2 clients
                    // that never opted into tracing) see byte-identical
                    // response frames.
                    let timing = request.trace.is_some().then(|| ServerTiming {
                        queue_ns,
                        handler_ns: saturating_ns(handler_start.elapsed()),
                        cache_hit: !probe.engine_ran,
                        engine_ns: probe.engine_ns,
                    });
                    frame_span.annotate("engine_ns", probe.engine_ns.into());
                    (request.id, timing, response)
                }
            };
            out.extend_from_slice(&encode_response_frame(id, timing.as_ref(), &response));
        }
        if oversized {
            out.extend_from_slice(&encode(&ReachResponse::Error {
                message: "frame too large".into(),
            }));
        }
        if !out.is_empty() {
            match stream.write_all(&out) {
                Ok(()) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // The client is not reading; treat as a disconnect so
                    // the thread (and shutdown) cannot hang on its window.
                    telemetry.count("reach.connections.write_timeout", 1);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        if oversized {
            return Ok(());
        }
    }
}

/// Per-opcode metric names: `(counter, latency-span)` pairs. The span name
/// doubles as the histogram name the duration lands in. Rows are in the
/// order `answer` and the router's `route` test the opcode flags, so a
/// frame that sets several is counted under the opcode that answers it.
pub(crate) const OPCODE_NAMES: [(&str, &str); 6] = [
    ("reach.requests.snapshot", "reach.request.snapshot"),
    ("reach.requests.stats", "reach.request.stats"),
    ("reach.requests.shard", "reach.request.shard"),
    ("reach.requests.nested", "reach.request.nested"),
    ("reach.requests.sampled", "reach.request.sampled"),
    ("reach.requests.scalar", "reach.request.scalar"),
];

/// The [`OPCODE_NAMES`] row for `request`'s wire opcode.
fn opcode_index(request: &ReachRequest) -> usize {
    if request.snapshot == Some(true) {
        0
    } else if request.stats == Some(true) {
        1
    } else if request.shard == Some(true) {
        2
    } else if request.nested == Some(true) {
        3
    } else if request.sampled == Some(true) {
        4
    } else {
        5
    }
}

/// Per-connection handles to the metrics the frame loop touches on every
/// request, resolved once per name instead of per frame. A by-name
/// registry lookup takes a read lock and a map walk; at pipelined request
/// rates that is a measurable share of the warm path, and the registry's
/// contract is that hot loops hoist lookups. Handles resolve lazily on
/// first **enabled** use, so a connection on a disabled-telemetry server
/// registers nothing (and a server enabled at runtime resolves them on the
/// next request).
pub(crate) struct ConnectionMetrics {
    /// Per-frame span (`server.frame` on the server, `router.frame` on the
    /// router).
    pub(crate) frame_span: SpanSource,
    in_flight: OnceLock<Arc<Gauge>>,
    /// One slot per [`OPCODE_NAMES`] row.
    opcodes: [OpcodeMetrics; OPCODE_NAMES.len()],
}

struct OpcodeMetrics {
    counter_name: &'static str,
    counter: OnceLock<Arc<Counter>>,
    span: SpanSource,
}

impl ConnectionMetrics {
    pub(crate) fn new(frame_span_name: &'static str) -> Self {
        Self {
            frame_span: SpanSource::new(frame_span_name),
            in_flight: OnceLock::new(),
            opcodes: OPCODE_NAMES.map(|(counter_name, span_name)| OpcodeMetrics {
                counter_name,
                counter: OnceLock::new(),
                span: SpanSource::new(span_name),
            }),
        }
    }

    /// The request counter and handler-span source for `request`'s opcode.
    pub(crate) fn opcode(
        &self,
        telemetry: &Telemetry,
        request: &ReachRequest,
    ) -> (&Counter, &SpanSource) {
        let op = &self.opcodes[opcode_index(request)];
        // lint:allow(dynamic-metric-name) — per-opcode names from the static OPCODE_NAMES table
        let counter = op.counter.get_or_init(|| telemetry.registry().counter(op.counter_name));
        (counter, &op.span)
    }

    /// The `reach.requests.in_flight` gauge.
    pub(crate) fn in_flight(&self, telemetry: &Telemetry) -> &Gauge {
        self.in_flight.get_or_init(|| telemetry.registry().gauge("reach.requests.in_flight"))
    }
}

/// Saturating nanosecond reading of an elapsed interval (a duration past
/// ~584 years would overflow `u64`; clamp instead of truncating).
pub(crate) fn saturating_ns(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Accumulates where a request's handler time actually went, for the
/// opt-in [`ServerTiming`] echo and the handler span's annotations.
/// `engine_ns` covers the compute sections — cache-miss closures, index
/// lookups, shard partial evaluation — and `engine_ran` records whether
/// any ran at all (a warm scalar request answers purely from cache and
/// reports `cache_hit` on the wire). Purely observational: nothing in the
/// answer path reads it back.
#[derive(Default, Clone, Copy)]
struct TimingProbe {
    engine_ns: u64,
    engine_ran: bool,
}

impl TimingProbe {
    /// Runs `compute` and folds its wall time into the engine total.
    fn time<T>(&mut self, compute: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = compute();
        self.engine_ns = self.engine_ns.saturating_add(saturating_ns(start.elapsed()));
        self.engine_ran = true;
        out
    }
}

/// Wraps [`answer`] in per-opcode telemetry: an opcode counter, the
/// in-flight gauge, and a latency span (which records into the
/// `reach.request.<opcode>` histogram and traces when a sink is attached).
/// The handler span is parented under the per-frame `server.frame` span
/// via `parent` and starts at the caller's `started_at` stamp — the same
/// instant the timing echo's `handler_ns` measures from — so the span and
/// the echo agree without a second clock read. When telemetry is disabled
/// this adds one relaxed load over a bare `answer` call.
#[allow(clippy::too_many_arguments)]
fn answer_instrumented(
    api: &AdsManagerApi<'_>,
    cache: &ReachCache,
    index: &SampledIndex,
    config: &ServerConfig,
    telemetry: &Telemetry,
    metrics: &ConnectionMetrics,
    request: &ReachRequest,
    parent: Option<TraceContext>,
    started_at: Instant,
    probe: &mut TimingProbe,
) -> ReachResponse {
    if !telemetry.is_enabled() {
        return answer(api, cache, index, config, telemetry, request, probe);
    }
    let (counter, span_source) = metrics.opcode(telemetry, request);
    counter.incr();
    let in_flight = metrics.in_flight(telemetry);
    // Incremented before the request is handled, so a snapshot request
    // deterministically observes itself in flight (the gauge is >= 1 in
    // its own dump).
    in_flight.incr();
    let response = {
        let mut span = telemetry
            .span_via(span_source)
            .child_of(parent)
            .field("locations", request.locations.len().into())
            .field("interests", request.interests.len().into())
            .start_at(started_at);
        let response = answer(api, cache, index, config, telemetry, request, probe);
        span.annotate("engine_ns", probe.engine_ns.into());
        span.annotate("cache_hit", (!probe.engine_ran).into());
        response
    };
    in_flight.decr();
    if matches!(response, ReachResponse::Error { .. }) {
        telemetry.registry().counter("reach.requests.error").incr();
    }
    response
}

/// Mirrors the cache's bespoke [`CacheStats`] counters into the registry
/// as `reach_cache.*` gauges, so one `StatsSnapshot` dump carries the
/// aggregate cache view alongside the request metrics. Gauges (not
/// counters) because the cache owns the authoritative totals; the registry
/// holds a point-in-time copy refreshed on each snapshot.
fn publish_cache_stats(telemetry: &Telemetry, stats: &CacheStats) {
    let registry = telemetry.registry();
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    registry.gauge("reach_cache.enabled").set(i64::from(stats.enabled));
    registry.gauge("reach_cache.epoch").set(clamp(stats.epoch));
    registry.gauge("reach_cache.entries").set(clamp(stats.entries as u64));
    registry.gauge("reach_cache.hits").set(clamp(stats.hits));
    registry.gauge("reach_cache.misses").set(clamp(stats.misses));
    registry.gauge("reach_cache.single_flight_waits").set(clamp(stats.single_flight_waits));
    registry.gauge("reach_cache.insertions").set(clamp(stats.insertions));
    registry.gauge("reach_cache.evictions").set(clamp(stats.evictions));
    registry.gauge("reach_cache.invalidations").set(clamp(stats.invalidations));
    registry.gauge("reach_cache.prefix_entries").set(clamp(stats.prefix_entries as u64));
    registry.gauge("reach_cache.prefix_hits").set(clamp(stats.prefix_hits));
    registry.gauge("reach_cache.prefix_misses").set(clamp(stats.prefix_misses));
    registry.gauge("reach_cache.prefix_extensions").set(clamp(stats.prefix_extensions));
}

/// Validates a request and computes the reported reach.
///
/// Scalar queries are **canonicalized server-side** (interests sorted and
/// deduplicated) before touching the spec or the engine: permuted or
/// duplicated spellings of one audience are the same query, share one cache
/// entry, and — because the engine then evaluates the same interest order —
/// report bit-identical values. Nested queries are order-significant and
/// never reordered; duplicates there are rejected by spec validation.
fn answer(
    api: &AdsManagerApi<'_>,
    cache: &ReachCache,
    index: &SampledIndex,
    config: &ServerConfig,
    telemetry: &Telemetry,
    request: &ReachRequest,
    probe: &mut TimingProbe,
) -> ReachResponse {
    if request.v != PROTOCOL_VERSION {
        return ReachResponse::Error {
            message: format!("unsupported protocol version {}", request.v),
        };
    }
    // Reconcile the cache with the world's mutation generation before every
    // answer: one atomic swap when nothing changed, an epoch bump when the
    // world moved under a long-lived server.
    cache.sync_generation(api.world().generation());
    if request.snapshot == Some(true) {
        // Refresh the mirrored cache view, then dump everything. The dump
        // itself is already counted and in flight (see
        // `answer_instrumented`), so a snapshot observes its own request.
        // With telemetry disabled nothing records, so the dump is empty —
        // still a valid, well-formed answer.
        if telemetry.is_enabled() {
            publish_cache_stats(telemetry, &cache.stats());
        }
        return ReachResponse::StatsSnapshot { registry: telemetry.snapshot() };
    }
    if request.stats == Some(true) {
        return ReachResponse::Stats { stats: cache.stats() };
    }
    let nested = request.nested == Some(true);
    let sampled = request.sampled == Some(true);
    if nested && sampled {
        return ReachResponse::Error {
            message: "nested and sampled are mutually exclusive".into(),
        };
    }
    if sampled && !config.index.enabled {
        return ReachResponse::Error {
            message: "sampled reach requires the posting-list index (UOF_REACH_INDEX=1)".into(),
        };
    }
    let mut builder = TargetingSpec::builder();
    for code in &request.locations {
        let bytes = code.as_bytes();
        if bytes.len() != 2 || !bytes.iter().all(u8::is_ascii_uppercase) {
            return ReachResponse::Error { message: format!("bad country code {code:?}") };
        }
        builder = builder.location(CountryCode([bytes[0], bytes[1]]));
    }
    let interests: Vec<u32> = if nested {
        // Prefix order is the answer's meaning; spec validation still
        // rejects duplicates and over-long sequences below.
        request.interests.clone()
    } else {
        canonical_interests(&request.interests)
    };
    builder = builder.interests(interests.iter().map(|&i| InterestId(i)));
    let spec = match builder.build() {
        Ok(spec) => spec,
        Err(e) => return ReachResponse::Error { message: e.to_string() },
    };
    // Interests must exist in the catalog.
    for &id in spec.interests() {
        if api.world().catalog().get(id).is_none() {
            return ReachResponse::Error { message: format!("unknown interest {}", id.0) };
        }
    }
    // `checked_of`, not `of`: a spec path carrying an out-of-universe index
    // must degrade to an error frame, never panic the connection thread.
    let filter = match CountryFilter::checked_of(&spec.location_indices()) {
        Ok(filter) => filter,
        Err(i) => {
            return ReachResponse::Error {
                message: format!("country index {i} outside the 50-country universe"),
            }
        }
    };
    if request.shard == Some(true) {
        // Raw per-chunk partials for the router's merge. Refused outside
        // shard mode: partials are pre-floor values, and the reporting
        // floor (applied once, at the router, after the merge) is the
        // privacy contract — a single-node server must never leak them.
        let Some(shard) = config.shard else {
            return ReachResponse::Error {
                message: "shard partials require a shard-configured backend".into(),
            };
        };
        let assignment = ShardAssignment::new(api.world(), shard.count);
        let chunks = assignment.chunks_of(shard.index);
        let generation = api.world().generation();
        let values: Vec<Vec<u64>> = if sampled {
            match probe
                .time(|| index.count_in_blocks(api.world(), spec.interests(), filter, &chunks))
            {
                Some(counts) => counts.into_iter().map(|n| vec![n]).collect(),
                None => {
                    return ReachResponse::Error {
                        message: "sampled shard partials unavailable for this query".into(),
                    }
                }
            }
        } else if nested {
            probe
                .time(|| {
                    api.world().reach_engine().nested_chunk_partials(
                        spec.interests(),
                        filter,
                        &chunks,
                    )
                })
                .into_iter()
                .map(|per_prefix| per_prefix.into_iter().map(f64::to_bits).collect())
                .collect()
        } else {
            probe
                .time(|| {
                    api.world().reach_engine().conjunction_chunk_partials(
                        spec.interests(),
                        filter,
                        &chunks,
                    )
                })
                .into_iter()
                .map(|partial| vec![partial.to_bits()])
                .collect()
        };
        return ReachResponse::ShardPartials {
            generation,
            chunks: chunks.into_iter().map(|c| c as u32).collect(),
            values,
        };
    }
    if sampled {
        // Sampled counts bypass the float engine and its cache entirely:
        // the index is its own memo (posting lists persist across queries)
        // and its epoch rides the same generation counter.
        let reach = match probe.time(|| index.count(api.world(), spec.interests(), filter)) {
            Some(members) => members as f64 * api.world().panel().scale(),
            None => {
                return ReachResponse::Error {
                    message: "sampled reach unavailable for this query".into(),
                }
            }
        };
        let point = api.report_potential(reach);
        return ReachResponse::SampledReach {
            reported: point.reported,
            floored: point.floored,
            too_narrow_warning: point.too_narrow_warning,
        };
    }
    if nested {
        // Nested answers flow through the cache's prefix memo, which runs
        // the engine internally — the probe times the combined lookup, so
        // nested requests always report engine time (never `cache_hit`).
        let engine = api.world().reach_engine();
        let reaches = probe
            .time(|| cache.nested_reaches_in(&engine, spec.interests(), filter))
            .into_iter()
            .map(|raw| {
                let point = api.report_potential(raw);
                ReachPoint {
                    reported: point.reported,
                    floored: point.floored,
                    too_narrow_warning: point.too_narrow_warning,
                }
            })
            .collect();
        return ReachResponse::Nested { reaches };
    }
    // The expensive true-reach evaluation is memoized; the cheap reporting
    // step (floor + advisory) is applied to the cached value, so a cached
    // answer is bit-identical to an uncached one.
    // The compute closure is `Fn` (the cache may invoke it under its
    // single-flight machinery), so the probe is fed through a `Cell`
    // rather than a mutable capture. A cache hit never runs the closure:
    // the probe then records no engine work and the request reports
    // `cache_hit` on the wire.
    let compute = std::cell::Cell::new((0u64, false));
    let true_reach = cache.reach(spec.interests(), filter, spec.age_range(), || {
        let start = Instant::now();
        let value = api.true_reach(&spec);
        let (ns, _) = compute.get();
        compute.set((ns.saturating_add(saturating_ns(start.elapsed())), true));
        value
    });
    let (engine_ns, engine_ran) = compute.get();
    if engine_ran {
        probe.engine_ns = probe.engine_ns.saturating_add(engine_ns);
        probe.engine_ran = true;
    }
    let reach = api.report_potential(true_reach);
    ReachResponse::Reach {
        reported: reach.reported,
        floored: reach.floored,
        too_narrow_warning: reach.too_narrow_warning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate() {
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 3.0, refill_per_second: 1000.0 });
        assert!(bucket.try_take().is_ok());
        assert!(bucket.try_take().is_ok());
        assert!(bucket.try_take().is_ok());
        // Bucket drained; immediate fourth take fails with a small wait.
        if let Err(wait) = bucket.try_take() {
            assert!(wait <= Duration::from_millis(2));
        }
        // After the refill interval the bucket recovers.
        std::thread::sleep(Duration::from_millis(5));
        assert!(bucket.try_take().is_ok());
    }

    #[test]
    fn zero_refill_rate_yields_clamped_wait_not_panic() {
        // Regression: with refill_per_second = 0 the suggested wait used to
        // be `deficit / 0 = inf`, and `Duration::from_secs_f64(inf)` panicked
        // in the connection thread.
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 1.0, refill_per_second: 0.0 });
        assert!(bucket.try_take().is_ok());
        match bucket.try_take() {
            Err(wait) => assert_eq!(wait, MAX_RETRY_BACKOFF),
            Ok(()) => panic!("drained bucket with zero refill must not admit"),
        }
    }

    #[test]
    fn huge_deficit_waits_are_capped() {
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 1.0, refill_per_second: 1e-12 });
        assert!(bucket.try_take().is_ok());
        match bucket.try_take() {
            Err(wait) => assert!(wait <= MAX_RETRY_BACKOFF),
            Ok(()) => panic!("drained bucket must not admit"),
        }
    }

    #[test]
    fn rate_limit_config_validation() {
        assert!(RateLimitConfig::default().validate().is_ok());
        for bad in [
            RateLimitConfig { capacity: 50.0, refill_per_second: 0.0 },
            RateLimitConfig { capacity: 50.0, refill_per_second: -1.0 },
            RateLimitConfig { capacity: 50.0, refill_per_second: f64::NAN },
            RateLimitConfig { capacity: 50.0, refill_per_second: f64::INFINITY },
            RateLimitConfig { capacity: 0.5, refill_per_second: 25.0 },
            RateLimitConfig { capacity: f64::NAN, refill_per_second: 25.0 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn bucket_caps_at_capacity() {
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 2.0, refill_per_second: 1e9 });
        std::thread::sleep(Duration::from_millis(2));
        // Despite the huge refill rate, only `capacity` takes succeed
        // back-to-back.
        assert!(bucket.try_take().is_ok());
        assert!(bucket.try_take().is_ok());
    }
}
