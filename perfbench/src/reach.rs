//! The reach-service workloads (`reach_cold`, `reach_warm`): deployment,
//! the closed-loop client, the in-process oracle, and the layer probes of
//! the traced run, the router's among them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fbsim_adplatform::reach::{AdsManagerApi, PotentialReach, ReportingEra};
use fbsim_fdvt::dataset::CohortConfig;
use fbsim_fdvt::FdvtDataset;
use fbsim_population::index::IndexConfig;
use fbsim_population::{InterestId, ReachIndex, ShardSpec, World, WorldConfig};
use reach_api::proto::{
    decode, decode_response_frame, encode, encode_response_frame, ServerTiming,
};
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{
    ReachClient, ReachPoint, ReachRequest, ReachResponse, ReachRouter, ReachServer, RouterConfig,
};
use reach_cache::{CacheConfig, CacheStats, ReachCache};
use uof_telemetry::{TelemetryConfig, TraceContext};

use crate::stats::{median, ratio, Slices, Timing};
use crate::streams::{self, Class, StreamRequest};
use crate::WORLD_SEED;

/// Monte-Carlo panel of the medium world (the paper's universe, reduced
/// panel).
pub const MEDIUM_PANEL: u32 = 50_000;
/// FDVT cohort the nested sweeps are drawn from.
const COHORT_SIZE: u32 = 1_000;
/// Requests per `reach_warm` op: one `ReachClient::pipeline` window over
/// the whole working set. A window this deep makes an op milliseconds
/// long, so a scheduling stall of the host adds a fraction to an op rather
/// than multiplying it, and the p99 stays readable.
pub const WINDOW: usize = streams::WARM_SET;
/// Shard backends behind the router the traced `reach_cold` run probes.
const SHARDS: u32 = 2;
/// Cold requests generated per second of timed phase: an upper bound on
/// the cold rate, so the stream outlasts the run.
const COLD_RATE_CEILING: usize = 1_000;
/// Longest cold stream: its quarter of sweeps stays well inside the ~8,000
/// distinct sweeps the cohort offers (1,000 users, two orders, four
/// location sets). A longer run ends when the stream does
/// (`stream_exhausted`).
const MAX_COLD_STREAM: usize = 16_000;
/// Requests each in-process probe samples.
pub const PROBE_SAMPLE: usize = 256;
/// Repetitions of each in-process micro-timing.
const PROBE_REPS: usize = 15;

/// Which reach workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct keys against one server: the engine and index work.
    Cold,
    /// A replayed working set that the cache holds: the wire and hit path.
    Warm,
}

/// The medium world of the reach workloads.
fn world_config() -> WorldConfig {
    WorldConfig { panel_size: MEDIUM_PANEL, ..WorldConfig::paper_scale(WORLD_SEED) }
}

/// The cache every server runs with: the default, pinned against the
/// environment.
pub fn cache_config() -> CacheConfig {
    CacheConfig::default()
}

fn server_config(shard: Option<ShardSpec>) -> ServerConfig {
    ServerConfig {
        rate_limit: unthrottled(),
        cache: cache_config(),
        index: IndexConfig::enabled(),
        telemetry: Some(TelemetryConfig::disabled()),
        shard,
        ..ServerConfig::default()
    }
}

/// No throttling: the benchmark measures service time, not backoff.
fn unthrottled() -> RateLimitConfig {
    RateLimitConfig { capacity: 1e9, refill_per_second: 1e9 }
}

/// A running deployment with its client connected.
pub struct Deployment {
    /// The shared world.
    pub world: Arc<World>,
    /// The requests (cold stream or warm working set).
    pub stream: Vec<StreamRequest>,
    /// The benchmark's one client connection.
    pub client: ReachClient,
    /// Answers of the warm-up pass (`reach_warm` only).
    pub warm_answers: Vec<ReachResponse>,
    /// Seconds spent in `World::generate`.
    pub world_generate_s: f64,
    server: ReachServer,
}

impl Deployment {
    /// Generates the world, cohort and requests, starts the servers,
    /// connects, and (for `reach_warm`) replays the working set once.
    pub fn start(kind: Kind, seed: u64, seconds: u64) -> Self {
        let start = Instant::now();
        let world = Arc::new(World::generate(world_config()).expect("medium config is valid"));
        let world_generate_s = start.elapsed().as_secs_f64();
        let cohort = FdvtDataset::generate(
            &world,
            CohortConfig { size: COHORT_SIZE, seed: seed ^ 0xC0_0047, demographic_effects: true },
        );
        let stream = match kind {
            Kind::Warm => streams::warm_set(&world, &cohort, seed, &cache_config()),
            Kind::Cold => {
                let len = (seconds as usize * COLD_RATE_CEILING).min(MAX_COLD_STREAM);
                streams::cold_stream(&world, &cohort, seed, len)
            }
        };
        let server =
            ReachServer::start(Arc::clone(&world), server_config(None)).expect("bind server");
        let mut client = ReachClient::connect(server.addr()).expect("connect");
        let mut warm_answers = Vec::new();
        if kind == Kind::Warm {
            for window in stream.chunks(WINDOW) {
                let requests: Vec<ReachRequest> =
                    window.iter().map(|r| r.request.clone()).collect();
                warm_answers.extend(client.pipeline(&requests).expect("warm-up window"));
            }
        }
        Self { world, stream, client, warm_answers, world_generate_s, server }
    }

    /// Closes the client and stops the server, joining its threads.
    pub fn shutdown(self) {
        let Self { client, mut server, .. } = self;
        drop(client);
        server.shutdown();
    }
}

/// The single-node answers, computed in-process: the float engine through
/// the Ads Manager API for scalar and nested requests, a posting-list index
/// grown on demand for sampled ones.
pub struct Oracle<'w> {
    api: AdsManagerApi<'w>,
    index: ReachIndex,
}

fn point(p: PotentialReach) -> ReachPoint {
    ReachPoint {
        reported: p.reported,
        floored: p.floored,
        too_narrow_warning: p.too_narrow_warning,
    }
}

impl<'w> Oracle<'w> {
    /// An oracle over `world`.
    pub fn new(world: &'w World) -> Self {
        Self {
            api: AdsManagerApi::new(world, ReportingEra::Early2017),
            index: ReachIndex::build_for(world, &[]),
        }
    }

    /// The answer a single node gives `request`.
    pub fn answer(&mut self, request: &StreamRequest) -> ReachResponse {
        match request.class {
            Class::Scalar => {
                let p = point(self.api.potential_reach(&request.spec(true)));
                ReachResponse::Reach {
                    reported: p.reported,
                    floored: p.floored,
                    too_narrow_warning: p.too_narrow_warning,
                }
            }
            Class::Nested => ReachResponse::Nested {
                reaches: self
                    .api
                    .nested_potential_reach(&request.spec(false), &request.ids())
                    .into_iter()
                    .map(point)
                    .collect(),
            },
            Class::Sampled => {
                let ids = request.canonical_ids();
                self.index.extend_for(self.api.world(), &ids);
                let members = self
                    .index
                    .conjunction_count(&ids, request.filter)
                    .expect("interests are indexed");
                let reach = members as f64 * self.api.world().panel().scale();
                let p = point(self.api.report_potential(reach));
                ReachResponse::SampledReach {
                    reported: p.reported,
                    floored: p.floored,
                    too_narrow_warning: p.too_narrow_warning,
                }
            }
        }
    }
}

/// Raw results of one timed phase.
#[derive(Default)]
pub struct Phase {
    /// Per-op latency in µs.
    pub latencies_us: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or answered wrongly.
    pub failed: u64,
    /// Per-op server-timing echo (traced phases only): the op's last frame.
    pub timings: Vec<ServerTiming>,
    /// Per-op request and response bytes on the wire.
    pub wire_bytes: Vec<(usize, usize)>,
    /// `reach_cold`: the stream positions answered and their answers, for
    /// the oracle check after the phase.
    pub answered: Vec<(usize, Option<ReachResponse>)>,
    /// Cache stats before and after the phase.
    pub cache: Option<(CacheStats, CacheStats)>,
    /// The ops the host did not steal around.
    pub timing: Timing,
}

/// A trace context for op `k`, so the server echoes its timing.
fn trace_context(k: usize) -> Option<TraceContext> {
    Some(TraceContext { trace_id: k as u64 + 1, parent_span_id: 1 })
}

fn response_bytes(id: u64, response: &ReachResponse) -> usize {
    encode_response_frame(Some(id), None, response).len()
}

/// Runs a closed-loop timed phase for `seconds`, starting at stream
/// position `*cursor` (the cold stream is consumed, never replayed; the
/// warm windows cycle).
pub fn timed_phase(
    kind: Kind,
    deployment: &mut Deployment,
    cursor: &mut usize,
    seconds: f64,
    traced: bool,
) -> Phase {
    let mut phase = Phase::default();
    let before = deployment.client.cache_stats().expect("cache stats");
    let mut slices = Slices::start();
    let started = Instant::now();
    let mut wire_id = 0u64;
    match kind {
        Kind::Warm => {
            let windows: Vec<Vec<ReachRequest>> = deployment
                .stream
                .chunks(WINDOW)
                .map(|w| w.iter().map(|r| r.request.clone()).collect())
                .collect();
            let answers: Vec<&[ReachResponse]> = deployment.warm_answers.chunks(WINDOW).collect();
            while started.elapsed().as_secs_f64() < seconds {
                let w = *cursor % windows.len();
                *cursor += 1;
                let k = phase.latencies_us.len();
                let window: Vec<ReachRequest> = if traced {
                    windows[w].iter().map(|r| r.clone().with_trace(trace_context(k))).collect()
                } else {
                    windows[w].clone()
                };
                phase.attempted += 1;
                let began = slices.begin();
                let t = Instant::now();
                let result = deployment.client.pipeline(&window);
                let us = t.elapsed().as_secs_f64() * 1e6;
                match result {
                    Ok(responses) if responses.as_slice() == answers[w] => {
                        phase.latencies_us.push(us);
                        slices.record(began, us);
                        if traced {
                            phase.timings.push(
                                deployment
                                    .client
                                    .last_server_timing()
                                    .expect("traced frames echo timing"),
                            );
                        }
                        let mut bytes = (0, 0);
                        for (request, response) in windows[w].iter().zip(&responses) {
                            wire_id += 1;
                            bytes.0 += encode(&request.clone().with_id(wire_id)).len();
                            bytes.1 += response_bytes(wire_id, response);
                        }
                        phase.wire_bytes.push(bytes);
                    }
                    _ => phase.failed += 1,
                }
            }
        }
        Kind::Cold => {
            while started.elapsed().as_secs_f64() < seconds && *cursor < deployment.stream.len() {
                let position = *cursor;
                *cursor += 1;
                let k = phase.latencies_us.len();
                let mut request = deployment.stream[position].request.clone();
                if traced {
                    request = request.with_trace(trace_context(k));
                }
                phase.attempted += 1;
                let began = slices.begin();
                let t = Instant::now();
                let result = deployment.client.request(&request);
                let us = t.elapsed().as_secs_f64() * 1e6;
                match result {
                    Ok(response) => {
                        phase.latencies_us.push(us);
                        slices.record(began, us);
                        if traced {
                            phase.timings.push(
                                deployment
                                    .client
                                    .last_server_timing()
                                    .expect("traced frames echo timing"),
                            );
                        }
                        wire_id += 1;
                        let plain = deployment.stream[position].request.clone().with_id(wire_id);
                        phase
                            .wire_bytes
                            .push((encode(&plain).len(), response_bytes(wire_id, &response)));
                        phase.answered.push((position, Some(response)));
                    }
                    Err(_) => {
                        phase.failed += 1;
                        phase.answered.push((position, None));
                    }
                }
            }
        }
    }
    phase.timing = slices.finish();
    let after = deployment.client.cache_stats().expect("cache stats");
    phase.cache = Some((before, after));
    phase
}

/// Checks cold answers against the oracle, outside the timed section; returns how many ops were wrong (errors were already counted).
pub fn check_answers(deployment: &Deployment, phase: &Phase, oracle: &mut Oracle<'_>) -> u64 {
    let mut wrong = 0;
    for (position, answer) in &phase.answered {
        if let Some(answer) = answer {
            if *answer != oracle.answer(&deployment.stream[*position]) {
                wrong += 1;
            }
        }
    }
    wrong
}

/// The residency guard. `reach_warm`: the timed phase must neither miss
/// nor insert in either namespace (an eviction needs an insertion, and an
/// insertion needs a miss). `reach_cold`: it must never hit, nor resume a
/// cached sweep prefix.
pub fn residency_guard(kind: Kind, phase: &Phase) -> Result<(), String> {
    let Some((before, after)) = phase.cache else { return Ok(()) };
    let delta = |f: fn(&CacheStats) -> u64| f(&after) - f(&before);
    match kind {
        Kind::Warm => {
            let changes = [
                ("misses", delta(|s| s.misses)),
                ("insertions", delta(|s| s.insertions)),
                ("evictions", delta(|s| s.evictions)),
                ("prefix_misses", delta(|s| s.prefix_misses)),
                ("prefix_extensions", delta(|s| s.prefix_extensions)),
            ];
            if let Some((name, n)) = changes.iter().find(|(_, n)| *n > 0) {
                return Err(format!(
                    "reach_warm working set is not resident: {n} {name} in the timed phase"
                ));
            }
            if after.prefix_entries != before.prefix_entries || after.entries != before.entries {
                return Err("reach_warm cache residency changed in the timed phase".into());
            }
        }
        Kind::Cold => {
            let hits = [
                ("hits", delta(|s| s.hits)),
                ("prefix_hits", delta(|s| s.prefix_hits)),
                ("prefix_extensions", delta(|s| s.prefix_extensions)),
            ];
            if let Some((name, n)) = hits.iter().find(|(_, n)| *n > 0) {
                return Err(format!("reach_cold stream reused the cache: {n} {name}"));
            }
        }
    }
    Ok(())
}

/// Median per-call nanoseconds of `call` over `items`, repeated.
fn per_call_ns<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let reps: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                call(item);
            }
            t.elapsed().as_secs_f64() * 1e9 / items.len() as f64
        })
        .collect();
    median(&reps).unwrap_or(0.0)
}

/// In-process timings of the engine and index over the requests a run
/// issued, valid for any workload's world. The probe index grows by every
/// sampled request among them, so it ends as large as the server's.
pub fn engine_and_index_probe(world: &World, sample: &[StreamRequest]) -> Vec<(&'static str, f64)> {
    let sampled: Vec<&StreamRequest> =
        sample.iter().filter(|r| r.class == Class::Sampled).collect();
    let engine = world.reach_engine();
    let time_us = |class: Class, limit: usize, f: &dyn Fn(&StreamRequest)| -> f64 {
        let samples: Vec<f64> = sample
            .iter()
            .filter(|r| r.class == class)
            .take(limit)
            .map(|r| {
                let t = Instant::now();
                f(r);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples).unwrap_or(0.0)
    };
    let scalar_us = time_us(Class::Scalar, 64, &|r| {
        black_box(engine.conjunction_reach_in(&r.canonical_ids(), r.filter));
    });
    let nested_us = time_us(Class::Nested, 16, &|r| {
        black_box(engine.nested_reaches_in(&r.ids(), r.filter));
    });
    let mut index = ReachIndex::build_for(world, &[]);
    let mut extend_us = Vec::new();
    for request in &sampled {
        let before = index.built_interests();
        let t = Instant::now();
        index.extend_for(world, &request.canonical_ids());
        let us = t.elapsed().as_secs_f64() * 1e6;
        if index.built_interests() > before {
            extend_us.push(us);
        }
    }
    let keys: Vec<(Vec<InterestId>, _)> =
        sampled.iter().take(PROBE_SAMPLE).map(|r| (r.canonical_ids(), r.filter)).collect();
    let sampled_ns = per_call_ns(&keys, |(ids, filter)| {
        black_box(index.conjunction_count(ids, *filter));
    });
    vec![
        ("engine.scalar_us", scalar_us),
        ("engine.nested_us", nested_us),
        ("index.extend_us", median(&extend_us).unwrap_or(0.0)),
        ("index.sampled_ns", sampled_ns),
        ("index.heap_bytes", index.heap_bytes() as f64),
    ]
}

/// In-process timings of the wire codec over the workload's own frames
/// and of the cache's hit path over its scalar keys.
pub fn proto_and_cache_probe(
    sample: &[StreamRequest],
    oracle: &mut Oracle<'_>,
) -> Vec<(&'static str, f64)> {
    let sample = &sample[..sample.len().min(PROBE_SAMPLE)];
    let responses: Vec<ReachResponse> = sample.iter().map(|r| oracle.answer(r)).collect();
    let request_frames: Vec<Vec<u8>> = sample
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let mut frame = encode(&r.request.clone().with_id(k as u64 + 1));
            frame.pop();
            frame
        })
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let mut frame = encode_response_frame(Some(k as u64 + 1), None, r);
            frame.pop();
            frame
        })
        .collect();
    let decode_request_ns = per_call_ns(&request_frames, |f| {
        black_box(decode::<ReachRequest>(f).expect("own frames decode"));
    });
    let numbered: Vec<(u64, &ReachResponse)> = (1..).zip(&responses).collect();
    let encode_response_ns = per_call_ns(&numbered, |(id, r)| {
        black_box(encode_response_frame(Some(*id), None, r));
    });
    let decode_response_ns = per_call_ns(&response_frames, |f| {
        black_box(decode_response_frame(f).expect("own frames decode"));
    });
    let cache = ReachCache::new(cache_config());
    let keys: Vec<(Vec<InterestId>, _)> = sample
        .iter()
        .filter(|r| r.class == Class::Scalar)
        .map(|r| (r.canonical_ids(), r.filter))
        .collect();
    for (ids, filter) in &keys {
        cache.reach(ids, *filter, None, || 1.0);
    }
    let lookup_ns = per_call_ns(&keys, |(ids, filter)| {
        black_box(cache.reach(ids, *filter, None, || unreachable!("resident key")));
    });
    vec![
        ("proto.decode_request_ns", decode_request_ns),
        ("proto.encode_response_ns", encode_response_ns),
        ("proto.decode_response_ns", decode_response_ns),
        ("cache.lookup_ns", lookup_ns),
    ]
}

/// Median latency per request class, from per-request latencies.
pub fn class_p50(latencies: &[(Class, f64)]) -> Vec<(&'static str, f64)> {
    let of = |class: Class| {
        let samples: Vec<f64> =
            latencies.iter().filter(|(c, _)| *c == class).map(|&(_, us)| us).collect();
        median(&samples).unwrap_or(0.0)
    };
    vec![
        ("class.scalar_p50_us", of(Class::Scalar)),
        ("class.nested_p50_us", of(Class::Nested)),
        ("class.sampled_p50_us", of(Class::Sampled)),
    ]
}

/// One request at a time over the warm working set, for per-class
/// latencies of a workload whose ops are mixed windows.
pub fn warm_class_latencies(deployment: &mut Deployment, passes: usize) -> Vec<(Class, f64)> {
    let mut out = Vec::new();
    for _ in 0..passes {
        for k in 0..deployment.stream.len() {
            let request = deployment.stream[k].request.clone();
            let t = Instant::now();
            let response = deployment.client.request(&request).expect("warm request");
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(response, deployment.warm_answers[k], "warm answers are stable");
            out.push((deployment.stream[k].class, us));
        }
    }
    out
}

/// Server-side and wire metrics of a traced phase, as medians over ops.
///
/// The client keeps the echo of each op's last frame. For a single request
/// that is the request itself, and `wire.transport_us` (op wall time minus
/// the frame's queue and handler time) is the client and socket share. For
/// a pipelined window it is the last frame's, which the server reads after
/// the rest; the transport figure then also holds the server's work on
/// earlier frames that did not overlap the client's.
pub fn server_metrics(phase: &Phase) -> Vec<(&'static str, f64)> {
    let us = |ns: u64| ns as f64 / 1e3;
    let queue: Vec<f64> = phase.timings.iter().map(|t| us(t.queue_ns)).collect();
    let handler: Vec<f64> = phase.timings.iter().map(|t| us(t.handler_ns)).collect();
    let engine: Vec<f64> = phase.timings.iter().map(|t| us(t.engine_ns)).collect();
    let transport: Vec<f64> = phase
        .latencies_us
        .iter()
        .zip(&phase.timings)
        .map(|(wall, t)| wall - us(t.queue_ns) - us(t.handler_ns))
        .collect();
    let req_bytes: Vec<f64> = phase.wire_bytes.iter().map(|b| b.0 as f64).collect();
    let resp_bytes: Vec<f64> = phase.wire_bytes.iter().map(|b| b.1 as f64).collect();
    vec![
        ("server.queue_us", median(&queue).unwrap_or(0.0)),
        ("server.handler_us", median(&handler).unwrap_or(0.0)),
        ("server.engine_us", median(&engine).unwrap_or(0.0)),
        ("wire.transport_us", median(&transport).unwrap_or(0.0)),
        ("wire.request_bytes", median(&req_bytes).unwrap_or(0.0)),
        ("wire.response_bytes", median(&resp_bytes).unwrap_or(0.0)),
    ]
}

/// Cache counters over a phase. `CacheStats` counts evictions of the
/// conjunction namespace only; the prefix namespace's follow from its
/// counters, since every prefix miss inserts one entry (the world never
/// changes epoch here): evictions = misses − growth in resident entries.
pub fn cache_metrics(phase: &Phase) -> Vec<(&'static str, f64)> {
    let Some((before, after)) = phase.cache else {
        return Vec::new();
    };
    let d = |f: fn(&CacheStats) -> u64| (f(&after) - f(&before)) as f64;
    vec![
        ("cache.hit_ratio", ratio(d(|s| s.hits), d(|s| s.hits) + d(|s| s.misses))),
        (
            "cache.prefix_hit_ratio",
            ratio(d(|s| s.prefix_hits), d(|s| s.prefix_hits) + d(|s| s.prefix_misses)),
        ),
        ("cache.insertions", d(|s| s.insertions)),
        ("cache.evictions", d(|s| s.evictions)),
        (
            "cache.prefix_evictions",
            d(|s| s.prefix_misses) - (after.prefix_entries as f64 - before.prefix_entries as f64),
        ),
        ("cache.single_flight_waits", d(|s| s.single_flight_waits)),
    ]
}

/// Router metrics from a router over [`SHARDS`] shard backends started on
/// `world` for the probe: each request once through the router, checked
/// against the single-node oracle, and once straight to every backend as
/// shard partials. Returns the metrics and the number of routed answers
/// that differed from the oracle's.
pub fn router_probe(
    world: &Arc<World>,
    requests: &[StreamRequest],
    oracle: &mut Oracle<'_>,
) -> (Vec<(&'static str, f64)>, u64) {
    let mut backends: Vec<ReachServer> = (0..SHARDS)
        .map(|index| {
            let spec = ShardSpec { index, count: SHARDS };
            ReachServer::start(Arc::clone(world), server_config(Some(spec))).expect("bind backend")
        })
        .collect();
    let mut router = ReachRouter::start(
        Arc::clone(world),
        backends.iter().map(ReachServer::addr).collect(),
        RouterConfig {
            rate_limit: unthrottled(),
            telemetry: Some(TelemetryConfig::disabled()),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let mut routed = ReachClient::connect(router.addr()).expect("connect router");
    let mut direct: Vec<ReachClient> =
        backends.iter().map(|b| ReachClient::connect(b.addr()).expect("connect backend")).collect();
    let (mut hop_us, mut overhead_us, mut bytes, mut wrong) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for request in requests.iter().take(PROBE_SAMPLE) {
        let t = Instant::now();
        let answer = routed.request(&request.request);
        let routed_us = t.elapsed().as_secs_f64() * 1e6;
        if answer.ok() != Some(oracle.answer(request)) {
            wrong += 1;
        }
        let mut slowest = 0.0f64;
        for (k, backend) in direct.iter_mut().enumerate() {
            let t = Instant::now();
            let partials = backend.shard_partials(&request.request).expect("shard partials");
            let us = t.elapsed().as_secs_f64() * 1e6;
            hop_us.push(us);
            slowest = slowest.max(us);
            if k == 0 {
                let response = ReachResponse::ShardPartials {
                    generation: partials.generation,
                    chunks: partials.chunks,
                    values: partials.values,
                };
                bytes.push(encode(&response).len() as f64);
            }
        }
        overhead_us.push(routed_us - slowest);
    }
    drop((routed, direct));
    router.shutdown();
    for backend in &mut backends {
        backend.shutdown();
    }
    let metrics = vec![
        ("router.shard_partials_us", median(&hop_us).unwrap_or(0.0)),
        ("router.overhead_us", median(&overhead_us).unwrap_or(0.0)),
        ("router.partials_bytes", median(&bytes).unwrap_or(0.0)),
    ];
    (metrics, wrong)
}

/// Per-class latencies of a cold phase.
pub fn phase_class_latencies(deployment: &Deployment, phase: &Phase) -> Vec<(Class, f64)> {
    let mut latency = phase.latencies_us.iter();
    phase
        .answered
        .iter()
        .filter(|(_, answer)| answer.is_some())
        .map(|(position, _)| {
            (deployment.stream[*position].class, *latency.next().expect("one latency per answer"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CacheStats {
        CacheStats {
            enabled: true,
            epoch: 1,
            shards: 8,
            capacity: 4096,
            entries: 120,
            hits: 500,
            misses: 120,
            single_flight_waits: 0,
            insertions: 120,
            evictions: 0,
            invalidations: 0,
            prefix_entries: 50,
            prefix_hits: 200,
            prefix_misses: 50,
            prefix_extensions: 0,
        }
    }

    fn phase(before: CacheStats, after: CacheStats) -> Phase {
        Phase { cache: Some((before, after)), ..Phase::default() }
    }

    #[test]
    fn warm_guard_refuses_any_miss_or_residency_change() {
        let before = stats();
        let hits_only = CacheStats { hits: 900, prefix_hits: 400, ..before };
        assert!(residency_guard(Kind::Warm, &phase(before, hits_only)).is_ok());
        let prefix_miss = CacheStats { prefix_misses: 51, prefix_entries: 50, ..hits_only };
        assert!(residency_guard(Kind::Warm, &phase(before, prefix_miss)).is_err());
        let evicted = CacheStats { misses: 121, insertions: 121, evictions: 1, ..hits_only };
        assert!(residency_guard(Kind::Warm, &phase(before, evicted)).is_err());
    }

    #[test]
    fn cold_guard_refuses_any_hit() {
        let before = stats();
        let misses_only = CacheStats { misses: 900, insertions: 900, evictions: 30, ..before };
        assert!(residency_guard(Kind::Cold, &phase(before, misses_only)).is_ok());
        let hit = CacheStats { hits: 501, ..misses_only };
        assert!(residency_guard(Kind::Cold, &phase(before, hit)).is_err());
        let resumed = CacheStats { prefix_extensions: 1, ..misses_only };
        assert!(residency_guard(Kind::Cold, &phase(before, resumed)).is_err());
    }
}
