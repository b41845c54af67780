//! The repository's benchmark: the paper pipeline and the reach service,
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in one process as a closed loop with one client
//! thread (and, for the reach workloads, one client connection): the next
//! op starts only when the previous one returned.
//!
//! * `paper_pipeline` — one op is a full researcher run on a test-scale
//!   world: cohort, LP and R audience vectors, Table 1 with bootstrap,
//!   the 21-campaign experiment, and the §8.3 policies. The paper's own
//!   path; no sockets, no cache.
//! * `reach_cold` — a stream in which no canonical conjunction or sweep
//!   repeats, one request at a time against one server on a medium world.
//!   The engine and index do the work; the cache only misses, inserts and
//!   evicts. Aborts on any cache hit.
//! * `reach_warm` — a working set that fits both cache namespaces shard by
//!   shard, replayed after a warm-up pass; one op is one pipelined window.
//!   The wire, the server loop and cache hits do the work. Aborts unless
//!   the timed phase has no miss, insertion or eviction.
//!
//! End-to-end timings are exact order statistics over the raw per-op
//! latencies, never histogram bucket edges, taken over the kept ops: p50
//! over all of them, p99 as the median over half-second slices of each
//! slice's own p99 (over all kept ops when no slice holds ten, as for the
//! pipeline), and throughput as the median over slices of ops per second
//! of op time. On a shared virtual machine the hypervisor steals CPU, in
//! bursts when the host is calm and on every busy stretch when it is
//! crowded. The steal counters are read at both ends of every op; an op
//! is kept when less than 1% of the machine's CPU time was stolen from
//! 10 ms before it to 10 ms after it (the counters tick in 10 ms and lag),
//! and when fewer than a quarter of the ops are that clean, the
//! least-stolen quarter is kept. The slice medians keep a slow spell the
//! counters miss, which a few slices see, from owning the tail. The
//! manifest records the ops kept and the steal share of the whole phase.
//!
//! There is no routed workload: on a shared two-core host its timings
//! spread past every usable bound. The traced `reach_cold` run measures the
//! router layer instead, through a router over two shard backends started
//! on the same world.
//!
//! With `--trace 0` the last line of standard output holds the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics, taken by
//! timing calls into each crate's public functions from this benchmark's
//! own code. The traced run splits `--seconds` into an untraced and a
//! traced half and reports the difference as its overhead. A per-layer
//! metric a workload does not exercise reads 0. The line before the
//! metrics is a manifest: code identity, machine and its steal time, seed,
//! and the workload constants.
//!
//! Every answer is checked: pipeline ops against the first op bit for bit,
//! reach answers against an in-process single-node oracle outside the
//! timed section. A wrong answer is a failed op and makes the run exit
//! non-zero.

mod pipeline;
mod reach;
mod stats;
mod streams;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fbsim_adplatform::analyze::SpecAnalyzer;
use fbsim_fdvt::dataset::CohortConfig;
use fbsim_fdvt::FdvtDataset;

use crate::reach::{Deployment, Kind, Oracle, Phase};
use crate::stats::{median, percentile, ratio, Slices, Timing};

/// Seed of the simulated platform every workload runs against: the
/// repository's default master seed. The world is the system under test;
/// `--seed` drives the workload's own inputs (cohort, targets, bootstrap
/// and experiment seeds, request streams), so runs with different seeds
/// measure the same system on different inputs.
pub const WORLD_SEED: u64 = 2021;

/// The workloads, in run order for `--workload all`.
const WORKLOADS: [&str; 3] = ["paper_pipeline", "reach_cold", "reach_warm"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Each group notes the
/// end-to-end metrics and workload it should move.
const PER_LAYER: [(&str, &str); 48] = [
    // fbsim-population: world generation → `setup_s` everywhere; the engine
    // → `reach_cold` latency and `paper_pipeline` throughput; the index →
    // `reach_cold` p99 and `peak_rss_mb`. Timed in-process on requests
    // shaped like the cold stream, for every workload's world.
    ("population.world_generate_s", "s"),
    ("engine.scalar_us", "us"),
    ("engine.nested_us", "us"),
    ("index.extend_us", "us"),
    ("index.sampled_ns", "ns"),
    ("index.heap_bytes", "bytes"),
    // The pipeline's steps, each also as a share of the op →
    // `paper_pipeline` throughput and p50; the reach workloads should not
    // move. The NpTable step is about 2% of the op: even a 2x gain there
    // stays inside the end-to-end bound.
    ("pipeline.op_s", "s"),
    ("fdvt.cohort_s", "s"),
    ("uniqueness.vectors_lp_s", "s"),
    ("uniqueness.vectors_r_s", "s"),
    ("uniqueness.np_table_s", "s"),
    ("nanotarget.experiment_s", "s"),
    ("nanotarget.policies_s", "s"),
    ("share.fdvt.cohort", "ratio"),
    ("share.uniqueness.vectors_lp", "ratio"),
    ("share.uniqueness.vectors_r", "ratio"),
    ("share.uniqueness.np_table", "ratio"),
    ("share.nanotarget.experiment", "ratio"),
    ("share.nanotarget.policies", "ratio"),
    ("share.sum", "ratio"),
    // fbsim-adplatform inside the policy step: one analyzer build, and the
    // marginals computed against those the 21 specs use (a waste ratio).
    ("adplatform.spec_analyzer_s", "s"),
    ("adplatform.marginals_computed", "count"),
    ("adplatform.marginals_used", "count"),
    ("policies.statically_decided_ratio", "ratio"),
    // reach-api wire codec and client/server split → `reach_warm`
    // throughput and p50; `reach_cold` should not move.
    ("proto.decode_request_ns", "ns"),
    ("proto.encode_response_ns", "ns"),
    ("proto.decode_response_ns", "ns"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("server.queue_us", "us"),
    ("server.handler_us", "us"),
    ("server.engine_us", "us"),
    ("wire.transport_us", "us"),
    // reach-cache: the hit path → `reach_warm`; insertions and evictions →
    // `reach_cold`.
    ("cache.lookup_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.prefix_hit_ratio", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.prefix_evictions", "count"),
    ("cache.single_flight_waits", "count"),
    // reach-api router, probed in the traced `reach_cold` run; no workload's
    // end-to-end metrics run through it.
    ("router.shard_partials_us", "us"),
    ("router.overhead_us", "us"),
    ("router.partials_bytes", "bytes"),
    // Per-class request latency of the reach workloads, which shows a
    // bimodal mix; and the traced run's own cost.
    ("class.scalar_p50_us", "us"),
    ("class.nested_p50_us", "us"),
    ("class.sampled_p50_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.samples", "count"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const PIPELINE_SETUPS: usize = 5;
const REACH_SETUPS: usize = 3;
/// Tolerance on the traced pipeline phases summing to the op wall time.
const SHARE_SUM_TOLERANCE: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace })
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Extra manifest entries, pre-rendered as JSON values.
    manifest: Vec<(&'static str, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = match args.workload.as_str() {
        "paper_pipeline" => run_pipeline(&args),
        "reach_cold" => run_reach(Kind::Cold, &args),
        _ => run_reach(Kind::Warm, &args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} aborted: {message}", args.workload);
            return ExitCode::from(3);
        }
    };
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &outcome.metrics {
        assert!(listed.iter().any(|(n, _)| n == name), "metric {name} is not declared");
    }
    let correct = outcome.failed == 0;
    println!("{}", manifest(&args, &outcome.manifest));
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (k, (name, unit)) in listed.iter().enumerate() {
        let value = outcome.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v);
        assert!(value.is_finite(), "metric {name} is not finite");
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in its own child process, one after another,
/// forwarding their output; fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) if status.success() => {}
            other => {
                eprintln!("perfbench: {workload} failed: {other:?}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The manifest line: what produced the numbers.
fn manifest(args: &Args, extra: &[(&str, String)]) -> String {
    let threads = std::env::var("UOF_THREADS").map_or("null".to_string(), |t| format!("\"{t}\""));
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\"manifest\": {{\"git_sha\": \"{}\", \"source_fnv64\": \"{:016x}\", \
         \"available_parallelism\": {parallelism}, \"uof_threads\": {threads}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        git_sha(),
        source_hash(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    );
    for (key, value) in extra {
        let _ = write!(out, ", \"{key}\": {value}");
    }
    out.push_str("}}");
    out
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git`.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unavailable".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unavailable".into())
}

/// FNV-1a over the paths and bytes of every source file the benchmark
/// builds from, so a result identifies its code even without git.
fn source_hash() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// How the machine behaved around a timed phase: the share of CPU time
/// the hypervisor stole and the host-speed gauge before and after. Both
/// go into the manifest, to tell host drift from code drift.
struct HostState {
    ticks: Option<(u64, u64)>,
    loop_ns: [f64; 2],
    steal: f64,
}

impl HostState {
    fn before() -> Self {
        let loop_ns = [stats::host_loop_ns(), 0.0];
        Self { ticks: stats::cpu_ticks(), loop_ns, steal: 0.0 }
    }

    fn after(mut self) -> Self {
        self.steal = stats::steal_share(self.ticks, stats::cpu_ticks());
        self.loop_ns[1] = stats::host_loop_ns();
        self
    }

    fn entries(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cpu_steal_share", self.steal.to_string()),
            ("host_loop_ns_before_after", json_list(&self.loop_ns)),
        ]
    }
}

fn json_list<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(", "))
}

/// The end-to-end timing metrics of a timed phase, over its kept ops (see
/// [`stats::Slices`]).
fn timing_metrics(timing: &Timing) -> Vec<(&'static str, f64)> {
    vec![
        ("throughput_ops", timing.throughput()),
        ("latency_p50_us", percentile(&timing.latencies_us, 0.5).unwrap_or(0.0)),
        ("latency_p99_us", timing.tail_p99()),
        ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0)),
    ]
}

/// Manifest entries of a timed phase's steal filter and slicing.
fn timing_manifest(timing: &Timing) -> Vec<(&'static str, String)> {
    vec![
        ("ops_kept_total", json_list(&[timing.ops_kept, timing.ops_total])),
        ("p99_slices", timing.slice_p99s_us.len().to_string()),
        ("steal_clean_max", stats::STEAL_CLEAN.to_string()),
        ("steal_pad_s", stats::STEAL_PAD_S.to_string()),
    ]
}

// ------------------------------------------------------------ paper_pipeline

/// Per-op results of the pipeline's timed loop.
#[derive(Default)]
struct PipelineRun {
    latencies_us: Vec<f64>,
    timing: Timing,
    phases: Vec<pipeline::Phases>,
    attempted: u64,
    failed: u64,
    last: Option<pipeline::OpOutput>,
}

/// Runs pipeline ops for `seconds`, checking each against the reference
/// (taken from the first good op when `reference` is empty).
fn pipeline_ops(
    input: &pipeline::PipelineWorld,
    seconds: f64,
    reference: &mut Option<(pipeline::Fingerprint, pipeline::Masks)>,
    run: &mut PipelineRun,
) {
    let mut slices = Slices::start();
    let started = Instant::now();
    while run.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        run.attempted += 1;
        let began = slices.begin();
        let t = Instant::now();
        let result = pipeline::run_op(input);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let checked = result.and_then(|output| {
            let masks = pipeline::masks(&input.world, &output.experiment);
            pipeline::check_policies(&output, &masks)?;
            let got = (pipeline::Fingerprint::of(&output), masks);
            match reference {
                Some(want) if *want != got => {
                    Err("op output differs from the first op's".to_string())
                }
                Some(_) => Ok(output),
                None => {
                    *reference = Some(got);
                    Ok(output)
                }
            }
        });
        match checked {
            Ok(output) => {
                run.latencies_us.push(us);
                slices.record(began, us);
                run.phases.push(output.phases);
                run.last = Some(output);
            }
            Err(message) => {
                eprintln!("perfbench: paper_pipeline op {} failed: {message}", run.attempted);
                run.failed += 1;
            }
        }
    }
    run.timing = slices.finish();
}

fn pipeline_manifest(samples: usize) -> Vec<(&'static str, String)> {
    vec![
        ("scale", "\"test\"".into()),
        ("samples", samples.to_string()),
        ("cohort_size", pipeline::COHORT_SIZE.to_string()),
        ("bootstrap_replicates", pipeline::REPLICATES.to_string()),
        ("targets", pipeline::TARGETS.to_string()),
        ("setups", PIPELINE_SETUPS.to_string()),
    ]
}

fn run_pipeline(args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds as f64;
    let mut reference = None;
    let mut run = PipelineRun::default();
    if !args.trace {
        let mut setups = Vec::new();
        let mut input = None;
        for _ in 0..PIPELINE_SETUPS {
            let t = Instant::now();
            input = Some(pipeline::PipelineWorld::build(args.seed));
            setups.push(t.elapsed().as_secs_f64());
        }
        let input = input.expect("at least one setup");
        let host = HostState::before();
        pipeline_ops(&input, seconds, &mut reference, &mut run);
        let host = host.after();
        let mut metrics = vec![("setup_s", median(&setups).unwrap_or(0.0))];
        metrics.extend(timing_metrics(&run.timing));
        return Ok(Outcome {
            attempted: run.attempted,
            failed: run.failed,
            metrics,
            manifest: [
                pipeline_manifest(run.latencies_us.len()),
                timing_manifest(&run.timing),
                host.entries(),
            ]
            .concat(),
        });
    }

    let input = pipeline::PipelineWorld::build(args.seed);
    let mut untraced = PipelineRun::default();
    pipeline_ops(&input, seconds / 2.0, &mut reference, &mut untraced);
    pipeline_ops(&input, seconds / 2.0, &mut reference, &mut run);
    let output = run.last.as_ref().ok_or("no traced pipeline op succeeded")?;
    let op_s = median(&run.latencies_us).unwrap_or(0.0) / 1e6;
    let mut metrics =
        vec![("population.world_generate_s", input.world_generate_s), ("pipeline.op_s", op_s)];
    // Phase medians over the traced ops, and their shares of the op.
    let op_seconds: Vec<f64> = run.latencies_us.iter().map(|us| us / 1e6).collect();
    for (k, (seconds_name, share_name, _)) in
        pipeline::Phases::default().named().into_iter().enumerate()
    {
        let samples: Vec<f64> = run.phases.iter().map(|p| p.named()[k].2).collect();
        let shares: Vec<f64> = samples.iter().zip(&op_seconds).map(|(s, op)| s / op).collect();
        metrics.push((seconds_name, median(&samples).unwrap_or(0.0)));
        metrics.push((share_name, median(&shares).unwrap_or(0.0)));
    }
    let sums: Vec<f64> = run
        .phases
        .iter()
        .zip(&op_seconds)
        .map(|(p, op)| p.named().iter().map(|(_, _, s)| s).sum::<f64>() / op)
        .collect();
    let sum = median(&sums).unwrap_or(0.0);
    if (sum - 1.0).abs() > SHARE_SUM_TOLERANCE {
        return Err(format!("traced phases cover {sum:.4} of the op wall time"));
    }
    metrics.push(("share.sum", sum));
    let t = Instant::now();
    let analyzer = SpecAnalyzer::from_engine(&input.world.reach_engine());
    metrics.push(("adplatform.spec_analyzer_s", t.elapsed().as_secs_f64()));
    std::hint::black_box(analyzer);
    // `evaluate_all` builds one analyzer per policy, each computing every
    // catalog marginal.
    let computed = output.policies.len() * input.world.catalog().len();
    metrics.push(("adplatform.marginals_computed", computed as f64));
    metrics
        .push(("adplatform.marginals_used", pipeline::marginals_used(&output.experiment) as f64));
    let decided: usize = output.policies.iter().map(|p| p.statically_decided).sum();
    let total: usize = output.policies.iter().map(|p| p.total).sum();
    metrics.push(("policies.statically_decided_ratio", ratio(decided as f64, total as f64)));
    let untraced_p50 = median(&untraced.latencies_us).unwrap_or(0.0);
    metrics.push((
        "trace.overhead_pct",
        (ratio(median(&run.latencies_us).unwrap_or(0.0), untraced_p50) - 1.0) * 100.0,
    ));
    metrics.push(("trace.samples", run.latencies_us.len() as f64));
    // The engine and index on cold-stream-shaped requests of this world.
    let cohort = FdvtDataset::generate(
        &input.world,
        CohortConfig {
            size: pipeline::COHORT_SIZE,
            seed: args.seed ^ 0xC0_0047,
            demographic_effects: true,
        },
    );
    let sample = streams::cold_stream(&input.world, &cohort, args.seed, 512);
    metrics.extend(reach::engine_and_index_probe(&input.world, &sample));
    Ok(Outcome {
        attempted: untraced.attempted + run.attempted,
        failed: untraced.failed + run.failed,
        metrics,
        manifest: pipeline_manifest(run.latencies_us.len()),
    })
}

// ------------------------------------------------------------ reach workloads

fn reach_manifest(
    kind: Kind,
    deployment: &Deployment,
    samples: usize,
    consumed: usize,
) -> Vec<(&'static str, String)> {
    let cache = reach::cache_config();
    let (conj_cap, prefix_cap) = streams::per_shard_capacity(&cache);
    let (conj_load, prefix_load) = streams::shard_loads(&deployment.stream, cache.shards);
    let counts = streams::class_counts(&deployment.stream);
    let mut out = vec![
        ("scale", "\"medium\"".into()),
        ("panel_size", reach::MEDIUM_PANEL.to_string()),
        ("samples", samples.to_string()),
        ("mix_per_20_scalar_nested_sampled", json_list(&streams::pattern_mix())),
        ("stream_requests", deployment.stream.len().to_string()),
        ("stream_class_counts", json_list(&counts)),
        (
            "cache_capacity_conjunction_prefix_shards",
            json_list(&[cache.capacity, cache.prefix_capacity, cache.shards]),
        ),
        ("cache_per_shard_capacity_conjunction_prefix", json_list(&[conj_cap, prefix_cap])),
        ("setups", REACH_SETUPS.to_string()),
    ];
    match kind {
        Kind::Warm => {
            out.push(("window_depth", reach::WINDOW.to_string()));
            out.push(("working_set_conjunction_per_shard", json_list(&conj_load)));
            out.push(("working_set_prefix_per_shard", json_list(&prefix_load)));
        }
        Kind::Cold => {
            out.push(("window_depth", "1".into()));
            out.push(("stream_consumed", consumed.to_string()));
            out.push(("stream_exhausted", (consumed == deployment.stream.len()).to_string()));
        }
    }
    out
}

/// Ops of a phase that must count as failed: for the cold stream, every
/// answer the oracle disagrees with; for `reach_warm`, every op, should any
/// warm-up answer (the reference each op is compared with) disagree.
fn wrong_ops(kind: Kind, deployment: &Deployment, phase: &Phase, oracle: &mut Oracle<'_>) -> u64 {
    match kind {
        Kind::Warm => {
            let reference_ok = deployment
                .stream
                .iter()
                .zip(&deployment.warm_answers)
                .all(|(request, answer)| *answer == oracle.answer(request));
            if reference_ok {
                0
            } else {
                phase.attempted - phase.failed
            }
        }
        Kind::Cold => reach::check_answers(deployment, phase, oracle),
    }
}

fn run_reach(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds as f64;
    let mut cursor = 0usize;
    if !args.trace {
        let mut setups = Vec::new();
        let mut deployment: Option<Deployment> = None;
        for _ in 0..REACH_SETUPS {
            if let Some(previous) = deployment.take() {
                previous.shutdown();
            }
            let t = Instant::now();
            deployment = Some(Deployment::start(kind, args.seed, args.seconds));
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut deployment = deployment.expect("at least one setup");
        let host = HostState::before();
        let phase = reach::timed_phase(kind, &mut deployment, &mut cursor, seconds, false);
        let host = host.after();
        let guard = reach::residency_guard(kind, &phase);
        let world = std::sync::Arc::clone(&deployment.world);
        let mut oracle = Oracle::new(&world);
        let wrong = wrong_ops(kind, &deployment, &phase, &mut oracle);
        let manifest = [
            reach_manifest(kind, &deployment, phase.latencies_us.len(), cursor),
            timing_manifest(&phase.timing),
            host.entries(),
        ]
        .concat();
        deployment.shutdown();
        guard?;
        let mut metrics = vec![("setup_s", median(&setups).unwrap_or(0.0))];
        metrics.extend(timing_metrics(&phase.timing));
        return Ok(Outcome {
            attempted: phase.attempted,
            failed: phase.failed + wrong,
            metrics,
            manifest,
        });
    }

    let mut deployment = Deployment::start(kind, args.seed, args.seconds);
    let untraced = reach::timed_phase(kind, &mut deployment, &mut cursor, seconds / 2.0, false);
    let traced = reach::timed_phase(kind, &mut deployment, &mut cursor, seconds / 2.0, true);
    let world = std::sync::Arc::clone(&deployment.world);
    let mut oracle = Oracle::new(&world);
    let wrong = wrong_ops(kind, &deployment, &untraced, &mut oracle)
        + wrong_ops(kind, &deployment, &traced, &mut oracle);
    let guard = reach::residency_guard(kind, &untraced).and(reach::residency_guard(kind, &traced));
    let mut metrics = vec![("population.world_generate_s", deployment.world_generate_s)];
    let untraced_p50 = median(&untraced.latencies_us).unwrap_or(0.0);
    let traced_p50 = median(&traced.latencies_us).unwrap_or(0.0);
    metrics.push(("trace.overhead_pct", (ratio(traced_p50, untraced_p50) - 1.0) * 100.0));
    metrics.push(("trace.samples", traced.latencies_us.len() as f64));
    metrics.extend(reach::server_metrics(&traced));
    metrics.extend(reach::cache_metrics(&traced));
    let consumed = match kind {
        Kind::Warm => &deployment.stream[..],
        Kind::Cold => &deployment.stream[..cursor],
    };
    metrics.extend(reach::engine_and_index_probe(&world, consumed));
    metrics.extend(reach::proto_and_cache_probe(consumed, &mut oracle));
    // The router rides on the cold stream: partials bypass every cache.
    let (mut probed, mut probe_wrong) = (0, 0);
    if kind == Kind::Cold {
        let (router_metrics, wrong) = reach::router_probe(&world, consumed, &mut oracle);
        metrics.extend(router_metrics);
        (probed, probe_wrong) = (consumed.len().min(reach::PROBE_SAMPLE) as u64, wrong);
    }
    let classes = match kind {
        Kind::Warm => reach::warm_class_latencies(&mut deployment, 3),
        Kind::Cold => reach::phase_class_latencies(&deployment, &untraced),
    };
    metrics.extend(reach::class_p50(&classes));
    let manifest = reach_manifest(kind, &deployment, traced.latencies_us.len(), cursor);
    deployment.shutdown();
    guard?;
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted + probed,
        failed: untraced.failed + traced.failed + wrong + probe_wrong,
        metrics,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declared metrics are the ones it prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{workload}\"")), "{workload} not declared");
        }
    }
}
