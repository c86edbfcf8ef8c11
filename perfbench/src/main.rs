//! End-to-end and per-layer benchmark of the iPrune reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <prune|intermittent|serve|serve-q15> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload sets itself up several times (`setup_s` sums each set-up
//! piece's fastest repetition), then times many operations for `--seconds`
//! and checks every output. `--trace 0` prints the end-to-end metrics; `--trace 1` splits the
//! time into an untraced half and a traced half, and prints the per-layer
//! metrics from the traced half plus the tracing overhead. The last line of
//! standard output is the JSON result; the lines before it say which
//! percentile the tail is, over how many samples, and the host canary.
//!
//! The benchmark reaches `core`, `models`, `tensor`, `hawaii`, `device` and
//! `serve` only through their public APIs, and times each layer from its own
//! spans around those calls.

mod intermittent;
mod prune;
mod serve;
mod trace;
mod util;

use iprune_obs::metrics::{self, Reading};
use iprune_tensor::par;
use std::collections::BTreeMap;
use std::path::Path;
use trace::Tracer;
use util::{median, Metric, SetupClock};

/// End-to-end metrics, printed by `--trace 0`, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, printed by `--trace 1`, with their units. A layer a
/// workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("core.iterations", "count"),
    ("core.sensitivity_ms", "ms"),
    ("core.sa_ms", "ms"),
    ("core.states_ms", "ms"),
    ("core.sensitivity_probes", "count"),
    ("core.accuracy", "ratio"),
    ("core.density", "ratio"),
    ("core.step_coverage", "ratio"),
    ("models.finetune_ms", "ms"),
    ("models.evaluate_ms", "ms"),
    ("models.infer_batch_ms", "ms"),
    ("models.q15_forward_ms", "ms"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_macs", "count"),
    ("tensor.sparse_skipped_share", "ratio"),
    ("tensor.par_parallel_share", "ratio"),
    ("tensor.weight_clones", "count"),
    ("hawaii.deploy_ms", "ms"),
    ("hawaii.infer_strong_ms", "ms"),
    ("hawaii.infer_weak_ms", "ms"),
    ("hawaii.ns_per_job", "ns"),
    ("hawaii.retries", "count"),
    ("device.latency_s", "s"),
    ("device.jobs", "count"),
    ("device.useful_job_share", "ratio"),
    ("device.power_cycles", "count"),
    ("device.recovery_share", "ratio"),
    ("serve.window_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.admitted_share", "ratio"),
    ("serve.degraded_share", "ratio"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.registry_hits", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("host.canary_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Each run repeats its set-up at least this many times, and for at least
/// [`SETUP_SECONDS`].
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

/// One timed operation: which of the workload's distinct operations it
/// repeats, and how long it took.
pub struct Op {
    pub kind: usize,
    pub ms: f64,
}

/// One timed section's results.
#[derive(Default)]
pub struct Phase {
    /// Every timed operation; for serving, every admitted request.
    pub ops: Vec<Op>,
    /// Operations verified (and, for serving, within the latency limit).
    pub good: u64,
    pub attempted: u64,
    /// Rejections and engine errors; verification mismatches are counted
    /// here too.
    pub failed: u64,
    /// Outputs that differ from their reference.
    pub mismatches: u64,
    /// Wall time of the timed section (s).
    pub elapsed_s: f64,
    /// Per-layer values the workload measured itself.
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form facts for the printout (checksums, exact counts).
    pub info: Vec<(&'static str, String)>,
}

/// A benchmark workload: fixed set-up, then timed sections.
pub trait Workload {
    /// Worker threads the workload pins.
    const THREADS: usize;
    /// Closed loops repeat a cycle of distinct operations and report each
    /// one's fastest repetition (see [`Latency::of`]); open loops report
    /// every operation.
    const CLOSED_LOOP: bool;
    /// Builds everything the timed section needs, timing its pieces on
    /// `clock`.
    fn setup(seed: u64, clock: &mut SetupClock) -> Self;
    /// Runs operations for `seconds`, recording spans into `tracer` when it
    /// is enabled. Counter deltas of the host metrics registry are taken
    /// around the timed loop only.
    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, counters: &mut CounterWindow) -> Phase;
}

/// Host metrics registry readings at the start and end of a timed loop.
#[derive(Default)]
pub struct CounterWindow {
    before: BTreeMap<String, (u64, u64)>,
    after: BTreeMap<String, (u64, u64)>,
}

fn readings() -> BTreeMap<String, (u64, u64)> {
    metrics::snapshot()
        .into_iter()
        .map(|(name, r)| {
            let v = match r {
                Reading::Counter(v) => (v, 0),
                Reading::Histogram { count, sum, .. } => (count, sum),
            };
            (name, v)
        })
        .collect()
}

impl CounterWindow {
    pub fn start(&mut self) {
        self.before = readings();
    }

    pub fn stop(&mut self) {
        self.after = readings();
    }

    /// Delta of a counter (or a histogram's sample count) and of a
    /// histogram's sample sum.
    fn delta(&self, name: &str) -> (u64, u64) {
        let b = self.before.get(name).copied().unwrap_or((0, 0));
        let a = self.after.get(name).copied().unwrap_or((0, 0));
        (a.0 - b.0, a.1 - b.1)
    }

    /// Per-operation host counter metrics of the `tensor`, `core` and
    /// `serve` layers.
    fn layer_metrics(&self, ops: u64, out: &mut BTreeMap<&'static str, f64>) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let (dense_calls, dense_macs) = self.delta("gemm.macs");
        let (sparse_calls, sparse_macs) = self.delta("gemm.sparse_macs");
        let skipped = self.delta("gemm.sparse_skipped_macs").0;
        let parallel = self.delta("par.regions_parallel").0;
        let serial = self.delta("par.regions_serial").0;
        out.insert("tensor.gemm_calls", per_op(dense_calls + sparse_calls));
        out.insert("tensor.gemm_macs", per_op(dense_macs + sparse_macs));
        let alive = dense_macs + sparse_macs;
        if alive + skipped > 0 {
            out.insert("tensor.sparse_skipped_share", skipped as f64 / (alive + skipped) as f64);
        }
        if parallel + serial > 0 {
            out.insert("tensor.par_parallel_share", parallel as f64 / (parallel + serial) as f64);
        }
        out.insert("tensor.weight_clones", per_op(self.delta("tensor.weight_clones").0));
        out.insert("core.sensitivity_probes", per_op(self.delta("sensitivity.probes").0));
        out.insert("serve.registry_hits", per_op(self.delta("serve.registry.hits").0));
    }
}

/// Latency and goodput of a timed section.
struct Latency {
    p50: f64,
    /// Percentile level of the tail and its value; `None` when there are
    /// too few samples for ten beyond the median.
    tail: Option<(f64, f64)>,
    /// Samples behind `p50` and `tail`.
    samples: usize,
    goodput: f64,
    /// Median of every timed operation, as measured.
    all_p50: f64,
}

impl Latency {
    /// Open loops: statistics over every operation of the section.
    ///
    /// Closed loops repeat a fixed cycle of distinct operations. Each
    /// distinct operation is represented by its fastest repetition, and the
    /// median and tail are taken over those; goodput is what one client
    /// completes per second at those latencies, scaled by the verified
    /// share. A closed loop's latency is pure host CPU time, and on a shared
    /// host the same code can run up to ~1.8x slower for seconds to minutes
    /// at a time (another tenant contending for the same physical core);
    /// the best of many repetitions measures the program rather than the
    /// neighbour. `all_p50` keeps the as-measured median beside it.
    fn of(phase: &Phase, closed_loop: bool) -> Self {
        let all: Vec<f64> = phase.ops.iter().map(|o| o.ms).collect();
        let all_p50 = median(&all);
        if !closed_loop {
            return Self {
                p50: all_p50,
                tail: util::tail(&all),
                samples: all.len(),
                goodput: phase.good as f64 / phase.elapsed_s.max(1e-9),
                all_p50,
            };
        }
        let mut reps: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for op in &phase.ops {
            reps.entry(op.kind).or_default().push(op.ms);
        }
        let best: Vec<f64> =
            reps.into_values().map(|v| v.into_iter().fold(f64::INFINITY, f64::min)).collect();
        let verified = phase.good as f64 / phase.attempted.max(1) as f64;
        Self {
            p50: median(&best),
            tail: util::tail(&best),
            samples: best.len(),
            goodput: verified * 1e3 / util::mean(&best).max(1e-9),
            all_p50,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    par::set_threads(W::THREADS);
    // Detect the core count once. Unpinned, every parallel region asks the
    // kernel again; under a sandboxed kernel those calls cost prune about a
    // quarter of its time and most of its run-to-run spread.
    par::set_host_cores(par::host_cores());
    let (mut w, setup) =
        util::repeated_setup(SETUP_REPEATS, SETUP_SECONDS, |clock| W::setup(args.seed, clock));

    let mut canary = vec![util::canary_ms()];
    let mut counters = CounterWindow::default();
    let mut untraced = Tracer::new(false);
    let secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let plain = w.phase(secs, &mut untraced, &mut counters);
    canary.push(util::canary_ms());
    let plain_mismatches = plain.mismatches;

    let (report, layer_phase, tracer) = if args.trace {
        let mut tracer = Tracer::new(true);
        let mut traced_counters = CounterWindow::default();
        let traced = w.phase(secs, &mut tracer, &mut traced_counters);
        canary.push(util::canary_ms());
        let mut layer = traced.layer.clone();
        traced_counters.layer_metrics(traced.attempted, &mut layer);
        layer.insert(
            "trace.overhead_ms",
            Latency::of(&traced, W::CLOSED_LOOP).p50 - Latency::of(&plain, W::CLOSED_LOOP).p50,
        );
        layer.insert("trace.spans", tracer.span_count() as f64);
        layer.insert("host.canary_ms", median(&canary));
        (traced, Some(layer), Some(tracer))
    } else {
        (plain, None, None)
    };
    let mismatches =
        if args.trace { plain_mismatches + report.mismatches } else { plain_mismatches };

    let lat = Latency::of(&report, W::CLOSED_LOOP);
    let (tail_level, tail_ms) = lat.tail.unwrap_or((50.0, lat.p50));
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", setup.best_s),
        ("peak_rss_mb", util::peak_rss_mb()),
        ("latency_p50_ms", lat.p50),
        ("latency_tail_ms", tail_ms),
        ("goodput_per_s", lat.goodput),
        ("success_ratio", 1.0 - fail_ratio),
    ]
    .into_iter()
    .collect();

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        W::THREADS
    );
    println!(
        "latency: {} samples{}, p50 {:.4} ms, tail p{} {:.4} ms ({} samples beyond){}",
        lat.samples,
        if W::CLOSED_LOOP { " (best repetition of each distinct operation)" } else { "" },
        lat.p50,
        tail_level,
        tail_ms,
        lat.samples - (lat.samples as f64 * tail_level / 100.0).ceil() as usize,
        if lat.tail.is_none() { " [too few samples: tail is the median]" } else { "" }
    );
    if W::CLOSED_LOOP {
        println!("as measured: {} operations, p50 {:.4} ms", report.ops.len(), lat.all_p50);
    }
    println!(
        "fail_ratio {fail_ratio} ({} failed of {} attempted, {} mismatches)",
        report.failed, report.attempted, report.mismatches
    );
    let mut info = format!(
        "info {{\"canary_ms\": {:?}, \"tail_level\": {:?}, \"samples\": {}, \"operations\": {}, \"measured_p50_ms\": {:?}, \"fail_ratio\": {:?}, \"setup_measured_s\": {:?}, \"setup_pieces\": {}, \"setup_repeats\": {}, \"setup_longest_piece_ms\": {:?}",
        median(&canary),
        tail_level,
        lat.samples,
        report.ops.len(),
        lat.all_p50,
        fail_ratio,
        setup.measured_s,
        setup.pieces,
        setup.repeats,
        setup.longest_ms
    );
    for (k, v) in &report.info {
        info.push_str(&format!(", \"{k}\": {v}"));
    }
    info.push('}');
    println!("{info}");

    let metrics: Vec<Metric> = match &layer_phase {
        None => {
            END_TO_END.iter().map(|&(name, unit)| Metric { name, value: e2e[name], unit }).collect()
        }
        Some(layer) => {
            for name in layer.keys() {
                assert!(PER_LAYER.iter().any(|(n, _)| n == name), "undeclared metric {name}");
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: layer.get(name).copied().unwrap_or(0.0),
                    unit,
                })
                .collect()
        }
    };
    if let Some(tracer) = &tracer {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", tracer.span_count(), path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        mismatches == 0,
        report.attempted,
        report.failed,
        util::metrics_json(&metrics)
    );
    if mismatches == 0 {
        Ok(())
    } else {
        Err("verification mismatch".into())
    }
}

fn main() {
    // The benchmark measures the default execution path: no environment
    // override of thread or core count, kernel dispatch, evaluation engine or
    // checkpoint cache may leak in.
    for var in [
        "IPRUNE_THREADS",
        "IPRUNE_HOST_CORES",
        "IPRUNE_SIMD",
        "IPRUNE_EVAL",
        "IPRUNE_CACHE_DIR",
        "IPRUNE_LOG",
    ] {
        std::env::remove_var(var);
    }
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "prune" => run::<prune::Prune>(&args),
        "intermittent" => run::<intermittent::Intermittent>(&args),
        "serve" => run::<serve::Serve<false>>(&args),
        "serve-q15" => run::<serve::Serve<true>>(&args),
        other => Err(format!("unknown workload {other}")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
