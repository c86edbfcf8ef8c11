//! `serve` and `serve-q15`: open-loop serving at two workers.
//!
//! Requests arrive as a Poisson process at a fixed rate, drawn from the
//! serving bench's catalog with deadline budgets, so some are degraded and
//! some rejected. Arrivals are cut into fixed windows by due time; each
//! window goes to `Server::run` (batched) when it falls due. Latency runs
//! from a request's due time to the return of its window's call. The
//! schedule and every window's contents depend only on the seed, so
//! admission outcomes repeat exactly even when the generator runs late.
//!
//! `serve-q15` runs the same schedule through `ServeConfig { q15: true }`:
//! the same admission and batching layer over the per-sample Q15 engine.
//!
//! Every served logit row must equal, bit for bit, a solo `Model::infer`
//! (or `forward_q15`) of the serving variant on the same input, computed in
//! set-up.

use crate::trace::Tracer;
use crate::util::{fnv1a, mean, median, mix, ms, same_bits, Rng, SetupClock};
use crate::{CounterWindow, Op, Phase, Workload};
use iprune_device::PowerStrength;
use iprune_models::zoo::App;
use iprune_serve::{
    DeviceProfile, ModelRegistry, Outcome, RegistryConfig, Request, ServeConfig, Server, VariantKey,
};
use iprune_tensor::exec::ExecCtx;
use iprune_tensor::par;
use iprune_tensor::Tensor;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inputs per app in the request pool.
const POOL: usize = 64;
/// Arrival windows (ms): a window's requests are served together when the
/// window closes.
const WINDOW_MS: f64 = 10.0;
/// Rounds of the per-layer kernel probes in the traced half.
const PROBE_ROUNDS: usize = 20;
/// Calibration samples of each variant's Q15 tables. A registry load is one
/// set-up piece; at the default eight samples the largest loads took over
/// 100 ms each, long enough that a busy host slowed every repetition of
/// them and `setup_s` spread by a third between runs. Two samples, as the
/// other workloads deploy with, give the same tables' shapes and kernels.
const CALIBRATION: usize = 2;

/// Offered rate (requests/s) and latency limit (ms) of each engine: about
/// half the two-worker capacity, and a limit a few windows long.
fn rate_and_limit(q15: bool) -> (f64, f64) {
    if q15 {
        (900.0, 60.0)
    } else {
        (1600.0, 40.0)
    }
}

/// The serving bench's catalog: every app at nominal strong/weak power,
/// plus HAR strong on the other hardware profiles.
fn catalog() -> Vec<VariantKey> {
    let mut keys = Vec::new();
    for app in App::all() {
        keys.push(VariantKey::new(app, DeviceProfile::Nominal, PowerStrength::Strong));
        keys.push(VariantKey::new(app, DeviceProfile::Nominal, PowerStrength::Weak));
    }
    for profile in [DeviceProfile::SmallCap, DeviceProfile::BigCap, DeviceProfile::SlowFram] {
        keys.push(VariantKey::new(App::Har, profile, PowerStrength::Strong));
    }
    keys
}

fn app_index(app: App) -> usize {
    App::all().iter().position(|&a| a == app).expect("known app")
}

/// One scheduled arrival.
struct Arrival {
    due_ns: u64,
    key: VariantKey,
    input: usize,
    budget: u64,
}

pub struct Serve<const Q15: bool> {
    seed: u64,
    registry: Arc<ModelRegistry>,
    /// Request inputs per app, in [`App::all`] order.
    pools: Vec<Vec<Tensor>>,
    /// Solo-inference logits per (variant, pool input).
    references: HashMap<VariantKey, Vec<Vec<f32>>>,
    costs: HashMap<VariantKey, u64>,
}

impl<const Q15: bool> Serve<Q15> {
    /// The Poisson arrival schedule for `seconds`, a pure function of the
    /// seed.
    fn schedule(&self, seconds: f64) -> Vec<Arrival> {
        let (rate, _) = rate_and_limit(Q15);
        let keys = catalog();
        let mut rng = Rng::new(self.seed ^ 0x5E_4F11);
        let mut t = 0.0f64;
        let mut out = Vec::new();
        loop {
            t += -rng.unit().ln() / rate;
            if t >= seconds {
                break;
            }
            let key = keys[(rng.next_u64() % keys.len() as u64) as usize];
            let input = (rng.next_u64() % POOL as u64) as usize;
            // budget: 50%..650% of the requested variant's plan cost
            let pct = 50 + rng.next_u64() % 600;
            out.push(Arrival {
                due_ns: (t * 1e9) as u64,
                key,
                input,
                budget: self.costs[&key] * pct / 100,
            });
        }
        out
    }

    /// Median wall (ms), over rounds, of the workload's engine on one
    /// `max_batch` batch (f32) or one sample (Q15) of each app.
    fn probe(&self, tracer: &mut Tracer) -> f64 {
        let max_batch = ServeConfig::default().max_batch;
        let variants: Vec<_> = App::all()
            .iter()
            .map(|&app| {
                self.registry.get_or_load(VariantKey::new(
                    app,
                    DeviceProfile::Nominal,
                    PowerStrength::Strong,
                ))
            })
            .collect();
        let batches: Vec<Tensor> = variants
            .iter()
            .map(|v| {
                let pool = &self.pools[app_index(v.key.app)];
                let mut dims = pool[0].dims().to_vec();
                dims[0] = max_batch;
                let data = (0..max_batch).flat_map(|i| pool[i % POOL].data().to_vec()).collect();
                Tensor::from_vec(&dims, data)
            })
            .collect();
        let mut ctx = ExecCtx::new();
        let mut rounds = Vec::with_capacity(PROBE_ROUNDS);
        for r in 0..PROBE_ROUNDS {
            tracer.set_op(2_000_000 + r as u64);
            let t0 = Instant::now();
            for (v, batch) in variants.iter().zip(&batches) {
                if Q15 {
                    let q = v.qmodel.as_ref().expect("quantized variant");
                    let x = &self.pools[app_index(v.key.app)][r % POOL];
                    tracer.span("models.q15_forward", |_| {
                        std::hint::black_box(q.forward_q15_with(x, &mut ctx))
                    });
                } else {
                    tracer.span("models.infer_batch", |_| {
                        std::hint::black_box(v.model.infer(batch, &mut ctx))
                    });
                }
            }
            rounds.push(ms(t0.elapsed()));
        }
        median(&rounds)
    }
}

impl<const Q15: bool> Workload for Serve<Q15> {
    const THREADS: usize = 2;
    const CLOSED_LOOP: bool = false;

    fn setup(seed: u64, clock: &mut SetupClock) -> Self {
        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            quantize: Q15,
            calib_samples: CALIBRATION,
            ..Default::default()
        }));
        // warm every degrade rung so no timed window pays a lazy build
        for key in catalog() {
            let mut rung = Some(key);
            while let Some(k) = rung {
                clock.time(|| registry.get_or_load(k));
                rung = k.degraded();
            }
        }
        let pools: Vec<Vec<Tensor>> = App::all()
            .iter()
            .enumerate()
            .map(|(i, app)| {
                clock.time(|| {
                    let ds = app.dataset(POOL, mix(seed ^ (0x5E << 8) ^ i as u64));
                    (0..POOL).map(|j| ds.sample(j)).collect()
                })
            })
            .collect();
        // The references are solo inferences, bitwise equal at any worker
        // count; at two workers each single-sample call only adds a fork/join
        // whose wake-up cost follows the host's load.
        par::set_threads(1);
        let mut ctx = ExecCtx::new();
        let mut references = HashMap::new();
        let mut costs = HashMap::new();
        for v in registry.loaded() {
            let rows = pools[app_index(v.key.app)]
                .iter()
                .map(|x| {
                    clock.time(|| match &v.qmodel {
                        Some(q) if Q15 => q.forward_q15_with(x, &mut ctx),
                        _ => v.model.infer(x, &mut ctx).data().to_vec(),
                    })
                })
                .collect();
            references.insert(v.key, rows);
            costs.insert(v.key, v.plan.cost);
        }
        par::set_threads(Self::THREADS);
        Self { seed, registry, pools, references, costs }
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, counters: &mut CounterWindow) -> Phase {
        let (_, limit_ms) = rate_and_limit(Q15);
        let arrivals = self.schedule(seconds);
        let window_ns = (WINDOW_MS * 1e6) as u64;
        let server =
            Server::new(Arc::clone(&self.registry), ServeConfig { q15: Q15, ..Default::default() });

        let mut phase = Phase::default();
        let (mut window_ms, mut exec_ms, mut wait_ms, mut lag_ms) =
            (vec![], vec![], vec![], vec![]);
        let (mut admitted, mut degraded, mut batches, mut windows) = (0u64, 0u64, 0u64, 0u64);
        let mut outcome_text = String::new();
        counters.start();
        let t_start = Instant::now() + Duration::from_millis(1);
        let mut next = 0;
        while next < arrivals.len() {
            let k = arrivals[next].due_ns / window_ns;
            let end =
                next + arrivals[next..].iter().take_while(|a| a.due_ns / window_ns == k).count();
            let batch = &arrivals[next..end];
            let requests: Vec<Request> = batch
                .iter()
                .enumerate()
                .map(|(j, a)| Request {
                    id: (next + j) as u64,
                    key: a.key,
                    input: self.pools[app_index(a.key.app)][a.input].clone(),
                    budget: a.budget,
                })
                .collect();
            next = end;

            let due = t_start + Duration::from_nanos((k + 1) * window_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            tracer.set_op(k);
            let t_call = Instant::now();
            let out = tracer.span("serve.window", |_| server.run(&requests));
            let t_ret = Instant::now();
            windows += 1;
            lag_ms.push(ms(t_call.saturating_duration_since(due)));
            window_ms.push(ms(t_ret - t_call));
            batches += out.stats.batches;
            admitted += out.stats.admitted;
            degraded += out.stats.degraded;

            for ((a, c), &wall_ns) in batch.iter().zip(&out.completions).zip(&out.wall_ns) {
                let due_i = t_start + Duration::from_nanos(a.due_ns);
                let latency = ms(t_ret - due_i);
                wait_ms.push(ms(t_call - due_i));
                phase.attempted += 1;
                let served = match &c.outcome {
                    Outcome::Served { key } => *key,
                    Outcome::Degraded { to, .. } => *to,
                    Outcome::Rejected { estimate } => {
                        let _ = write!(outcome_text, "{} rejected {estimate};", c.id);
                        phase.failed += 1;
                        continue;
                    }
                };
                let _ = write!(outcome_text, "{} {served} {:?};", c.id, c.pred);
                exec_ms.push(wall_ns as f64 / 1e6);
                let verified = same_bits(&c.logits, &self.references[&served][a.input]);
                let good = verified && latency <= limit_ms;
                phase.good += u64::from(good);
                phase.ops.push(Op { kind: 0, ms: latency });
                if !verified {
                    phase.failed += 1;
                    phase.mismatches += 1;
                }
            }
        }
        phase.elapsed_s = t_start.elapsed().as_secs_f64();
        counters.stop();

        let attempted = phase.attempted.max(1) as f64;
        let l = &mut phase.layer;
        l.insert("serve.window_ms", median(&window_ms));
        l.insert("serve.exec_ms", median(&exec_ms));
        l.insert("serve.queue_wait_ms", median(&wait_ms));
        l.insert("serve.gen_lag_ms", median(&lag_ms));
        l.insert("serve.admitted_share", admitted as f64 / attempted);
        l.insert("serve.degraded_share", degraded as f64 / attempted);
        l.insert("serve.batch_size_mean", admitted as f64 / batches.max(1) as f64);
        l.insert("serve.batches", batches as f64 / windows.max(1) as f64);
        if tracer.enabled() {
            let probe_ms = self.probe(tracer);
            l.insert(if Q15 { "models.q15_forward_ms" } else { "models.infer_batch_ms" }, probe_ms);
        }
        let max_lag = lag_ms.iter().copied().fold(0.0, f64::max);
        phase
            .info
            .push(("outcome_checksum", format!("\"{:016x}\"", fnv1a(outcome_text.as_bytes()))));
        phase.info.push(("requests", phase.attempted.to_string()));
        phase.info.push(("admitted", admitted.to_string()));
        phase.info.push(("degraded", degraded.to_string()));
        phase.info.push(("gen_lag_ms_mean", format!("{:?}", mean(&lag_ms))));
        phase.info.push(("gen_lag_ms_max", format!("{max_lag:?}")));
        phase
    }
}
