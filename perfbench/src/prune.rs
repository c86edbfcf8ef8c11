//! `prune`: the researcher's job. One operation is `pipeline::prune` with
//! the iPrune configuration on HAR, starting from a base model trained once
//! in set-up, then `deploy` and one weak-power intermittent inference of the
//! adopted model. Closed loop, one client, one worker.
//!
//! The seed trains [`BASES`] base models, each on its own training set, and
//! draws [`INSTANCES`] problems over them (base, validation set, simulator
//! seed); the loop runs whole cycles over the problems. How much a call
//! costs depends on its data (which iterations strike, how sparse
//! fine-tuning gets), so one problem per run would make the run's latency a
//! property of its seed; a cycle of problems keeps the mix the same from
//! seed to seed, keeps every per-call count exact, and gives the tail
//! percentile ten distinct operations beyond it.
//!
//! Every call's report must be bit-equal to the first call's on the same
//! problem, and the adopted model's intermittent logits must equal its
//! continuous-mode logits. The traced half also replays the pipeline's
//! public steps once per recorded iteration, on the same model and data, to
//! split a call's time between `core` and `models`.

use crate::trace::Tracer;
use crate::util::{mean, median, mix, ms, same_bits, SetupClock};
use crate::{CounterWindow, Op, Phase, Workload};
use iprune::blocks::{alive_cost_total, build_states};
use iprune::pipeline::{prune, PruneConfig, PruneReport};
use iprune::sa::SaConfig;
use iprune::sensitivity::analyze;
use iprune::strategy::{overall_ratio, prune_step};
use iprune_datasets::Dataset;
use iprune_device::energy::EnergyModel;
use iprune_device::timing::TimingModel;
use iprune_device::{DeviceSim, PowerStrength};
use iprune_hawaii::deploy::deploy;
use iprune_hawaii::exec::{infer, ExecMode, InferenceOutcome};
use iprune_models::train::{evaluate, train_sgd, TrainConfig};
use iprune_models::zoo::App;
use iprune_models::Model;
use iprune_tensor::Tensor;
use std::time::Instant;

/// Base models per seed, each trained on its own set.
const BASES: usize = 8;
/// Problems per seed, run in turn; problem `k` starts from base `k % BASES`.
const INSTANCES: usize = 40;
const TRAIN_N: usize = 8;
const VAL_N: usize = 8;
const MAX_ITERATIONS: usize = 2;
const SA_STEPS: usize = 300;
const SENS_EVAL: usize = 3;
const FINETUNE_EPOCHS: usize = 1;
/// Deploy calibration samples, drawn from the validation set.
const CALIBRATION: usize = 2;

/// A base model and the set it was trained on (and is fine-tuned on).
struct Base {
    model: Model,
    train: Dataset,
}

/// One pruning problem and the first call's results on it.
struct Instance {
    /// Index into [`Prune::bases`].
    base: usize,
    val: Dataset,
    input: Tensor,
    sim_seed: u64,
    /// The first call's report and weak-power outcome; every later call
    /// must reproduce them bit for bit.
    reference: Option<(PruneReport, InferenceOutcome)>,
    prune_ms: Vec<f64>,
}

pub struct Prune {
    cfg: PruneConfig,
    bases: Vec<Base>,
    instances: Vec<Instance>,
}

/// The iPrune configuration at a scale where one call takes about 10 ms,
/// so that a run repeats each problem many times: two iterations with two
/// strikes allowed, so every call runs exactly two iterations.
fn config() -> PruneConfig {
    PruneConfig {
        max_iterations: MAX_ITERATIONS,
        sens_eval: SENS_EVAL,
        val_eval: 0,
        sa: SaConfig { steps: SA_STEPS, ..Default::default() },
        finetune: TrainConfig { epochs: FINETUNE_EPOCHS, ..App::Har.finetune_recipe() },
        ..PruneConfig::iprune()
    }
}

fn outcome_matches(a: &InferenceOutcome, b: &InferenceOutcome) -> bool {
    same_bits(&a.logits, &b.logits)
        && a.latency_s.to_bits() == b.latency_s.to_bits()
        && a.jobs == b.jobs
        && a.retries == b.retries
        && a.power_cycles == b.power_cycles
}

impl Workload for Prune {
    const THREADS: usize = 1;
    const CLOSED_LOOP: bool = true;

    fn setup(seed: u64, clock: &mut SetupClock) -> Self {
        let bases = (0..BASES as u64)
            .map(|b| {
                let train =
                    clock.time(|| App::Har.dataset(TRAIN_N, mix(seed ^ (b << 40) ^ 0x7A11)));
                let mut model = clock.time(|| App::Har.build());
                clock.time(|| train_sgd(&mut model, &train, &App::Har.train_recipe()));
                Base { model, train }
            })
            .collect();
        let instances = (0..INSTANCES)
            .map(|k| {
                let s = mix(seed ^ ((k as u64) << 40));
                let val = clock.time(|| App::Har.dataset(VAL_N, mix(s ^ 0x7A12)));
                let input = val.sample(0);
                let sim_seed = mix(s ^ 0x7A13);
                Instance {
                    base: k % BASES,
                    val,
                    input,
                    sim_seed,
                    reference: None,
                    prune_ms: Vec::new(),
                }
            })
            .collect();
        Self { cfg: config(), bases, instances }
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, counters: &mut CounterWindow) -> Phase {
        let mut phase = Phase::default();
        for inst in &mut self.instances {
            inst.prune_ms.clear();
        }
        counters.start();
        let t_start = Instant::now();
        while phase.attempted == 0 || t_start.elapsed().as_secs_f64() < seconds {
            for (kind, inst) in self.instances.iter_mut().enumerate() {
                let base = &self.bases[inst.base];
                let mut model = base.model.clone();
                tracer.set_op(phase.attempted);
                let t0 = Instant::now();
                let (report, dm, out, prune_ms) = tracer.span("op", |t| {
                    let t_prune = Instant::now();
                    let report = t.span("core.prune", |_| {
                        prune(&mut model, &base.train, &inst.val, &self.cfg)
                    });
                    let prune_ms = ms(t_prune.elapsed());
                    let dm =
                        t.span("hawaii.deploy", |_| deploy(&mut model, &inst.val, CALIBRATION));
                    let out = t.span("hawaii.infer_weak", |_| {
                        let mut sim = DeviceSim::new(PowerStrength::Weak, inst.sim_seed);
                        infer(&dm, &inst.input, &mut sim, ExecMode::Intermittent)
                    });
                    (report, dm, out, prune_ms)
                });
                phase.ops.push(Op { kind, ms: ms(t0.elapsed()) });
                phase.attempted += 1;
                inst.prune_ms.push(prune_ms);
                let Ok(out) = out else {
                    phase.failed += 1;
                    continue;
                };
                let mut continuous = DeviceSim::new(PowerStrength::Continuous, 0);
                let continuous_logits =
                    infer(&dm, &inst.input, &mut continuous, ExecMode::Continuous)
                        .map(|o| o.logits)
                        .unwrap_or_default();
                let repeats = match &inst.reference {
                    None => {
                        inst.reference = Some((report.clone(), out.clone()));
                        true
                    }
                    // Debug prints every float to the bit
                    Some((r, o)) => {
                        format!("{r:?}") == format!("{report:?}") && outcome_matches(o, &out)
                    }
                };
                if repeats && same_bits(&out.logits, &continuous_logits) {
                    phase.good += 1;
                } else {
                    phase.failed += 1;
                    phase.mismatches += 1;
                }
            }
        }
        phase.elapsed_s = t_start.elapsed().as_secs_f64();
        counters.stop();

        // exact per-call facts, averaged over the problems
        let refs: Vec<&(PruneReport, InferenceOutcome)> =
            self.instances.iter().filter_map(|i| i.reference.as_ref()).collect();
        let avg = |f: &dyn Fn(&PruneReport, &InferenceOutcome) -> f64| {
            mean(&refs.iter().map(|(r, o)| f(r, o)).collect::<Vec<f64>>())
        };
        let l = &mut phase.layer;
        l.insert("core.iterations", avg(&|r, _| r.iterations.len() as f64));
        l.insert("core.accuracy", avg(&|r, _| r.final_accuracy));
        l.insert("core.density", avg(&|r, _| r.final_density));
        l.insert("device.latency_s", avg(&|_, o| o.latency_s));
        l.insert("device.jobs", avg(&|_, o| o.stats.jobs_committed as f64));
        let committed = avg(&|_, o| o.stats.jobs_committed as f64);
        let attempts = avg(&|_, o| (o.stats.jobs_committed + o.stats.jobs_failed) as f64);
        l.insert("device.useful_job_share", committed / attempts);
        l.insert("device.power_cycles", avg(&|_, o| o.power_cycles as f64));
        l.insert(
            "device.recovery_share",
            avg(&|_, o| o.stats.recovery_s) / avg(&|_, o| o.latency_s),
        );
        l.insert("hawaii.retries", avg(&|_, o| o.retries as f64));
        let adopted: Vec<String> =
            refs.iter().map(|(r, _)| format!("{:?}", r.adopted_iteration)).collect();
        phase.info.push(("adopted_iteration", format!("\"{}\"", adopted.join(" "))));
        phase.info.push(("final_accuracy", format!("{:?}", avg(&|r, _| r.final_accuracy))));
        phase.info.push(("final_density", format!("{:?}", avg(&|r, _| r.final_density))));
        phase.info.push(("device_latency_s", format!("{:?}", avg(&|_, o| o.latency_s))));
        if tracer.enabled() {
            let by_name = tracer.self_ms_by_name();
            let med = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
            l.insert("hawaii.deploy_ms", med("hawaii.deploy"));
            let infer_ms = med("hawaii.infer_weak");
            l.insert("hawaii.infer_weak_ms", infer_ms);
            l.insert("hawaii.ns_per_job", infer_ms * 1e6 / attempts);
            let replay = self.replay(tracer);
            let prune_ms: f64 = self.instances.iter().map(|i| median(&i.prune_ms)).sum();
            let n = self.instances.len() as f64;
            l.insert("core.step_coverage", replay.total / prune_ms);
            l.insert("core.states_ms", replay.states / n);
            l.insert("core.sensitivity_ms", replay.sensitivity / n);
            l.insert("core.sa_ms", replay.sa / n);
            l.insert("models.finetune_ms", replay.finetune / n);
            l.insert("models.evaluate_ms", replay.evaluate / n);
            phase.info.push(("replay_matches", replay.matches.to_string()));
        }
        phase
    }
}

/// Time of each pipeline step summed over one replay of every problem (ms).
#[derive(Default)]
struct Replay {
    states: f64,
    sensitivity: f64,
    sa: f64,
    finetune: f64,
    evaluate: f64,
    total: f64,
    /// Whether the replay reproduced every recorded iteration bit for bit.
    matches: bool,
}

impl Prune {
    /// Replays each problem's recorded iterations with the pipeline's
    /// public steps, one call of each per iteration, following the same
    /// strike and rollback rule, and times each step.
    fn replay(&self, tracer: &mut Tracer) -> Replay {
        let cfg = &self.cfg;
        let timing = TimingModel::default();
        let energy = EnergyModel::default();
        let mut sums = [0.0f64; 5];
        let mut matches = true;
        for (k, inst) in self.instances.iter().enumerate() {
            let Some((report, _)) = &inst.reference else { continue };
            tracer.set_op(1_000_000 + k as u64);
            let eval_set =
                if cfg.val_eval == 0 { inst.val.clone() } else { inst.val.take(cfg.val_eval) };
            let sens_set = inst.val.take(cfg.sens_eval.max(1));
            let base = &self.bases[inst.base];
            let mut model = base.model.clone();
            let mut timed = |i: usize, name: &'static str, t: &mut Tracer, f: &mut dyn FnMut()| {
                let t0 = Instant::now();
                t.span(name, |_| f());
                sums[i] += ms(t0.elapsed());
            };
            tracer.span("replay", |t| {
                let mut baseline = 0.0;
                timed(4, "models.evaluate", t, &mut || {
                    baseline = evaluate(&mut model, &eval_set, cfg.batch)
                });
                matches &= baseline.to_bits() == report.baseline_accuracy.to_bits();
                let mut best = (model.snapshot(), model.masks());
                let mut strikes = 0;
                for rec in &report.iterations {
                    let iter = rec.iteration;
                    let mut states = Vec::new();
                    timed(0, "core.states", t, &mut || {
                        states = build_states(&mut model, cfg.criterion, &timing, &energy)
                    });
                    let mut sens = None;
                    timed(1, "core.sensitivity", t, &mut || {
                        sens = Some(analyze(
                            &mut model,
                            &states,
                            &sens_set,
                            cfg.probe_ratio,
                            cfg.batch,
                        ))
                    });
                    let sens = sens.expect("sensitivity ran");
                    let mut gamma = 0.0;
                    timed(2, "core.sa", t, &mut || {
                        gamma = overall_ratio(&states, &sens, cfg.gamma_hat);
                        let sa =
                            SaConfig { seed: cfg.sa.seed ^ (iter as u64) << 8, ..cfg.sa.clone() };
                        let (masks, _) = prune_step(&model, &mut states, &sens, gamma, &sa);
                        model.set_masks(&masks);
                    });
                    let mut ft = cfg.finetune.clone();
                    ft.seed ^= iter as u64;
                    timed(3, "models.finetune", t, &mut || {
                        train_sgd(&mut model, &base.train, &ft);
                    });
                    let mut accuracy = 0.0;
                    timed(4, "models.evaluate", t, &mut || {
                        accuracy = evaluate(&mut model, &eval_set, cfg.batch)
                    });
                    timed(0, "core.states", t, &mut || {
                        alive_cost_total(&mut model, cfg.criterion, &timing, &energy);
                    });
                    matches &= gamma.to_bits() == rec.gamma.to_bits()
                        && accuracy.to_bits() == rec.accuracy.to_bits();
                    if rec.struck {
                        strikes += 1;
                        if strikes >= cfg.strikes_allowed {
                            break;
                        }
                        model.set_masks(&best.1);
                        model.restore(&best.0);
                    } else {
                        best = (model.snapshot(), model.masks());
                    }
                }
            });
        }
        Replay {
            states: sums[0],
            sensitivity: sums[1],
            sa: sums[2],
            finetune: sums[3],
            evaluate: sums[4],
            total: sums.iter().sum(),
            matches,
        }
    }
}
