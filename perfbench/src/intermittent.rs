//! `intermittent`: one operation is one `exec::infer` in
//! `ExecMode::Intermittent` on a fresh `DeviceSim`. The model is SQN with
//! seeded weights and block-magnitude masks, deployed once in set-up. Strong
//! and weak power alternate, each operation has its own simulator seed, and
//! inputs come from a fixed pool. Closed loop, one client, one worker.
//!
//! The loop runs whole cycles of the same operation list, so every count is
//! exact. Each output must equal, bit for bit, the continuous-mode logits
//! computed in set-up, and each repeat of a cycle position must reproduce
//! the first cycle's simulated outcome.

use crate::trace::Tracer;
use crate::util::{median, mix, ms, same_bits, SetupClock};
use crate::{CounterWindow, Op, Phase, Workload};
use iprune_device::{DeviceSim, PowerStrength};
use iprune_hawaii::deploy::{deploy, DeployedModel};
use iprune_hawaii::exec::{infer, ExecMode, InferenceOutcome};
use iprune_models::zoo::App;
use iprune_tensor::Tensor;
use std::time::Instant;

/// Kept-weight fraction of the deployed SQN (ppm).
const KEEP_PPM: u32 = 500_000;
const CALIBRATION: usize = 2;
const POOL: usize = 16;
/// Operations per cycle; even positions run on strong power, odd on weak.
const CYCLE: usize = 100;

struct Planned {
    power: PowerStrength,
    sim_seed: u64,
    input: usize,
}

/// Exact simulated facts of one operation, compared across cycles.
#[derive(Clone, PartialEq)]
struct Facts {
    latency_bits: u64,
    jobs: u64,
    failed_jobs: u64,
    power_cycles: u64,
    retries: u64,
    recovery_bits: u64,
}

impl Facts {
    fn of(o: &InferenceOutcome) -> Self {
        Self {
            latency_bits: o.latency_s.to_bits(),
            jobs: o.stats.jobs_committed,
            failed_jobs: o.stats.jobs_failed,
            power_cycles: o.power_cycles,
            retries: o.retries,
            recovery_bits: o.stats.recovery_s.to_bits(),
        }
    }
}

pub struct Intermittent {
    dm: DeployedModel,
    inputs: Vec<Tensor>,
    references: Vec<Vec<f32>>,
    cycle: Vec<Planned>,
    first_cycle: Vec<Option<Facts>>,
}

impl Workload for Intermittent {
    const THREADS: usize = 1;
    const CLOSED_LOOP: bool = true;

    fn setup(seed: u64, clock: &mut SetupClock) -> Self {
        let mut model = clock.time(|| {
            let mut model = App::Sqn.build();
            let masks = model.block_magnitude_masks(KEEP_PPM);
            model.set_masks(&masks);
            model
        });
        let calib = clock.time(|| App::Sqn.dataset(CALIBRATION, mix(seed ^ 0x1A7E)));
        let dm = clock.time(|| deploy(&mut model, &calib, CALIBRATION));
        let inputs: Vec<Tensor> = clock.time(|| {
            let pool = App::Sqn.dataset(POOL, mix(seed ^ 0x1A7F));
            (0..POOL).map(|i| pool.sample(i)).collect()
        });
        let references = inputs
            .iter()
            .map(|x| {
                clock.time(|| {
                    let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
                    infer(&dm, x, &mut sim, ExecMode::Continuous)
                        .expect("continuous reference")
                        .logits
                })
            })
            .collect();
        let cycle = (0..CYCLE)
            .map(|i| Planned {
                power: if i % 2 == 0 { PowerStrength::Strong } else { PowerStrength::Weak },
                sim_seed: mix(seed ^ (0x51 << 32) ^ i as u64),
                input: (mix(seed ^ i as u64) % POOL as u64) as usize,
            })
            .collect();
        Self { dm, inputs, references, cycle, first_cycle: vec![None; CYCLE] }
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, counters: &mut CounterWindow) -> Phase {
        let mut phase = Phase::default();
        let mut strong_ms = Vec::new();
        let mut weak_ms = Vec::new();
        let mut infer_ns = 0u128;
        let mut job_attempts = 0u64;
        counters.start();
        let t_start = Instant::now();
        let mut cycles = 0u64;
        while cycles == 0 || t_start.elapsed().as_secs_f64() < seconds {
            for (pos, op) in self.cycle.iter().enumerate() {
                tracer.set_op(phase.attempted);
                let name = match op.power {
                    PowerStrength::Weak => "hawaii.infer_weak",
                    _ => "hawaii.infer_strong",
                };
                let t0 = Instant::now();
                let out = tracer.span(name, |_| {
                    let mut sim = DeviceSim::new(op.power, op.sim_seed);
                    infer(&self.dm, &self.inputs[op.input], &mut sim, ExecMode::Intermittent)
                });
                let wall = t0.elapsed();
                phase.ops.push(Op { kind: pos, ms: ms(wall) });
                phase.attempted += 1;
                let Ok(out) = out else {
                    phase.failed += 1;
                    continue;
                };
                infer_ns += wall.as_nanos();
                job_attempts += out.stats.jobs_committed + out.stats.jobs_failed;
                match op.power {
                    PowerStrength::Weak => weak_ms.push(ms(wall)),
                    _ => strong_ms.push(ms(wall)),
                }
                let facts = Facts::of(&out);
                let repeats = match &self.first_cycle[pos] {
                    None => {
                        self.first_cycle[pos] = Some(facts);
                        true
                    }
                    Some(first) => *first == facts,
                };
                if repeats && same_bits(&out.logits, &self.references[op.input]) {
                    phase.good += 1;
                } else {
                    phase.failed += 1;
                    phase.mismatches += 1;
                }
            }
            cycles += 1;
        }
        phase.elapsed_s = t_start.elapsed().as_secs_f64();
        counters.stop();

        // exact per-inference device facts over one cycle
        let facts: Vec<&Facts> = self.first_cycle.iter().flatten().collect();
        let n = facts.len().max(1) as f64;
        let latencies: Vec<f64> = facts.iter().map(|f| f64::from_bits(f.latency_bits)).collect();
        let committed: u64 = facts.iter().map(|f| f.jobs).sum();
        let failed: u64 = facts.iter().map(|f| f.failed_jobs).sum();
        let recovery: f64 = facts.iter().map(|f| f64::from_bits(f.recovery_bits)).sum();
        let l = &mut phase.layer;
        l.insert("device.latency_s", median(&latencies));
        l.insert("device.jobs", committed as f64 / n);
        l.insert("device.useful_job_share", committed as f64 / (committed + failed).max(1) as f64);
        l.insert(
            "device.power_cycles",
            facts.iter().map(|f| f.power_cycles).sum::<u64>() as f64 / n,
        );
        l.insert("device.recovery_share", recovery / latencies.iter().sum::<f64>());
        l.insert("hawaii.retries", facts.iter().map(|f| f.retries).sum::<u64>() as f64 / n);
        l.insert("hawaii.infer_strong_ms", median(&strong_ms));
        l.insert("hawaii.infer_weak_ms", median(&weak_ms));
        l.insert("hawaii.ns_per_job", infer_ns as f64 / job_attempts.max(1) as f64);
        phase.info.push(("cycles", cycles.to_string()));
        phase.info.push(("device_latency_s", format!("{:?}", median(&latencies))));
        phase.info.push(("jobs_per_cycle", (committed + failed).to_string()));
        phase
    }
}
