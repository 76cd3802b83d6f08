//! `model-fig2`: `fig2_point` over Table II instances — the σ⁺ schedule,
//! calibrated simulated annealing and the exact DP optimum — single
//! threaded. The only workload that runs the `model` and `anneal` crates.

use crate::spans::{span, Layer, Sink};
use crate::workload::{mix, OpOutcome, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use ulba_anneal::Annealer;
use ulba_model::instance::{Instance, InstanceDistribution};
use ulba_model::schedule::{sigma_plus_schedule, total_time, Method};
use ulba_model::search::{optimal_schedule, AnnealSearchConfig, ScheduleProblem};
use ulba_model::study::{fig2_point, Fig2Point};

/// Instances one run cycles through.
pub const INSTANCES: usize = 128;

/// The Fig. 2 SA budget (`fig2` without `--smoke`).
fn sa_config(seed: u64, i: usize) -> AnnealSearchConfig {
    AnnealSearchConfig { steps: 20_000, seed: seed.wrapping_add(i as u64), probe_moves: 200 }
}

/// `[SA, σ⁺, optimum]` times as bits.
fn virtual_outputs(sa: f64, sigma: f64, optimal: f64) -> [u64; 3] {
    [sa.to_bits(), sigma.to_bits(), optimal.to_bits()]
}

/// `model-fig2`: Table II instances, one per op.
pub struct ModelFig2 {
    seed: u64,
    instances: Vec<Instance>,
}

impl ModelFig2 {
    /// Sample the instances and run one untimed warmup point.
    pub fn setup(seed: u64) -> Self {
        let seed = mix(seed, 0xF2);
        let instances = InstanceDistribution::default().sample_many(INSTANCES, seed);
        let _ = fig2_point(&instances[0], sa_config(seed, 0));
        Self { seed, instances }
    }
}

impl Workload for ModelFig2 {
    fn cycle(&self) -> usize {
        self.instances.len()
    }

    fn workers(&self) -> usize {
        1
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let gamma = self.instances[0].params.gamma;
        vec![
            ("workers", "1".to_string()),
            ("instances", self.instances.len().to_string()),
            ("iterations", gamma.to_string()),
            ("ranks", "table-ii".to_string()),
            ("sa_steps", sa_config(0, 0).steps.to_string()),
            ("config_seeds", format!("{:#x}", self.seed)),
        ]
    }

    fn run(&mut self, k: usize) -> OpOutcome {
        let i = k % self.instances.len();
        let inst = &self.instances[i];
        let cfg = sa_config(self.seed, i);
        let Ok(pt): Result<Fig2Point, _> = catch_unwind(AssertUnwindSafe(|| fig2_point(inst, cfg)))
        else {
            return OpOutcome::failed(1);
        };
        let mut out = OpOutcome { jobs: 1, units: 1.0, ..OpOutcome::default() };
        // The DP optimum is exact: neither σ⁺ nor SA may beat it.
        let tol = 1.0 + 1e-9;
        if pt.optimal_time > pt.sigma_time * tol || pt.optimal_time > pt.sa_time * tol {
            eprintln!(
                "model-fig2 instance {i}: optimum {} beaten (σ⁺ {}, SA {})",
                pt.optimal_time, pt.sigma_time, pt.sa_time
            );
            out.failed = 1;
        }
        out.virt.extend(virtual_outputs(pt.sa_time, pt.sigma_time, pt.optimal_time));
        out.exact = out.virt.clone();
        out
    }

    fn replay(&mut self, k: usize, sink: &Arc<Sink>) -> OpOutcome {
        let i = k % self.instances.len();
        let inst = self.instances[i];
        let cfg = sa_config(self.seed, i);
        let params = &inst.params;
        let method = Method::Ulba { alpha: inst.alpha };
        let mut tr = sink.host_trace(0);
        let sigma_time = span!(tr, Layer::SigmaPlus, {
            let sigma = sigma_plus_schedule(params, inst.alpha);
            total_time(params, &sigma, method)
        });
        let sa = span!(tr, Layer::Anneal, {
            let problem = ScheduleProblem::new(params, method);
            let initial = vec![false; params.gamma as usize];
            let annealer =
                Annealer::calibrated(&problem, &initial, cfg.steps, cfg.probe_moves, cfg.seed);
            annealer.run(&problem, initial)
        });
        tr.counters.sa_moves += sa.moves_evaluated;
        let optimal = span!(tr, Layer::Optimal, optimal_schedule(params, method));
        sink.absorb(tr);
        OpOutcome {
            jobs: 1,
            units: 1.0,
            virt: virtual_outputs(sa.best_energy, sigma_time, optimal.time).to_vec(),
            ..OpOutcome::default()
        }
    }
}
