//! Candidate evaluation: algorithmic metrics from the supernet, latency
//! from the accelerator model or its GP surrogate.

use crate::{Candidate, Result, SearchError};
use nds_data::Dataset;
use nds_dropout::DropoutKind;
use nds_gp::{GpRegressor, Kernel};
use nds_hw::accel::AcceleratorModel;
use nds_nn::arch::{Architecture, FeatureShape, SlotInfo};
use nds_supernet::{DropoutConfig, Supernet, SupernetSpec};
use nds_tensor::rng::Rng64;
use nds_tensor::Tensor;
use std::collections::HashMap;

/// Anything that can score a dropout configuration.
///
/// The evolutionary loop works through this trait so tests can plug in
/// synthetic evaluators.
pub trait Evaluator {
    /// Evaluates (or recalls) the candidate for `config`.
    ///
    /// # Errors
    ///
    /// Implementations propagate their underlying model errors.
    fn evaluate(&mut self, config: &DropoutConfig) -> Result<Candidate>;

    /// Evaluates a whole population, returning candidates in input order.
    ///
    /// The default is a serial loop over [`Evaluator::evaluate`];
    /// implementations backed by real models override this to fan the
    /// fresh evaluations out across worker threads (see
    /// [`SupernetEvaluator`]). Results must be identical to the serial
    /// path — parallelism is an execution detail, not a semantic one.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    fn evaluate_many(&mut self, configs: &[DropoutConfig]) -> Result<Vec<Candidate>> {
        configs.iter().map(|config| self.evaluate(config)).collect()
    }

    /// Number of *fresh* (non-memoised) evaluations performed so far.
    fn fresh_evaluations(&self) -> usize;
}

/// Where candidate latency figures come from. `Clone` so a campaign can
/// hand every island its own copy of one fitted provider (a GP refit
/// would reproduce identical bytes, but fitting once is cheaper).
#[derive(Clone)]
pub enum LatencyProvider {
    /// Query the analytical accelerator model exactly.
    Exact {
        /// The accelerator model.
        model: AcceleratorModel,
        /// The *paper-scale* architecture to analyze (hardware numbers are
        /// reported for the full-width network even when the supernet is
        /// width-scaled for CPU training).
        arch: Architecture,
    },
    /// Query a fitted Gaussian-process surrogate (the paper's Phase-4 cost
    /// model; §3.5.1).
    Gp {
        /// The fitted regressor.
        gp: GpRegressor,
        /// Slot metadata used for feature encoding.
        slots: Vec<SlotInfo>,
    },
    /// A constant (used when latency is irrelevant to the aim).
    Constant(f64),
}

impl std::fmt::Debug for LatencyProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyProvider::Exact { arch, .. } => write!(f, "Exact({})", arch.name),
            LatencyProvider::Gp { gp, .. } => write!(f, "Gp({} pts)", gp.train_len()),
            LatencyProvider::Constant(ms) => write!(f, "Constant({ms} ms)"),
        }
    }
}

impl LatencyProvider {
    /// Latency estimate in milliseconds for a configuration.
    ///
    /// # Errors
    ///
    /// Propagates accelerator-model errors (exact mode only).
    pub fn latency_ms(&self, config: &DropoutConfig) -> Result<f64> {
        match self {
            LatencyProvider::Exact { model, arch } => Ok(model.latency_ms(arch, config)?),
            LatencyProvider::Gp { gp, slots } => {
                let features = encode_config(config, slots);
                Ok(gp.predict(&features).0)
            }
            LatencyProvider::Constant(ms) => Ok(*ms),
        }
    }

    /// Builds the GP-surrogate provider in one call — the paper's
    /// Phase-4 cost model as a first-class latency strategy for
    /// [`crate::SearchBuilder::latency`]: fits the surrogate on
    /// `n_train` random design points (see [`fit_latency_gp`]) and
    /// returns the provider together with its held-out RMSE in
    /// milliseconds.
    ///
    /// # Errors
    ///
    /// Propagates accelerator and GP fitting errors.
    pub fn fit_gp(
        model: &AcceleratorModel,
        arch: &Architecture,
        spec: &SupernetSpec,
        n_train: usize,
        n_test: usize,
        seed: u64,
    ) -> Result<(LatencyProvider, f64)> {
        let (gp, rmse) = fit_latency_gp(model, arch, spec, n_train, n_test, seed)?;
        Ok((
            LatencyProvider::Gp {
                gp,
                slots: spec.slots().to_vec(),
            },
            rmse,
        ))
    }
}

/// Encodes a dropout configuration as GP features: per slot, a one-hot of
/// the dropout kinds scaled by the slot's log₂ element count — the "input
/// shape and dropout type" features of §3.5.1. The one-hot covers the
/// extended kind set so the same encoder serves both the paper's space and
/// the Gaussian-augmented space.
pub fn encode_config(config: &DropoutConfig, slots: &[SlotInfo]) -> Vec<f64> {
    let kinds = DropoutKind::extended();
    let mut features = Vec::with_capacity(slots.len() * kinds.len());
    for slot in slots {
        let kind = config.kind_at(slot.id);
        let elems = match slot.shape {
            FeatureShape::Map { c, h, w } => (c * h * w) as f64,
            FeatureShape::Vector { features } => features as f64,
        };
        let scale = elems.max(2.0).log2();
        for candidate in kinds {
            features.push(if kind == Some(candidate) { scale } else { 0.0 });
        }
    }
    features
}

/// Builds the paper's GP latency surrogate: samples `n_train` random
/// configurations, queries the exact accelerator model for each, and fits
/// a Matérn-5/2 GP with grid-searched hyperparameters. Returns the
/// regressor and its RMSE on `n_test` held-out configurations.
///
/// # Errors
///
/// Propagates accelerator and GP fitting errors.
pub fn fit_latency_gp(
    model: &AcceleratorModel,
    arch: &Architecture,
    spec: &SupernetSpec,
    n_train: usize,
    n_test: usize,
    seed: u64,
) -> Result<(GpRegressor, f64)> {
    let slots = spec.slots().to_vec();
    let mut rng = Rng64::new(seed);
    let sample = |rng: &mut Rng64, n: usize| -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
        let mut configs = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::new();
        let mut guard = 0;
        while configs.len() < n && guard < n * 50 {
            guard += 1;
            let config = spec.sample_config(rng);
            if !seen.insert(config.compact()) && seen.len() < spec.space_size() {
                continue;
            }
            configs.push(config);
        }
        let xs = configs
            .iter()
            .map(|config| encode_config(config, &slots))
            .collect();
        let ys = model.latency_ms_batch(arch, &configs)?;
        Ok((xs, ys))
    };
    let (train_x, train_y) = sample(&mut rng, n_train)?;
    let (test_x, test_y) = sample(&mut rng, n_test)?;
    let gp = GpRegressor::fit_hyperparameters(
        &train_x,
        &train_y,
        Kernel::Matern52 {
            lengthscale: 1.0,
            variance: 1.0,
        },
        &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
        &[0.25, 1.0, 4.0, 16.0],
        &[1e-6, 1e-4, 1e-2],
    )
    .map_err(|e| SearchError::Gp(e.to_string()))?;
    let rmse = gp.rmse(&test_x, &test_y);
    Ok((gp, rmse))
}

/// The production evaluator: shared-weight supernet for accuracy/ECE/aPE
/// plus a latency provider, with memoisation (the EA revisits
/// configurations constantly).
pub struct SupernetEvaluator<'a> {
    supernet: &'a mut Supernet,
    val: &'a Dataset,
    ood: Tensor,
    latency: LatencyProvider,
    batch_size: usize,
    cache: HashMap<String, Candidate>,
    fresh: usize,
    /// Worker forks kept across `evaluate_many` calls. Forking is
    /// O(layers) (copy-on-write weights), but each fork also owns the
    /// `Workspace` its MC rounds pool scratch in — reusing the forks
    /// keeps those pools warm across generations, so population
    /// evaluation allocates per *worker*, not per candidate or call.
    /// Sound because this evaluator exclusively borrows the supernet:
    /// nothing can train (and thereby detach) the shared weights while
    /// the forks are alive.
    forks: Vec<Supernet>,
}

impl std::fmt::Debug for SupernetEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupernetEvaluator")
            .field("val", &self.val.name())
            .field("latency", &self.latency)
            .field("cached", &self.cache.len())
            .finish()
    }
}

impl<'a> SupernetEvaluator<'a> {
    /// Creates an evaluator over a trained supernet.
    ///
    /// `ood` is the Gaussian-noise probe tensor for aPE (see
    /// [`Dataset::ood_noise`]).
    pub fn new(
        supernet: &'a mut Supernet,
        val: &'a Dataset,
        ood: Tensor,
        latency: LatencyProvider,
        batch_size: usize,
    ) -> Self {
        SupernetEvaluator {
            supernet,
            val,
            ood,
            latency,
            batch_size: batch_size.max(1),
            cache: HashMap::new(),
            fresh: 0,
            forks: Vec::new(),
        }
    }

    /// Read access to everything evaluated so far.
    pub fn archive(&self) -> Vec<Candidate> {
        let mut all: Vec<Candidate> = self.cache.values().cloned().collect();
        all.sort_by(|a, b| a.config.cmp(&b.config));
        all
    }

    /// [`Evaluator::evaluate_many`] with an explicit worker count (the
    /// trait method uses [`nds_tensor::parallel::worker_count`]).
    ///
    /// # Errors
    ///
    /// Propagates supernet-fork, evaluation and latency-model errors.
    pub fn evaluate_many_with_workers(
        &mut self,
        configs: &[DropoutConfig],
        workers: usize,
    ) -> Result<Vec<Candidate>> {
        let mut pending: Vec<DropoutConfig> = Vec::new();
        let mut queued: std::collections::HashSet<String> = std::collections::HashSet::new();
        for config in configs {
            let key = config.compact();
            if !self.cache.contains_key(&key) && queued.insert(key) {
                pending.push(config.clone());
            }
        }
        let workers = workers.min(pending.len());
        if workers > 1 {
            let chunk = pending.len().div_ceil(workers);
            while self.forks.len() < workers {
                self.forks.push(self.supernet.fork()?);
            }
            let forks = &mut self.forks[..workers];
            let mut results: Vec<Option<CandidateMetricsResult>> =
                (0..pending.len()).map(|_| None).collect();
            let (val, ood, batch_size) = (self.val, &self.ood, self.batch_size);
            // Fan the chunks out over the persistent worker pool. Nested
            // fan-outs inside each evaluation (MC sampling, gemm row
            // blocks) enqueue onto the same pool, so total thread count
            // stays bounded and idle workers help whichever level has
            // work — even when evaluate_many itself runs inside a pool
            // task, it keeps its parallelism instead of going serial.
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = pending
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .zip(forks.iter_mut())
                .map(|((cfgs, slots), fork)| {
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        for (config, slot) in cfgs.iter().zip(slots.iter_mut()) {
                            *slot = Some(fork.evaluate(config, val, ood, batch_size));
                        }
                    });
                    task
                })
                .collect();
            nds_tensor::parallel::run_scoped(tasks);
            for (config, outcome) in pending.iter().zip(results) {
                let metrics = outcome.expect("every evaluation slot is filled")?;
                let latency_ms = self.latency.latency_ms(config)?;
                let candidate = Candidate {
                    config: config.clone(),
                    metrics,
                    latency_ms,
                };
                self.cache.insert(config.compact(), candidate);
                self.fresh += 1;
            }
        }
        // Everything is cached now (or gets evaluated serially here when
        // only one worker is available).
        configs.iter().map(|config| self.evaluate(config)).collect()
    }
}

impl Evaluator for SupernetEvaluator<'_> {
    fn evaluate(&mut self, config: &DropoutConfig) -> Result<Candidate> {
        if let Some(hit) = self.cache.get(&config.compact()) {
            return Ok(hit.clone());
        }
        let metrics = self
            .supernet
            .evaluate(config, self.val, &self.ood, self.batch_size)?;
        let latency_ms = self.latency.latency_ms(config)?;
        let candidate = Candidate {
            config: config.clone(),
            metrics,
            latency_ms,
        };
        self.cache.insert(config.compact(), candidate.clone());
        self.fresh += 1;
        Ok(candidate)
    }

    /// Population evaluation with worker-thread fan-out: the distinct
    /// cache-missing configurations are split across forked copies of the
    /// supernet ([`Supernet::fork`]), one per worker. Because a candidate
    /// evaluation is a pure function of the shared weights and the config
    /// (dropout streams are derived per MC sample, batch-norm statistics
    /// are recalibrated per candidate), the parallel results equal the
    /// serial ones exactly.
    fn evaluate_many(&mut self, configs: &[DropoutConfig]) -> Result<Vec<Candidate>> {
        self.evaluate_many_with_workers(configs, nds_tensor::parallel::worker_count())
    }

    fn fresh_evaluations(&self) -> usize {
        self.fresh
    }
}

type CandidateMetricsResult =
    std::result::Result<nds_supernet::CandidateMetrics, nds_supernet::SupernetError>;

#[cfg(test)]
mod tests {
    use super::*;
    use nds_hw::accel::AcceleratorConfig;
    use nds_nn::zoo;

    #[test]
    fn encoding_distinguishes_kind_and_slot() {
        let spec = SupernetSpec::paper_default(zoo::lenet(), 1).unwrap();
        let slots = spec.slots();
        let a = encode_config(&"BBB".parse().unwrap(), slots);
        let b = encode_config(&"RBB".parse().unwrap(), slots);
        let c = encode_config(&"BBM".parse().unwrap(), slots);
        assert_eq!(a.len(), 15); // 3 slots x 5-wide one-hot
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Slot magnitudes reflect element counts (slot 0 is 6x12x12 = 864).
        assert!((a[0] - 864f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn gp_surrogate_tracks_exact_model() {
        let spec = SupernetSpec::paper_default(zoo::lenet(), 2).unwrap();
        let model = AcceleratorModel::new(AcceleratorConfig::lenet_paper());
        let (gp, rmse) = fit_latency_gp(&model, &zoo::lenet(), &spec, 24, 8, 3).unwrap();
        // LeNet latencies span ~0.9-0.95 ms; the surrogate should predict
        // within a few percent of that span.
        assert!(rmse < 0.05, "GP latency RMSE {rmse} ms too large");
        // Check ordering is preserved on two known-extreme configs.
        let slots = spec.slots().to_vec();
        let fast = encode_config(&"MMM".parse().unwrap(), &slots);
        let slow = encode_config(&"KKB".parse().unwrap(), &slots);
        let (fast_ms, _) = gp.predict(&fast);
        let (slow_ms, _) = gp.predict(&slow);
        assert!(slow_ms > fast_ms, "GP should rank Block above Masksembles");
    }

    #[test]
    fn parallel_population_evaluation_matches_serial() {
        use nds_data::{mnist_like, DatasetConfig};
        let splits = mnist_like(&DatasetConfig {
            train: 48,
            val: 16,
            test: 8,
            seed: 21,
            noise: 0.05,
        });
        let spec = SupernetSpec::paper_default(zoo::lenet(), 31).unwrap();
        let mut serial_net = Supernet::build(&spec).unwrap();
        let mut parallel_net = Supernet::build(&spec).unwrap();
        let mut rng = Rng64::new(5);
        let ood = splits.val.ood_noise(8, &mut rng);
        let configs: Vec<DropoutConfig> = ["BBB", "RBM", "KKB", "BBB"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let mut serial = SupernetEvaluator::new(
            &mut serial_net,
            &splits.val,
            ood.clone(),
            LatencyProvider::Constant(1.0),
            8,
        );
        let expect: Vec<Candidate> = configs
            .iter()
            .map(|c| serial.evaluate(c).unwrap())
            .collect();
        let mut parallel = SupernetEvaluator::new(
            &mut parallel_net,
            &splits.val,
            ood,
            LatencyProvider::Constant(1.0),
            8,
        );
        let got = parallel.evaluate_many_with_workers(&configs, 3).unwrap();
        assert_eq!(got.len(), expect.len());
        for (a, b) in expect.iter().zip(&got) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.metrics, b.metrics, "parallel metrics must equal serial");
            assert_eq!(a.latency_ms, b.latency_ms);
        }
        // The duplicate "BBB" is deduplicated: three fresh evaluations.
        assert_eq!(parallel.fresh_evaluations(), 3);
    }

    #[test]
    fn parallel_evaluation_keeps_the_supernet_backend() {
        use nds_data::{mnist_like, DatasetConfig};
        use nds_engine::Backend;
        let splits = mnist_like(&DatasetConfig {
            train: 48,
            val: 16,
            test: 8,
            seed: 22,
            noise: 0.05,
        });
        let spec = SupernetSpec::paper_default(zoo::lenet(), 32).unwrap();
        let mut serial_net = Supernet::build(&spec).unwrap();
        let mut parallel_net = Supernet::build(&spec).unwrap();
        for net in [&mut serial_net, &mut parallel_net] {
            net.engine_mut().set_backend(Backend::quantized(4).unwrap());
        }
        let ood = splits.val.ood_noise(8, &mut Rng64::new(6));
        let configs: Vec<DropoutConfig> = ["BBB", "RBM", "KKB"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let mut serial = SupernetEvaluator::new(
            &mut serial_net,
            &splits.val,
            ood.clone(),
            LatencyProvider::Constant(1.0),
            8,
        );
        let expect: Vec<Candidate> = configs
            .iter()
            .map(|c| serial.evaluate(c).unwrap())
            .collect();
        let mut parallel = SupernetEvaluator::new(
            &mut parallel_net,
            &splits.val,
            ood,
            LatencyProvider::Constant(1.0),
            8,
        );
        let got = parallel.evaluate_many_with_workers(&configs, 3).unwrap();
        for (a, b) in expect.iter().zip(&got) {
            assert_eq!(
                a.metrics, b.metrics,
                "forks must score on the quantized datapath"
            );
        }
    }

    #[test]
    fn exact_provider_matches_model() {
        let model = AcceleratorModel::new(AcceleratorConfig::lenet_paper());
        let arch = zoo::lenet();
        let config: DropoutConfig = "RRB".parse().unwrap();
        let expect = model.latency_ms(&arch, &config).unwrap();
        let provider = LatencyProvider::Exact { model, arch };
        assert_eq!(provider.latency_ms(&config).unwrap(), expect);
        let constant = LatencyProvider::Constant(1.5);
        assert_eq!(constant.latency_ms(&config).unwrap(), 1.5);
    }
}
