//! Supernet scoring order bridge: sample-major ↔ round-major.
//!
//! `Supernet::evaluate` scores candidates sample-major (one fused
//! `(S·B)`-row pass per chunk). The engine-level bridge
//! (`tests/sample_major.rs`) pins that order on hand-built nets with a
//! single fixed dropout layer; this suite pins it where the search
//! actually uses it — through the supernet's `SlotLayer`s, whose fused
//! hooks must follow a per-candidate path switch, batch-norm
//! recalibration between candidates, and chunking of a ragged
//! validation set. Every check compares whole `CandidateMetrics` bit
//! for bit.

use neural_dropout_search::data::{cifar_like, mnist_like, Dataset, DatasetConfig, Splits};
use neural_dropout_search::engine::Execution;
use neural_dropout_search::nn::optim::LrSchedule;
use neural_dropout_search::nn::train::TrainConfig;
use neural_dropout_search::nn::zoo;
use neural_dropout_search::supernet::{CandidateMetrics, DropoutConfig, Supernet, SupernetSpec};
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::Tensor;

fn bits(m: &CandidateMetrics) -> [u64; 3] {
    [m.accuracy.to_bits(), m.ece.to_bits(), m.ape.to_bits()]
}

/// A briefly SPOS-trained supernet, so paths produce distinct outputs.
fn trained(spec: &SupernetSpec, splits: &Splits) -> Supernet {
    let mut net = Supernet::build(spec).unwrap();
    let config = TrainConfig {
        epochs: 1,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        momentum: 0.9,
        weight_decay: 1e-4,
        ..TrainConfig::default()
    };
    net.train_spos(&splits.train, &config, &mut Rng64::new(spec.seed ^ 0x7A))
        .unwrap();
    net
}

/// Scores every config under both orders, alternating order and
/// candidate so each evaluation follows a different path than the one
/// before it, and requires bitwise-equal metrics.
fn assert_orders_agree(
    net: &mut Supernet,
    configs: &[DropoutConfig],
    val: &Dataset,
    ood: &Tensor,
    batch: usize,
) {
    assert_eq!(
        net.engine_mut().execution(),
        Execution::SampleMajor,
        "supernets score sample-major"
    );
    for config in configs {
        net.engine_mut().set_execution(Execution::SampleMajor);
        let fused = net.evaluate(config, val, ood, batch).unwrap();
        net.engine_mut().set_execution(Execution::RoundMajor);
        let round = net.evaluate(config, val, ood, batch).unwrap();
        assert_eq!(
            bits(&fused),
            bits(&round),
            "{config}: sample-major {fused:?} vs round-major {round:?}"
        );
    }
    net.engine_mut().set_execution(Execution::SampleMajor);
}

fn data(seed: u64, train: usize, val: usize) -> Splits {
    let config = DatasetConfig {
        train,
        val,
        test: 8,
        seed,
        noise: 0.05,
    };
    mnist_like(&config)
}

#[test]
fn every_lenet_paper_config_scores_identically_in_both_orders() {
    let splits = data(41, 64, 16);
    let spec = SupernetSpec::paper_default(zoo::lenet(), 42).unwrap();
    let configs = spec.enumerate();
    assert_eq!(configs.len(), 32);
    let mut net = trained(&spec, &splits);
    let ood = splits.val.ood_noise(8, &mut Rng64::new(43));
    assert_orders_agree(&mut net, &configs, &splits.val, &ood, 16);
}

#[test]
fn extended_gaussian_space_scores_identically_in_both_orders() {
    let splits = data(51, 64, 16);
    let spec = SupernetSpec::extended_default(zoo::lenet(), 52).unwrap();
    let mut rng = Rng64::new(53);
    let mut configs: Vec<DropoutConfig> = (0..10).map(|_| spec.sample_config(&mut rng)).collect();
    // Always cover a Gaussian slot at each position.
    configs.push("GGG".parse().unwrap());
    let mut net = trained(&spec, &splits);
    let ood = splits.val.ood_noise(8, &mut Rng64::new(54));
    assert_orders_agree(&mut net, &configs, &splits.val, &ood, 16);
}

#[test]
fn recalibrated_batch_norm_supernet_scores_identically_in_both_orders() {
    let splits = cifar_like(&DatasetConfig {
        train: 32,
        val: 12,
        test: 8,
        seed: 61,
        noise: 0.05,
    });
    let spec = SupernetSpec::paper_default(zoo::resnet18(2), 62).unwrap();
    let mut net = Supernet::build(&spec).unwrap();
    net.set_calibration_from(&splits.train, 2, 16, &mut Rng64::new(63));
    let configs: Vec<DropoutConfig> = ["BBBB", "KMBM", "RKRB", "MMMM"]
        .iter()
        .map(|c| c.parse().unwrap())
        .collect();
    let ood = splits.val.ood_noise(4, &mut Rng64::new(64));
    assert_orders_agree(&mut net, &configs, &splits.val, &ood, 8);
}

#[test]
fn ragged_validation_set_scores_identically_in_both_orders() {
    // 37 images at batch 16: two full chunks and a ragged one of 5; an
    // OOD probe of 11 leaves a ragged chunk too.
    let splits = data(71, 64, 37);
    let spec = SupernetSpec::paper_default(zoo::lenet(), 72).unwrap();
    let configs: Vec<DropoutConfig> = ["BBB", "RKM", "MMM", "KRB"]
        .iter()
        .map(|c| c.parse().unwrap())
        .collect();
    let mut net = trained(&spec, &splits);
    let ood = splits.val.ood_noise(11, &mut Rng64::new(73));
    assert_orders_agree(&mut net, &configs, &splits.val, &ood, 16);
}
