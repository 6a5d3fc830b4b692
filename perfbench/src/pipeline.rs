//! `pipeline-lenet`: the paper's flow at the `Specification::lenet_demo`
//! settings. Set-up: MNIST-like data generation and the supernet build.
//! Timed: SPOS training, a 2-island campaign (`migrate_every` 1, exact
//! latency through `AcceleratorModel`), then `analyze` and
//! `generate_project` of the winner, kept in memory. Repeats until the
//! run's time is spent; every repeat must find the same winner and
//! archive.
//!
//! The flow runs at one fixed specification seed, so every run does the
//! same work: how much the search evaluates, and on which
//! configurations, depends on the problem, and across specification
//! seeds the pipeline time differs by more than the benchmark's bounds.
//! `--seed` therefore does not change this workload's inputs.

use crate::machine::{cleanest, Disturbance, PartMeter};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::walk::{walk, WalkPlan};
use crate::{Args, Outcome};
use nds_campaign::{island_seed, Campaign, CampaignEvent};
use nds_core::Specification;
use nds_data::{generate, Splits};
use nds_hls::generate_project;
use nds_hw::accel::AcceleratorModel;
use nds_search::{Candidate, LatencyProvider, SearchBuilder, Strategy};
use nds_supernet::Supernet;
use nds_tensor::rng::Rng64;
use std::time::Instant;

const ISLANDS: usize = 2;
const MIGRATE_EVERY: usize = 1;
/// The winner must at least reach this validation accuracy (chance is
/// 0.1 on the ten MNIST-like classes).
const ACCURACY_FLOOR: f64 = 0.5;
const MIN_REPEATS: usize = 2;
/// The specification seed (the `nds_core` documentation example's).
const SPEC_SEED: u64 = 42;

struct Repeat {
    setup_s: f64,
    generate_ms: f64,
    train_s: f64,
    train_images: usize,
    search_s: f64,
    epoch_s: Vec<f64>,
    merge_ms: f64,
    analyze_ms: f64,
    generate_project_ms: f64,
    total_s: f64,
    /// How much the host disturbed the timed body.
    disturbance: Disturbance,
    fresh: usize,
    proposed: usize,
    best: Candidate,
    fingerprint: u64,
    stage_cycles: Vec<(String, f64)>,
    extras: Option<TracedExtras>,
}

/// Traced-run extras measured on the trained supernet after the timed
/// body.
struct TracedExtras {
    evaluate_ms: f64,
    latency_model_us: f64,
    walk: crate::walk::Walk,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn candidate_bytes(hash: &mut u64, c: &Candidate) {
    fnv(hash, c.config.compact().as_bytes());
    for v in [
        c.metrics.accuracy,
        c.metrics.ece,
        c.metrics.ape,
        c.latency_ms,
    ] {
        fnv(hash, &v.to_bits().to_le_bytes());
    }
}

fn one_repeat(spec: &Specification, id: u64, tracer: &mut Tracer, extras: bool) -> Repeat {
    let root = tracer.begin("pipeline", id);
    // Set-up: data generation and the supernet build.
    let t = Instant::now();
    let supernet_spec = spec.supernet_spec().expect("lenet_demo spec");
    let t_data = Instant::now();
    let splits: Splits = tracer.span("data.generate", id, || {
        generate(spec.dataset, &spec.dataset_config)
    });
    let generate_ms = t_data.elapsed().as_secs_f64() * 1e3;
    let mut supernet = tracer.span("supernet.build", id, || {
        Supernet::build(&supernet_spec).expect("supernet build")
    });
    let setup_s = t.elapsed().as_secs_f64();

    // Timed body.
    let mut meter = PartMeter::start();
    meter.probe();
    let t_total = Instant::now();
    let mut rng = Rng64::new(spec.seed ^ 0x7EA1);
    let t = Instant::now();
    tracer.span("supernet.train_spos", id, || {
        supernet
            .train_spos(&splits.train, &spec.train, &mut rng)
            .expect("SPOS training")
    });
    let train_s = t.elapsed().as_secs_f64();
    meter.probe();
    let train_images = splits.train.len() * spec.train.epochs;

    let t_search = Instant::now();
    if spec.calibration_batches > 0 {
        supernet.set_calibration_from(
            &splits.train,
            spec.calibration_batches,
            spec.batch_size,
            &mut rng.fork(0xCA11B),
        );
    }
    let ood = splits
        .train
        .ood_noise(spec.ood_samples, &mut rng.fork(0x00D));
    let hw_arch = spec.hardware_arch().clone();
    let model = AcceleratorModel::new(spec.accel.clone());
    let latency = LatencyProvider::Exact {
        model: model.clone(),
        arch: hw_arch.clone(),
    };
    let mut forks: Vec<Supernet> = (0..ISLANDS)
        .map(|_| supernet.fork().expect("fork"))
        .collect();
    let mut sessions = Vec::with_capacity(ISLANDS);
    for (index, fork) in forks.iter_mut().enumerate() {
        sessions.push(
            SearchBuilder::new(fork)
                .strategy(Strategy::Evolution(spec.evolution))
                .aim(spec.aim.clone())
                .validation(&splits.val)
                .ood(ood.clone())
                .latency(latency.clone())
                .batch_size(spec.batch_size)
                .seed(island_seed(spec.seed, index))
                .build()
                .expect("island session"),
        );
    }
    let mut campaign = Campaign::new(&mut sessions, MIGRATE_EVERY).expect("campaign");
    let mut epoch_s = Vec::new();
    let mut steps = 0usize;
    while !campaign.is_finished() {
        let t = Instant::now();
        let span = tracer.begin("campaign.run_epoch", id);
        campaign
            .run_epoch(|event| {
                if let CampaignEvent::IslandStep { .. } = event {
                    steps += 1;
                }
            })
            .expect("campaign epoch");
        tracer.end(span);
        epoch_s.push(t.elapsed().as_secs_f64());
        meter.probe();
    }
    let t = Instant::now();
    let archive = tracer.span("campaign.merged_archive", id, || {
        campaign.merged_archive().expect("merge")
    });
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = campaign.outcome().expect("campaign outcome");
    let fresh = campaign.budget_spent();
    let search_s = t_search.elapsed().as_secs_f64();

    let t = Instant::now();
    let report = tracer.span("hw.analyze", id, || {
        model
            .analyze(&hw_arch, &outcome.best.config)
            .expect("analyze")
    });
    let analyze_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let project = tracer.span("hls.generate_project", id, || {
        generate_project(&hw_arch, &outcome.best.config, &spec.accel, None).expect("hls")
    });
    let generate_project_ms = t.elapsed().as_secs_f64() * 1e3;
    let total_s = t_total.elapsed().as_secs_f64();
    meter.probe();
    let disturbance = meter.finish();
    tracer.end(root);

    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    candidate_bytes(&mut fingerprint, &outcome.best);
    for candidate in archive.candidates() {
        candidate_bytes(&mut fingerprint, candidate);
    }
    for (path, contents) in project.files() {
        fnv(&mut fingerprint, path.as_bytes());
        fnv(&mut fingerprint, contents.as_bytes());
    }
    let stage_cycles = report
        .stages
        .iter()
        .map(|s| (s.name.clone(), s.compute_cycles + s.dropout_stall_cycles))
        .collect();

    let extras = extras.then(|| {
        // Per-candidate cost, outside the campaign: `Supernet::evaluate`
        // and the exact latency model on the archive's configurations.
        let configs: Vec<_> = archive
            .candidates()
            .iter()
            .take(6)
            .map(|c| c.config.clone())
            .collect();
        let mut fork = supernet.fork().expect("fork");
        let mut eval_ms = Vec::new();
        for config in &configs {
            let t = Instant::now();
            tracer.span("supernet.evaluate", id, || {
                fork.evaluate(config, &splits.val, &ood, spec.batch_size)
                    .expect("evaluate")
            });
            eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut latency_us = Vec::new();
        for _ in 0..50 {
            for config in &configs {
                let t = Instant::now();
                std::hint::black_box(latency.latency_ms(config).expect("latency model"));
                latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        // The layer walk of the winner at the evaluation batch, as
        // `Supernet::evaluate` runs it (round-major).
        supernet.set_config(&outcome.best.config).expect("winner");
        let rows: Vec<usize> = (0..spec.batch_size.min(splits.val.len())).collect();
        let (batch, _) = splits.val.batch(&rows);
        let walk = tracer.span("nn.walk", id, || {
            walk(
                supernet.net(),
                &spec.arch,
                &batch,
                WalkPlan {
                    samples: supernet.sampling_number(),
                    sample_major: false,
                    reps: 40,
                },
            )
        });
        TracedExtras {
            evaluate_ms: median(&eval_ms),
            latency_model_us: median(&latency_us),
            walk,
        }
    });

    Repeat {
        setup_s,
        generate_ms,
        train_s,
        train_images,
        search_s,
        epoch_s,
        merge_ms,
        analyze_ms,
        generate_project_ms,
        total_s,
        disturbance,
        fresh,
        proposed: steps * spec.evolution.population,
        best: outcome.best,
        fingerprint,
        stage_cycles,
        extras,
    }
}

pub fn run(args: &Args, mut tracer: Tracer) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let spec = Specification::lenet_demo(SPEC_SEED);
    let start = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    // In a traced run the first repeat runs untraced, for the overhead.
    let mut untraced = Tracer::new(false, start, "main");
    while repeats.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < args.seconds {
        let id = repeats.len() as u64;
        out.attempted += 1;
        let traced = tracer.enabled() && id > 0;
        let extras = tracer.enabled() && id == 1;
        let repeat = if traced {
            one_repeat(&spec, id, &mut tracer, extras)
        } else {
            one_repeat(&spec, id, &mut untraced, false)
        };
        repeats.push(repeat);
    }

    let first = &repeats[0];
    let same = repeats.iter().all(|r| r.fingerprint == first.fingerprint);
    out.check(
        same,
        format!(
            "winner/archive/HLS fingerprint {:016x} identical across {} repeats",
            first.fingerprint,
            repeats.len()
        ),
    );
    out.check(
        first.best.metrics.accuracy >= ACCURACY_FLOOR,
        format!(
            "winner {} accuracy {:.4} >= floor {ACCURACY_FLOOR}",
            first.best.config, first.best.metrics.accuracy
        ),
    );

    // Timings come from the half of the repeats the host disturbed least.
    let timed = cleanest(
        repeats
            .iter()
            .map(|r| (r.disturbance.probe_us, r))
            .collect(),
        2,
    );
    let col = |f: fn(&Repeat) -> f64| timed.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let total_ms: Vec<f64> = col(|r| r.total_s * 1e3);
    let summary = Summary::of(&total_ms);
    let train_s = median(&col(|r| r.train_s));
    let search_s = median(&col(|r| r.search_s));
    let candidates_per_s = first.fresh as f64 / search_s;
    let train_images_per_s = first.train_images as f64 / train_s;

    out.set(
        "setup_s",
        median(&repeats.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    out.set("p50_ms", summary.p50);
    out.set("tail_ms", summary.tail);
    out.set("goodput_rps", candidates_per_s);
    out.set("images_per_s", train_images_per_s);
    out.set("winner_accuracy", first.best.metrics.accuracy);
    out.set("winner_ece", first.best.metrics.ece);
    out.note(format!(
        "pipeline-lenet: {} repeats, host steal / probe us (pipeline s) per repeat {}; pipeline_s over \
         the least disturbed {}: {}",
        repeats.len(),
        repeats
            .iter()
            .map(|r| format!(
                "{:.3}/{:.1} ({:.3} s)",
                r.disturbance.steal, r.disturbance.probe_us, r.total_s
            ))
            .collect::<Vec<_>>()
            .join(" "),
        timed.len(),
        Summary::of(&col(|r| r.total_s)).describe("s")
    ));
    out.note(format!(
        "  train {train_s:.4} s ({train_images_per_s:.1} images/s), search {search_s:.4} s \
         ({} fresh of {} proposed: {candidates_per_s:.2} candidates/s)",
        first.fresh, first.proposed,
    ));
    out.note(format!(
        "  winner {} accuracy {:.6} ece {:.6} ape {:.6} latency {:.6} ms",
        first.best.config,
        first.best.metrics.accuracy,
        first.best.metrics.ece,
        first.best.metrics.ape,
        first.best.latency_ms
    ));

    // Per-layer numbers.
    let epochs: Vec<f64> = timed.iter().flat_map(|r| r.epoch_s.clone()).collect();
    out.set(
        "data.generate_ms",
        median(&repeats.iter().map(|r| r.generate_ms).collect::<Vec<_>>()),
    );
    out.set("supernet.train_s", train_s);
    out.set("supernet.train_images_per_s", train_images_per_s);
    out.set("campaign.epoch_s.p50", median(&epochs));
    out.set("campaign.merge_ms", median(&col(|r| r.merge_ms)));
    out.set("search.fresh_evals", first.fresh as f64);
    out.set(
        "search.memo_hit_ratio",
        1.0 - first.fresh as f64 / first.proposed.max(1) as f64,
    );
    out.set("search.candidates_per_s", candidates_per_s);
    out.set("hw.analyze_ms", median(&col(|r| r.analyze_ms)));
    out.set("hls.generate_ms", median(&col(|r| r.generate_project_ms)));
    out.set("pipeline.pipeline_s", summary.p50 / 1e3);

    if tracer.enabled() {
        let untraced_s = repeats[0].total_s;
        let traced_s = median(&repeats[1..].iter().map(|r| r.total_s).collect::<Vec<_>>());
        let overhead = traced_s / untraced_s - 1.0;
        out.set("trace.overhead_share", overhead);
        out.note(format!(
            "tracing overhead: traced pipeline {traced_s:.4} s vs untraced {untraced_s:.4} s \
             ({:+.2}%)",
            overhead * 100.0
        ));
        let measured = repeats
            .iter()
            .find_map(|r| r.extras.as_ref().map(|e| (r, e)));
        if let Some((repeat, extras)) = measured {
            out.set("search.evaluate_ms", extras.evaluate_ms);
            out.set("search.latency_model_us", extras.latency_model_us);
            out.note(extras.walk.report(&format!(
                "lenet winner {} at the evaluation batch, round-major",
                repeat.best.config
            )));
            crate::walk::set_layer_metrics(&mut out, &extras.walk);
            out.note(stage_table(&repeat.stage_cycles, &extras.walk));
        }
    }
    out.tracers.push(untraced);
    out.tracers.push(tracer);
    out
}

/// The accelerator model's per-stage cycle share for the winner next to
/// the measured CPU share of the matching layers.
fn stage_table(stages: &[(String, f64)], walk: &crate::walk::Walk) -> String {
    let cycles: f64 = stages.iter().map(|(_, c)| c).sum();
    let cpu: f64 = walk.rows.iter().filter(|r| !r.inner).map(|r| r.ms).sum();
    let mut s = String::from("  accelerator stage cycle share vs measured CPU share:\n");
    let mut rows = walk.rows.iter().filter(|r| !r.inner);
    for (name, c) in stages {
        // Stages follow layer order; match each to the next layer of the
        // same name.
        let measured = rows
            .by_ref()
            .find(|r| r.name == *name)
            .map(|r| format!("{:>8.2}%", 100.0 * r.ms / cpu))
            .unwrap_or_else(|| "       -".to_string());
        s.push_str(&format!(
            "    {:<40} cycles {:>8.2}%   cpu {measured}\n",
            name,
            100.0 * c / cycles
        ));
    }
    s
}
