//! The traced layer walk: times `Layer::forward_ws` / `forward_mc_fused`
//! for every top-level layer of a network at a workload's shapes, goes
//! inside residual blocks by rebuilding their paths from the
//! architecture, and computes MACs and bytes moved from the shapes.

use crate::stats::median;
use nds_nn::arch::{Architecture, LayerDef};
use nds_nn::layers::Sequential;
use nds_nn::train::{output_classes, predict_probs_fused_into_ws};
use nds_nn::{Layer, Mode};
use nds_tensor::rng::Rng64;
use nds_tensor::{Tensor, Workspace};
use std::collections::BTreeMap;
use std::time::Instant;

/// The kind a layer's time is reported under, from its name.
fn kind_of(name: &str) -> &'static str {
    let prefixes: [(&str, &'static str); 12] = [
        ("conv2d", "conv"),
        ("patch_embed", "conv"),
        ("max_pool", "pool"),
        ("global_avg_pool", "pool"),
        ("token_mean_pool", "pool"),
        ("linear", "linear"),
        ("batch_norm", "norm"),
        ("layer_norm", "norm"),
        ("relu", "act"),
        ("residual", "residual"),
        ("slot", "slot"),
        ("dropout", "slot"),
    ];
    prefixes
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map(|&(_, kind)| kind)
        .unwrap_or("other")
}

/// Multiply-accumulates of one call, from the layer's name and shapes
/// (`conv2d(cin->cout, kxk/sS pP)`, `linear(in->out)`).
fn macs_of(name: &str, input: &Tensor, output: &Tensor) -> f64 {
    let numbers: Vec<f64> = name
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    let out = output.shape().dims();
    if name.starts_with("conv2d") && numbers.len() >= 4 && out.len() == 4 {
        // Number order: 2 (from "conv2d"), cin, cout, k, k, s, p.
        let (cin, k) = (numbers[1], numbers[3]);
        (out[0] * out[1] * out[2] * out[3]) as f64 * cin * k * k
    } else if name.starts_with("linear") && numbers.len() >= 2 {
        input.shape().dim(0) as f64 * numbers[0] * numbers[1]
    } else {
        0.0
    }
}

#[derive(Debug, Clone, Default)]
pub struct KindTotals {
    pub ms: f64,
    pub macs: f64,
    pub bytes: f64,
    pub layers: usize,
}

#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: String,
    pub kind: &'static str,
    pub rows: usize,
    pub ms: f64,
    pub macs: f64,
    pub bytes: f64,
    /// Inside a residual block (its time is part of the block's row).
    pub inner: bool,
}

/// The result of one walk. Times are per predict-equivalent pass: the
/// S round-major passes summed, or the one fused sample-major pass.
#[derive(Debug, Clone)]
pub struct Walk {
    pub rows: Vec<LayerRow>,
    pub kinds: BTreeMap<&'static str, KindTotals>,
    /// Sum of the top-level layer times.
    pub layer_sum_ms: f64,
    /// The same pass timed as whole `Sequential` calls.
    pub whole_ms: f64,
    /// Per-sample time of the deterministic prefix (A) and of the rest
    /// (D), from the first stochastic layer on.
    pub prefix_ms: f64,
    pub rest_ms: f64,
    pub samples: usize,
}

impl Walk {
    pub fn kind_ms(&self, kind: &str) -> f64 {
        self.kinds.get(kind).map(|k| k.ms).unwrap_or(0.0)
    }

    pub fn layer_sum_ratio(&self) -> f64 {
        self.layer_sum_ms / self.whole_ms
    }

    /// Measured A / (A + D).
    pub fn prefix_share(&self) -> f64 {
        self.prefix_ms / (self.prefix_ms + self.rest_ms)
    }

    /// The sample-major speed-up cap S(A+D)/(A+S·D) from the measured A, D.
    pub fn sample_major_cap(&self) -> f64 {
        let s = self.samples as f64;
        s * (self.prefix_ms + self.rest_ms) / (self.prefix_ms + s * self.rest_ms)
    }

    pub fn conv_gmacs_per_s(&self) -> f64 {
        let conv = self.kinds.get("conv").cloned().unwrap_or_default();
        conv.macs / (conv.ms * 1e6)
    }

    pub fn report(&self, title: &str) -> String {
        let mut s = format!(
            "layer walk: {title}, S={}, whole pass {:.4} ms, layer sum {:.4} ms (ratio {:.4})\n",
            self.samples,
            self.whole_ms,
            self.layer_sum_ms,
            self.layer_sum_ratio()
        );
        s.push_str(&format!(
            "  {:<44} {:>6} {:>10} {:>12} {:>12}\n",
            "layer", "rows", "ms", "MMACs", "MB moved"
        ));
        for row in &self.rows {
            let label = if row.inner {
                format!("  {}", row.name)
            } else {
                row.name.clone()
            };
            s.push_str(&format!(
                "  {:<44} {:>6} {:>10.4} {:>12.3} {:>12.3}\n",
                label,
                row.rows,
                row.ms,
                row.macs / 1e6,
                row.bytes / 1e6
            ));
        }
        s.push_str("  per kind (residual = block self time; inner layers counted by kind):\n");
        for (kind, t) in &self.kinds {
            s.push_str(&format!(
                "  {:<10} {:>3} layers {:>10.4} ms {:>12.3} MMACs {:>10.3} MB\n",
                kind,
                t.layers,
                t.ms,
                t.macs / 1e6,
                t.bytes / 1e6
            ));
        }
        s.push_str(&format!(
            "  A (prefix) {:.4} ms, D (rest) {:.4} ms per sample: prefix share {:.4}, \
             sample-major cap S(A+D)/(A+S*D) = {:.4}\n",
            self.prefix_ms,
            self.rest_ms,
            self.prefix_share(),
            self.sample_major_cap()
        ));
        s
    }
}

/// How the walked pass is laid out.
#[derive(Debug, Clone, Copy)]
pub struct WalkPlan {
    pub samples: usize,
    /// Fused `(S·B)`-row pass after the deterministic prefix, as
    /// `Execution::SampleMajor` runs it; otherwise S passes of B rows.
    pub sample_major: bool,
    pub reps: usize,
}

/// One pass of every top-level layer; returns per-layer times (ms) and
/// the final output, recycling intermediates.
fn timed_pass(
    layers: &mut Sequential,
    input: &Tensor,
    plan: WalkPlan,
    ws: &mut Workspace,
    times: &mut [f64],
    shapes: &mut Vec<(Tensor, Tensor)>,
    keep_shapes: bool,
) -> Tensor {
    let mut x = ws.take_copy(input);
    let mut fused = false;
    for (index, layer) in layers.each_layer_mut().enumerate() {
        // Tiling into the fused batch is charged to the first stochastic
        // layer, which is what forces it.
        let t = Instant::now();
        if plan.sample_major && !fused && layer.mc_is_stochastic() {
            let tiled = ws.take_tiled(&x, plan.samples).expect("tile rows");
            ws.recycle_tensor(std::mem::replace(&mut x, tiled));
            fused = true;
        }
        let y = if plan.sample_major {
            layer.forward_mc_fused(&x, plan.samples, ws)
        } else {
            layer.forward_ws(&x, Mode::McInference, ws)
        }
        .expect("layer forward at the workload's shapes");
        times[index] += t.elapsed().as_secs_f64() * 1e3;
        if keep_shapes {
            shapes.push((x.clone(), y.clone()));
        }
        ws.recycle_tensor(std::mem::replace(&mut x, y));
    }
    x
}

fn begin_pass(net: &mut Sequential, plan: WalkPlan, sample: usize) {
    net.begin_mc_round();
    if plan.sample_major {
        net.begin_mc_fused(plan.samples, 0);
    } else {
        net.begin_mc_sample(sample as u64);
    }
}

/// Walks `net` on `input` (B rows). `arch` supplies the residual blocks'
/// paths so their inner layers can be timed as well.
pub fn walk(net: &Sequential, arch: &Architecture, input: &Tensor, plan: WalkPlan) -> Walk {
    let mut net = net.clone();
    let mut ws = Workspace::new();
    let n_layers = net.len();
    let passes = if plan.sample_major { 1 } else { plan.samples };
    let first_stochastic = net
        .layers()
        .iter()
        .position(|l| l.mc_is_stochastic())
        .unwrap_or(n_layers);

    let classes = output_classes(&net, input.shape()).expect("classifier output");
    let mut slab = vec![0.0f32; plan.samples * input.shape().dim(0) * classes];
    // One rep is one predict-equivalent pass (S round-major passes or one
    // fused pass); rep 0 warms the workspace and records the shapes.
    let mut per_rep: Vec<Vec<f64>> = Vec::with_capacity(plan.reps);
    let mut shapes = Vec::new();
    let mut whole = Vec::with_capacity(plan.reps);
    for rep in 0..plan.reps + 1 {
        let mut times = vec![0.0; n_layers];
        for sample in 0..passes {
            begin_pass(&mut net, plan, sample);
            let keep = rep == 0 && sample == 0;
            let out = timed_pass(
                &mut net,
                input,
                plan,
                &mut ws,
                &mut times,
                &mut shapes,
                keep,
            );
            ws.recycle_tensor(out);
        }
        // The whole pass through the same code path the engine uses
        // (the plain `Sequential` forward for round-major).
        let t = Instant::now();
        for sample in 0..passes {
            begin_pass(&mut net, plan, sample);
            if plan.sample_major {
                predict_probs_fused_into_ws(
                    &mut net,
                    input,
                    plan.samples,
                    input.shape().dim(0),
                    &mut ws,
                    &mut slab,
                    None,
                )
                .expect("whole fused forward");
            } else {
                let out = net
                    .forward_ws(input, Mode::McInference, &mut ws)
                    .expect("whole forward");
                ws.recycle_tensor(out);
            }
        }
        let whole_ms = t.elapsed().as_secs_f64() * 1e3;
        if rep > 0 {
            per_rep.push(times);
            whole.push(whole_ms);
        }
    }

    let layer_ms: Vec<f64> = (0..n_layers)
        .map(|i| median(&per_rep.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let mut rows = Vec::new();
    let mut kinds: BTreeMap<&'static str, KindTotals> = BTreeMap::new();
    let mut residual_defs = arch
        .defs
        .iter()
        .filter_map(|d| match d {
            LayerDef::Residual { main, shortcut } => Some((main.clone(), shortcut.clone())),
            _ => None,
        })
        .collect::<Vec<_>>()
        .into_iter();
    for (index, layer) in net.layers().iter().enumerate() {
        let name = layer.name();
        let kind = kind_of(&name);
        let (x, y) = &shapes[index];
        let params = nds_nn::param_count(layer.as_ref()) as f64;
        // A residual join reads the main and shortcut outputs and writes
        // one; its inner layers account for their own traffic.
        let elems = if kind == "residual" {
            3.0 * y.len() as f64
        } else {
            x.len() as f64 + y.len() as f64 + params
        };
        let bytes = 4.0 * elems;
        let macs = macs_of(&name, x, y) * passes as f64;
        let inner = if kind == "residual" {
            residual_defs
                .next()
                .map(|(main, shortcut)| walk_residual(&main, &shortcut, x, plan, passes))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        // A residual row keeps its whole block time; the kind table takes
        // the block's own work (the join and final activation), so the
        // kinds still sum to the layer sum.
        let inner_ms: f64 = inner.iter().map(|r| r.ms).sum();
        add_kind(
            &mut kinds,
            kind,
            (layer_ms[index] - inner_ms).max(0.0),
            macs,
            bytes * passes as f64,
        );
        rows.push(LayerRow {
            name,
            kind,
            rows: x.shape().dim(0),
            ms: layer_ms[index],
            macs,
            bytes: bytes * passes as f64,
            inner: false,
        });
        for row in inner {
            add_kind(&mut kinds, row.kind, row.ms, row.macs, row.bytes);
            rows.push(row);
        }
    }
    let layer_sum_ms: f64 = layer_ms.iter().sum();
    // A and D per sample: the prefix runs once per pass, the rest covers
    // all S samples (S passes, or one fused pass of S·B rows).
    let prefix_ms = layer_ms[..first_stochastic].iter().sum::<f64>() / passes as f64;
    let rest_ms = layer_ms[first_stochastic..].iter().sum::<f64>() / plan.samples as f64;
    Walk {
        rows,
        kinds,
        layer_sum_ms,
        whole_ms: median(&whole),
        prefix_ms,
        rest_ms,
        samples: plan.samples,
    }
}

fn add_kind(
    kinds: &mut BTreeMap<&'static str, KindTotals>,
    kind: &'static str,
    ms: f64,
    macs: f64,
    bytes: f64,
) {
    let entry = kinds.entry(kind).or_default();
    entry.ms += ms;
    entry.macs += macs;
    entry.bytes += bytes;
    entry.layers += 1;
}

/// Times a residual block's main and shortcut paths, rebuilt from the
/// architecture (fresh weights; the cost of a layer does not depend on
/// its weight values).
fn walk_residual(
    main: &[LayerDef],
    shortcut: &[LayerDef],
    input: &Tensor,
    plan: WalkPlan,
    passes: usize,
) -> Vec<LayerRow> {
    let dims = input.shape().dims();
    let mut rows = Vec::new();
    for path in [main, shortcut] {
        if path.is_empty() {
            continue;
        }
        let arch = Architecture {
            name: "residual-path".to_string(),
            input: (dims[1], dims[2], dims[3]),
            classes: 0,
            defs: path.to_vec(),
        };
        let mut seq = arch
            .build_with_identity_slots(&mut Rng64::new(0x5E5))
            .expect("residual path rebuilds from its definition");
        let mut ws = Workspace::new();
        let inner_plan = WalkPlan {
            sample_major: false,
            samples: 1,
            ..plan
        };
        let n = seq.len();
        let mut per_rep = Vec::new();
        let mut shapes = Vec::new();
        for rep in 0..plan.reps + 1 {
            let mut times = vec![0.0; n];
            let out = timed_pass(
                &mut seq,
                input,
                inner_plan,
                &mut ws,
                &mut times,
                &mut shapes,
                rep == 0,
            );
            ws.recycle_tensor(out);
            if rep > 0 {
                per_rep.push(times);
            }
        }
        for (index, layer) in seq.layers().iter().enumerate() {
            let name = layer.name();
            let (x, y) = &shapes[index];
            let params = nds_nn::param_count(layer.as_ref()) as f64;
            let ms = median(&per_rep.iter().map(|r| r[index]).collect::<Vec<_>>()) * passes as f64;
            rows.push(LayerRow {
                kind: kind_of(&name),
                rows: x.shape().dim(0),
                ms,
                macs: macs_of(&name, x, y) * passes as f64,
                bytes: 4.0 * (x.len() as f64 + y.len() as f64 + params) * passes as f64,
                name,
                inner: true,
            });
        }
    }
    rows
}

/// Copies a walk's per-kind numbers into the per-layer metrics.
pub fn set_layer_metrics(out: &mut crate::Outcome, walk: &Walk) {
    out.set("nn.conv_ms", walk.kind_ms("conv"));
    out.set("nn.pool_ms", walk.kind_ms("pool"));
    out.set("nn.linear_ms", walk.kind_ms("linear"));
    out.set("nn.norm_ms", walk.kind_ms("norm"));
    out.set("nn.act_ms", walk.kind_ms("act"));
    out.set("nn.residual_ms", walk.kind_ms("residual"));
    out.set("nn.other_ms", walk.kind_ms("other"));
    out.set("dropout.slot_ms", walk.kind_ms("slot"));
    out.set("nn.layer_sum_ratio", walk.layer_sum_ratio());
    out.set("dropout.prefix_share", walk.prefix_share());
    out.set("dropout.sample_major_cap", walk.sample_major_cap());
    out.set("tensor.conv_gmacs_per_s", walk.conv_gmacs_per_s());
}
