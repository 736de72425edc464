//! Pinned bits of the transformer training and serving step.
//!
//! Every tiny-BERT graph kind trains for six Adam steps at several
//! `(seq, batch)` shapes, and three FNV-1a hashes are compared against
//! values recorded before the small-shape kernel and head-view attention
//! replaced the per-head tensor path:
//!
//! * `forward` — every node output of the first training forward, plus the
//!   batched inference forward of the trained graph;
//! * `losses` — the loss of each step;
//! * `params` — every parameter of every node after the last step.
//!
//! A hash moves when a single output bit moves, so any refactor of
//! `dnn::exec` or of the matmul kernels that changes summation order,
//! zero handling or the naive/blocked dispatch shows up here. The last
//! shape makes per-record attention work exceed `GEMM_THRESHOLD` (so the
//! records fan out over the pool) and per-head products cross into the
//! blocked GEMM.
//!
//! The hashes cover `f32::tanh`/`exp` results, which come from the
//! platform's libm, so they are pinned for x86-64 Linux only; elsewhere
//! the test checks that two runs agree bitwise.

use nautilus_dnn::exec::{backward, forward, forward_batch, BatchInputs};
use nautilus_dnn::graph::ModelGraph;
use nautilus_dnn::{OptimizerSpec, TaskKind};
use nautilus_models::bert::{
    adapter_model, feature_transfer_model, fine_tune_model, BertConfig, FeatureStrategy,
};
use nautilus_models::BuildScale;
use nautilus_tensor::ops::gemm::{resolved_kernel, KernelKind};
use nautilus_tensor::ops::matmul::GEMM_THRESHOLD;
use nautilus_tensor::Tensor;
use nautilus_util::rng::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;

const VOCAB: usize = 60;
const TAGS: usize = 5;
const STEPS: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    SumLast4,
    ConcatLast4,
    FineTune2,
    Adapter3x8,
}

const KINDS: [Kind; 4] = [Kind::SumLast4, Kind::ConcatLast4, Kind::FineTune2, Kind::Adapter3x8];

/// `(seq, batch, wide)`: `wide` selects the config whose attention crosses
/// the dispatch thresholds.
const SHAPES: [(usize, usize, bool); 5] =
    [(12, 4, false), (12, 8, false), (16, 3, false), (40, 2, false), (64, 2, true)];

fn config(seq: usize, wide: bool) -> BertConfig {
    if wide {
        let (hidden, heads, ff, layers) = (64, 2, 128, 4);
        BertConfig { vocab: VOCAB, hidden, heads, ff, layers, seq_len: seq, seed: 1000 }
    } else {
        BertConfig::tiny(seq, VOCAB)
    }
}

fn build(kind: Kind, cfg: &BertConfig) -> ModelGraph {
    let real = BuildScale::Real;
    match kind {
        Kind::SumLast4 => feature_transfer_model(cfg, FeatureStrategy::SumLast4, TAGS, real),
        Kind::ConcatLast4 => feature_transfer_model(cfg, FeatureStrategy::ConcatLast4, TAGS, real),
        Kind::FineTune2 => fine_tune_model(cfg, 2, TAGS, real),
        Kind::Adapter3x8 => adapter_model(cfg, 3, 8, TAGS, real),
    }
    .expect("model builds")
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// `(forward, losses, params)` hashes of one training run.
fn run(kind: Kind, seq: usize, batch: usize, wide: bool) -> (u64, u64, u64) {
    let cfg = config(seq, wide);
    let mut g = build(kind, &cfg);
    let mut rng = StdRng::seed_from_u64((seq * 131 + batch) as u64 ^ 0xB175);
    let ids: Vec<f32> = (0..batch * seq).map(|_| rng.gen_range(0..VOCAB) as f32).collect();
    let targets: Vec<i64> = (0..batch * seq)
        .map(|_| if rng.gen_range(0u32..8) == 0 { -1 } else { rng.gen_range(0..TAGS as i64) })
        .collect();
    let input = g.input_ids()[0];
    let out_id = g.outputs()[0];
    let mut inputs = BatchInputs::new();
    inputs.insert(input, Tensor::from_vec([batch, seq], ids).unwrap());

    let trainable: Vec<_> = g.ids().filter(|&id| g.node(id).trainable()).collect();
    assert!(!trainable.is_empty(), "{kind:?} has nothing to train");
    let mut opt = OptimizerSpec::adam(1e-2).build(&trainable);
    let (mut fwd_h, mut loss_h, mut param_h) = (Fnv::new(), Fnv::new(), Fnv::new());
    for step in 0..STEPS {
        let fwd = forward(&g, &inputs, true).expect("forward");
        if step == 0 {
            for t in &fwd.outputs {
                fwd_h.f32s(t.data());
            }
        }
        let (loss, dlogits) =
            TaskKind::TokenTagging.loss(fwd.output(out_id), &targets).expect("loss");
        loss_h.f32s(&[loss]);
        let grads = backward(&g, &fwd, HashMap::from([(out_id, dlogits)])).expect("backward");
        opt.step(&mut g, &grads);
    }
    for node in g.nodes() {
        for p in &node.params {
            param_h.f32s(p.data());
        }
    }
    let served = forward_batch(&g, &inputs, batch).expect("forward_batch");
    fwd_h.f32s(served.output(out_id).data());
    (fwd_h.0, loss_h.0, param_h.0)
}

/// `(kind, seq, batch, forward, losses, params)`, recorded with the safe
/// kernel on x86-64 Linux.
const PINNED: [(Kind, usize, usize, u64, u64, u64); 20] = [
    (Kind::SumLast4, 12, 4, 0x4f1adad5cb278b42, 0x7e9438da15526f99, 0x1676f9073323669a),
    (Kind::SumLast4, 12, 8, 0xcb04ef02d3aa3d45, 0xe03277b827fd860e, 0xa8df1f057b38b362),
    (Kind::SumLast4, 16, 3, 0x438588f3c2411c64, 0x452b02c8246323a4, 0xf9566e7b9464bfbf),
    (Kind::SumLast4, 40, 2, 0xcbdc99435fdda8fb, 0xcd8bd9a9ea9a769f, 0xa4900df8db52f73f),
    (Kind::SumLast4, 64, 2, 0x7d49e2f69b34e8c2, 0x5ea183c7ef20f2ca, 0x5cdb5c583fd5fc25),
    (Kind::ConcatLast4, 12, 4, 0xd1c2516450aac081, 0x04dacb732e7e622a, 0x804338b79ab927bc),
    (Kind::ConcatLast4, 12, 8, 0x29219e3528a312e4, 0x69da46263a15be53, 0x3691808e12a9952f),
    (Kind::ConcatLast4, 16, 3, 0xa7e84930847dc1a7, 0x7d70ca4a6ae3217d, 0x9da767f69312d739),
    (Kind::ConcatLast4, 40, 2, 0xc0e6f84fc6ea25ec, 0x7203ab52bfbd94e0, 0x73b49dc275d60ba0),
    (Kind::ConcatLast4, 64, 2, 0x29a7629e53e21ccb, 0x6c5131461ee761f2, 0x313a8d0ad864e2c1),
    (Kind::FineTune2, 12, 4, 0x222a4cbbb8565bd2, 0xc2e7f72263c0c8af, 0x15d5e7b89b86f7f3),
    (Kind::FineTune2, 12, 8, 0x90344039a88e2773, 0x06d50d419b000c51, 0xec90b9041a3d8a52),
    (Kind::FineTune2, 16, 3, 0xe52310495a4e79ca, 0x8e45efc8d309e8ab, 0x49c473f07f1db584),
    (Kind::FineTune2, 40, 2, 0x123541d048b7afd3, 0x3416cffd7e838b2d, 0x286d0265830cdec0),
    (Kind::FineTune2, 64, 2, 0xee1ed59707378160, 0x1667e5e47ca50f3c, 0x146072c049a6896d),
    (Kind::Adapter3x8, 12, 4, 0xe09efac651c1e21b, 0x388e2ae83a97c502, 0xeb507c0cf86ebd2b),
    (Kind::Adapter3x8, 12, 8, 0x91a880413957d883, 0x8e15a8d272407160, 0x9ac56c855f8340fe),
    (Kind::Adapter3x8, 16, 3, 0x2021a3d9d47214a1, 0x9ebeaf5788c1920f, 0x11fe8c1f7078719e),
    (Kind::Adapter3x8, 40, 2, 0x1e762554be8cd5a2, 0x4a761f7148978096, 0xd5147b6ba96c3228),
    (Kind::Adapter3x8, 64, 2, 0x8121029f9b210c7e, 0x9bdd64b493bf91bf, 0xaaeb4c132e75e13b),
];

#[test]
fn transformer_training_bits_are_pinned() {
    if resolved_kernel() != KernelKind::Safe {
        eprintln!("skipping: pinned bits are recorded for the safe GEMM kernel");
        return;
    }
    let (wide_seq, _, _) = SHAPES[SHAPES.len() - 1];
    let wide = config(wide_seq, true);
    assert!(
        2 * wide_seq * wide_seq * wide.hidden >= GEMM_THRESHOLD,
        "the wide shape must fan attention records out"
    );
    assert!(
        wide_seq * wide_seq * (wide.hidden / wide.heads) >= GEMM_THRESHOLD,
        "the wide shape must send per-head products to the blocked GEMM"
    );

    let mut got = Vec::new();
    for kind in KINDS {
        for (seq, batch, wide) in SHAPES {
            let (f, l, p) = run(kind, seq, batch, wide);
            got.push((kind, seq, batch, f, l, p));
        }
    }
    let table: String = got
        .iter()
        .map(|(k, s, b, f, l, p)| {
            format!("    (Kind::{k:?}, {s}, {b}, {f:#018x}, {l:#018x}, {p:#018x}),\n")
        })
        .collect();
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert!(
            got.len() == PINNED.len() && got.iter().zip(PINNED.iter()).all(|(g, p)| g == p),
            "pinned transformer bits moved; now:\n{table}"
        );
    } else {
        // No pinned table for this platform: two runs must still agree.
        for &(kind, seq, batch, f, l, p) in &got[..2] {
            let wide = SHAPES.iter().any(|&(s, _, w)| s == seq && w);
            let again = run(kind, seq, batch, wide);
            assert_eq!(again, (f, l, p), "{kind:?} ({seq},{batch}) is not deterministic");
        }
    }
}
