//! Per-layer metrics of a traced run: self times and counters from the
//! trace, joined with the values the workload read from the public API.
//!
//! Trace totals are divided by the run's units of work (sessions on the
//! cycle workloads; the reference phase on serving), so runs that fit a
//! different number of sessions into their time stay comparable. A layer
//! that does not run on a workload reports 0.

use crate::selftime::TraceProfile;
use crate::{Metric, Outcome};

/// Every per-layer metric with its unit, in report order.
/// `trace.overhead_frac` is added by the process that compares the traced
/// run with the untraced one.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("core.materialize_s", "s"),
    ("core.train_s", "s"),
    ("core.units", "count"),
    ("core.materialized_layers", "count"),
    ("core.replans", "count"),
    ("planner.choose_v_s", "s"),
    ("planner.build_units_s", "s"),
    ("planner.matopt_self_s", "s"),
    ("planner.fuse_self_s", "s"),
    ("milp.solves", "count"),
    ("milp.self_s", "s"),
    ("milp.nodes", "count"),
    ("milp.simplex_iters", "count"),
    ("store.write_mb", "MB"),
    ("store.read_mb", "MB"),
    ("store.read_self_s", "s"),
    ("store.wait_s", "s"),
    ("store.self_frac", "ratio"),
    ("prefetch.hit_ratio", "ratio"),
    ("dnn.forward_self_s", "s"),
    ("dnn.backward_self_s", "s"),
    ("dnn.steps", "count"),
    ("dnn.gflops", "GFLOP"),
    ("dnn.gflop_per_s", "GFLOP/s"),
    ("tensor.gemm_self_s", "s"),
    ("tensor.gemm_naive_frac", "ratio"),
    ("tensor.pack_mb", "MB"),
    ("pool.wait_self_s", "s"),
    ("pool.tasks", "count"),
    ("pool.parks", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.forward_p50_us", "us"),
    ("serve.batch_wait_us", "us"),
    ("serve.client_overhead_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.trunk_shared_frac", "ratio"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("loadgen.late_ms", "ms"),
];

const FORWARD: [&str; 4] = [
    "dnn.forward",
    "dnn.forward_batch",
    "dnn.forward_shared_trunk",
    "dnn.forward_quantized",
];
const GEMM: [&str; 4] = ["gemm", "gemm.pack", "gemm.compute", "qgemm"];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of `out`'s traced run, and the trace checks that
/// failed: every span's nesting rebuilt from timestamps must match the
/// depth and parent the program recorded, no self time may be negative,
/// and self times may not sum to more than threads × wall clock. The last
/// two hold by construction of the self-time computation; the first is the
/// one that can catch a mis-nested or double-counted trace.
pub fn assemble(out: &Outcome, p: &TraceProfile) -> (Vec<Metric>, Vec<String>) {
    let per = out.per.max(1.0);
    let selfs = |names: &[&str]| p.self_secs(names) / per;
    let counter = |name: &str| p.counter(name) / per;
    let store_self: f64 = p
        .spans
        .iter()
        .filter(|(n, _)| n.starts_with("store.") || n.starts_with("prefetch."))
        .map(|(_, s)| s.1)
        .sum();
    let compute_self = selfs(&FORWARD) + selfs(&["dnn.backward"]) + selfs(&GEMM);
    let gflops = out.layers.get("dnn.gflops").copied().unwrap_or(0.0);
    let hits = p.counter("prefetch.hits");
    let from_trace = |name: &str| -> Option<f64> {
        Some(match name {
            "planner.matopt_self_s" => selfs(&["planner.choose_materialization"]),
            "planner.fuse_self_s" => selfs(&["planner.fuse"]),
            "milp.solves" => p.count(&["milp.solve"]) as f64 / per,
            "milp.self_s" => selfs(&["milp.solve"]),
            "milp.nodes" => counter("bb.nodes"),
            "milp.simplex_iters" => counter("simplex.iterations"),
            "store.read_self_s" => selfs(&["store.chunk_read", "store.chunk_decode"]),
            "store.wait_s" => selfs(&["prefetch.wait"]),
            "store.self_frac" => ratio(store_self, p.total_self_secs),
            "prefetch.hit_ratio" => ratio(hits, hits + p.counter("prefetch.stalls")),
            "dnn.forward_self_s" => selfs(&FORWARD),
            "dnn.backward_self_s" => selfs(&["dnn.backward"]),
            "dnn.steps" => p.count(&FORWARD) as f64 / per,
            "dnn.gflop_per_s" => ratio(gflops, compute_self),
            "tensor.gemm_self_s" => selfs(&GEMM),
            "tensor.gemm_naive_frac" => ratio(
                p.counter_family("gemm.kernel", "path=\"naive\""),
                p.counter_family("gemm.kernel", ""),
            ),
            "tensor.pack_mb" => counter("gemm.pack_bytes") / 1e6,
            "pool.wait_self_s" => selfs(&["pool.scope"]),
            "pool.tasks" => counter("pool.tasks"),
            "pool.parks" => counter("pool.parks"),
            _ => return None,
        })
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = from_trace(name)
                .or_else(|| out.layers.get(name).copied())
                .unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect();
    let mut problems = Vec::new();
    if p.nesting_checked == 0 {
        problems.push("no span carries a recorded depth and parent".into());
    }
    if p.nesting_mismatches > 0 {
        problems.push(format!(
            "{} of {} spans nest otherwise than recorded; first: {}",
            p.nesting_mismatches,
            p.nesting_checked,
            p.first_mismatch.as_deref().unwrap_or("?")
        ));
    }
    if p.min_self_secs < 0.0 {
        problems.push(format!("negative self time {:.6} s", p.min_self_secs));
    }
    if p.total_self_secs > p.threads as f64 * p.wall_secs * (1.0 + 1e-6) {
        problems.push(format!(
            "self times sum to {:.3} s, more than {} threads × {:.3} s",
            p.total_self_secs, p.threads, p.wall_secs
        ));
    }
    (metrics, problems)
}
