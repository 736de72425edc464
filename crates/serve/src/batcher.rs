//! Dynamic micro-batching: fuse concurrent prediction requests into one
//! forward pass — across tenants.
//!
//! Requests enqueue a record and block on a reply channel; a single
//! batcher thread collects up to `max_batch` records — waiting at most
//! `max_delay_us` for stragglers once the first record arrives — and runs
//! them grouped by *shared base* and precision: all records whose variants
//! ride the same frozen base share **one** trunk forward over the union
//! batch ([`forward_batch_shared_trunk`]), then each tenant's adapter/head
//! suffix runs on its own row slice — the serving dual of the paper's
//! FUSE optimization. int8 tenants of a base share the base's quantized
//! trunk in a pass of their own; f32 tenants share the f32 trunk. Each
//! request is pinned at submit time to the artifact it was shape-validated
//! against, so a hot swap never tears an in-flight request. Kernel
//! dispatch is pinned to per-record work, so a record's result is
//! **bit-identical** whether it rode alone, in a single-tenant batch, or
//! in a shared-trunk batch with other tenants — batching is purely a
//! throughput optimization, never a numerics change.

use crate::registry::{BaseModel, ModelArtifact, ModelRegistry, RegistryError};
use nautilus_core::config::ServingConfig;
use nautilus_dnn::exec::{forward_batch_shared_trunk, TrunkGroup};
use nautilus_tensor::Tensor;
use nautilus_util::telemetry;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One answered prediction.
#[derive(Debug, Clone)]
pub struct PredictOutput {
    /// Tenant that answered.
    pub model_id: String,
    /// Per-tenant version of the model that answered.
    pub version: u64,
    /// Records of *this tenant* fused into the suffix pass (diagnostics).
    pub batch_size: usize,
    /// Records across all tenants that shared the base-trunk forward.
    pub trunk_batch: usize,
    /// Output head values for this record.
    pub values: Vec<f32>,
}

/// Why a prediction failed.
#[derive(Debug, Clone)]
pub enum PredictError {
    /// No variant published under the requested id.
    UnknownModel(String),
    /// Record length does not match the model's input shape.
    BadShape {
        /// Elements received.
        got: usize,
        /// Elements the model expects.
        want: usize,
    },
    /// The registry failed to produce the artifact (bad id, store IO).
    Registry(String),
    /// Forward execution failed.
    Exec(String),
    /// The batcher shut down before answering.
    Shutdown,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::UnknownModel(id) => write!(f, "no model published under '{id}'"),
            PredictError::BadShape { got, want } => {
                write!(f, "record has {got} elements, model expects {want}")
            }
            PredictError::Registry(m) => write!(f, "registry: {m}"),
            PredictError::Exec(m) => write!(f, "forward failed: {m}"),
            PredictError::Shutdown => write!(f, "server shutting down"),
        }
    }
}

struct Pending {
    record: Vec<f32>,
    /// The artifact this record was shape-validated against in
    /// [`MicroBatcher::predict`]. The batch runs against this exact
    /// variant: a hot swap between validation and execution must neither
    /// fail the request (new shape ≠ validated shape) nor answer it with
    /// a model it was never validated for.
    artifact: Arc<ModelArtifact>,
    reply: mpsc::Sender<Result<PredictOutput, PredictError>>,
}

struct State {
    queue: Vec<Pending>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    registry: Arc<ModelRegistry>,
    max_batch: usize,
    max_delay: Duration,
}

/// The micro-batcher: a queue plus one worker thread.
pub struct MicroBatcher {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Starts the batcher thread against `registry`.
    pub fn start(registry: Arc<ModelRegistry>, cfg: &ServingConfig) -> MicroBatcher {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { queue: Vec::new(), shutdown: false }),
            cv: Condvar::new(),
            registry,
            max_batch: cfg.max_batch.max(1),
            max_delay: Duration::from_micros(cfg.max_delay_us),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("nautilus-serve-batcher".into())
            .spawn(move || batcher_loop(&worker_inner))
            .expect("spawn batcher thread");
        MicroBatcher { inner, worker: Some(worker) }
    }

    /// Submits one record for tenant `id` and blocks until its prediction
    /// (or failure) comes back. Shape validation happens up front against
    /// the tenant's current variant — faulting it in from the delta store
    /// if it was evicted — so bad requests never occupy batch slots; the
    /// validated artifact is pinned into the queue entry so a concurrent
    /// hot swap or eviction cannot change which model answers.
    pub fn predict(&self, id: &str, record: Vec<f32>) -> Result<PredictOutput, PredictError> {
        let artifact = match self.inner.registry.get(id) {
            Ok(a) => a,
            Err(RegistryError::UnknownModel(m)) => return Err(PredictError::UnknownModel(m)),
            Err(e) => return Err(PredictError::Registry(e.to_string())),
        };
        if record.len() != artifact.record_elems {
            return Err(PredictError::BadShape {
                got: record.len(),
                want: artifact.record_elems,
            });
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.inner.state.lock().expect("batcher lock");
            if st.shutdown {
                return Err(PredictError::Shutdown);
            }
            st.queue.push(Pending { record, artifact, reply: tx });
            telemetry::SERVE_BATCH_QUEUE_DEPTH.set(st.queue.len() as i64);
        }
        self.inner.cv.notify_all();
        rx.recv().unwrap_or(Err(PredictError::Shutdown))
    }

    /// Requests currently waiting in the batch queue — sampled by the
    /// health watchdog and reported by `/healthz`.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().expect("batcher lock").queue.len()
    }

    /// Drains the queue (answering everything still enqueued) and joins
    /// the worker thread.
    pub fn shutdown(&mut self) {
        self.inner.state.lock().expect("batcher lock").shutdown = true;
        self.inner.cv.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batcher_loop(inner: &Inner) {
    loop {
        // Wait for the first record (or shutdown).
        let mut st = inner.state.lock().expect("batcher lock");
        while st.queue.is_empty() && !st.shutdown {
            st = inner.cv.wait(st).expect("batcher wait");
        }
        if st.queue.is_empty() && st.shutdown {
            return;
        }
        // A record is in: hold the door for `max_delay` or until the batch
        // fills. On shutdown, flush immediately.
        let deadline = Instant::now() + inner.max_delay;
        while st.queue.len() < inner.max_batch && !st.shutdown {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = inner
                .cv
                .wait_timeout(st, deadline - now)
                .expect("batcher wait");
            st = next;
            if timeout.timed_out() {
                break;
            }
        }
        let n = st.queue.len().min(inner.max_batch);
        let batch: Vec<Pending> = st.queue.drain(..n).collect();
        telemetry::SERVE_BATCH_QUEUE_DEPTH.set(st.queue.len() as i64);
        drop(st);
        run_batch(batch);
    }
}

fn run_batch(batch: Vec<Pending>) {
    // Group by shared base and precision first (one trunk forward per
    // group), then by pinned artifact within the group (one suffix pass
    // per variant), both in arrival order. Requests for variants of
    // *different* bases — or spanning a hot swap that changed the
    // architecture — never mix, and neither do f32 and int8 tenants of one
    // base: their trunks run different kernels.
    type TenantGroup = (Arc<ModelArtifact>, Vec<Pending>);
    let mut base_groups: Vec<(Arc<BaseModel>, bool, Vec<TenantGroup>)> = Vec::new();
    for p in batch {
        let quantized = p.artifact.quant.is_some();
        let base = &p.artifact.base;
        let idx = match base_groups
            .iter()
            .position(|(b, q, _)| Arc::ptr_eq(b, base) && *q == quantized)
        {
            Some(i) => i,
            None => {
                base_groups.push((Arc::clone(base), quantized, Vec::new()));
                base_groups.len() - 1
            }
        };
        let tenants = &mut base_groups[idx].2;
        match tenants.iter_mut().find(|(a, _)| Arc::ptr_eq(a, &p.artifact)) {
            Some((_, g)) => g.push(p),
            None => tenants.push((Arc::clone(&p.artifact), vec![p])),
        }
    }
    for (base, quantized, tenants) in base_groups {
        run_base_group(&base, quantized, tenants);
    }
}

/// One shared-trunk execution: all of one base's pendings of one
/// precision, any tenants. Stacks their records, runs one trunk pass plus
/// one suffix pass per tenant, and answers each record with its rows.
fn run_base_group(
    base: &BaseModel,
    quantized: bool,
    tenants: Vec<(Arc<ModelArtifact>, Vec<Pending>)>,
) {
    let total: usize = tenants.iter().map(|(_, g)| g.len()).sum();
    let _sp = telemetry::span("serve", "serve.batch");
    let t0 = Instant::now();
    let mut data = Vec::with_capacity(total * base.record_elems);
    for p in tenants.iter().flat_map(|(_, g)| g) {
        data.extend_from_slice(&p.record);
    }
    let groups: Vec<TrunkGroup<'_>> = tenants
        .iter()
        .map(|(a, g)| TrunkGroup {
            rows: g.len(),
            overrides: Some(&a.overrides),
            quant: a.quant.as_ref(),
        })
        .collect();
    let result = Tensor::from_vec(base.record_shape.with_batch(total), data)
        .map_err(|e| e.to_string())
        .and_then(|stacked| {
            let trunk_quant = quantized.then(|| base.frozen_quant());
            forward_batch_shared_trunk(
                &base.graph,
                base.input,
                base.output,
                stacked,
                &groups,
                trunk_quant,
            )
            .map_err(|e| e.to_string())
        });
    match result {
        Ok(outs) => {
            telemetry::SERVE_BATCHES.add(1);
            telemetry::SERVE_BATCH_RECORDS.add(total as u64);
            if tenants.len() > 1 {
                telemetry::SERVE_TRUNK_SHARED_RECORDS.add(total as u64);
            }
            telemetry::SERVE_BATCH_US.record(t0.elapsed().as_micros() as u64);
            for ((artifact, group), out) in tenants.into_iter().zip(outs) {
                let k = group.len();
                let per = out.len() / k;
                for (i, p) in group.into_iter().enumerate() {
                    let _ = p.reply.send(Ok(PredictOutput {
                        model_id: artifact.id.as_str().to_string(),
                        version: artifact.version,
                        batch_size: k,
                        trunk_batch: total,
                        values: out.data()[i * per..(i + 1) * per].to_vec(),
                    }));
                }
            }
        }
        Err(e) => {
            for p in tenants.into_iter().flat_map(|(_, g)| g) {
                let _ = p.reply.send(Err(PredictError::Exec(e.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_dnn::exec::{forward, BatchInputs};
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::{Activation, LayerKind};
    use nautilus_dnn::ModelGraph;
    use nautilus_tensor::init::seeded_rng;
    use nautilus_util::rng::Rng;

    fn model(seed: u64, in_dim: usize, out_dim: usize) -> ModelGraph {
        let mut rng = seeded_rng(seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [in_dim]);
        let h = g
            .add_layer(
                "hidden",
                LayerKind::Dense { in_dim, out_dim: in_dim, act: Activation::Gelu },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim, out_dim, act: Activation::None },
                &[h],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        g
    }

    /// Frozen trunk shared by every seed; trainable adapter+head per seed.
    fn adapter_variant(tenant_seed: u64, in_dim: usize, out_dim: usize) -> ModelGraph {
        let mut frozen_rng = seeded_rng(500);
        let mut rng = seeded_rng(tenant_seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [in_dim]);
        let trunk = g
            .add_layer(
                "trunk",
                LayerKind::Dense { in_dim, out_dim: in_dim, act: Activation::Gelu },
                &[inp],
                true,
                ParamInit::Seeded(&mut frozen_rng),
            )
            .unwrap();
        let ad = g
            .add_layer(
                "adapter",
                LayerKind::Adapter { dim: in_dim, bottleneck: 4 },
                &[trunk],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim, out_dim, act: Activation::None },
                &[ad],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        g
    }

    fn solo_forward(g: &ModelGraph, record: &[f32]) -> Vec<f32> {
        let inp = g.input_ids()[0];
        let t = Tensor::from_vec(
            g.shape(inp).with_batch(1),
            record.to_vec(),
        )
        .unwrap();
        let mut bi = BatchInputs::new();
        bi.insert(inp, t);
        let fwd = forward(g, &bi, false).unwrap();
        fwd.output(g.outputs()[0]).data().to_vec()
    }

    fn cfg(max_batch: usize, max_delay_us: u64) -> ServingConfig {
        ServingConfig { max_batch, max_delay_us, ..ServingConfig::default() }
    }

    #[test]
    fn concurrent_predictions_are_bit_identical_to_solo() {
        let g = model(7, 32, 5);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("default", g.clone()).unwrap();
        let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg(8, 20_000)));

        let mut rng = seeded_rng(99);
        let records: Vec<Vec<f32>> = (0..16)
            .map(|_| (0..32).map(|_| rng.gen_f32() * 2.0 - 1.0).collect())
            .collect();

        let handles: Vec<_> = records
            .iter()
            .cloned()
            .map(|r| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.predict("default", r).expect("prediction succeeds"))
            })
            .collect();
        let outputs: Vec<PredictOutput> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        let mut saw_real_batch = false;
        for (r, out) in records.iter().zip(&outputs) {
            assert_eq!(out.values, solo_forward(&g, r), "batched != solo");
            assert_eq!(out.version, 1);
            assert_eq!(out.model_id, "default");
            saw_real_batch |= out.batch_size > 1;
        }
        // With a 20ms door and 16 concurrent submitters, at least one
        // batch must have fused multiple records.
        assert!(saw_real_batch, "batching never fused any requests");
    }

    /// Three tenants on one base submitting concurrently: every answer is
    /// bit-identical to solo serving of that tenant's full variant, and at
    /// least one batch shares the trunk across tenants.
    #[test]
    fn cross_tenant_batches_share_trunk_and_stay_bit_identical() {
        let variants: Vec<ModelGraph> =
            (0..3).map(|i| adapter_variant(700 + i, 16, 4)).collect();
        let registry = Arc::new(ModelRegistry::new());
        for (i, g) in variants.iter().enumerate() {
            registry.publish(&format!("user-{i}"), g.clone()).unwrap();
        }
        let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg(16, 20_000)));

        let mut rng = seeded_rng(321);
        let jobs: Vec<(usize, Vec<f32>)> = (0..12)
            .map(|j| (j % 3, (0..16).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()))
            .collect();
        let handles: Vec<_> = jobs
            .iter()
            .cloned()
            .map(|(t, r)| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || {
                    b.predict(&format!("user-{t}"), r).expect("prediction succeeds")
                })
            })
            .collect();
        let outputs: Vec<PredictOutput> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        let mut saw_shared_trunk = false;
        for ((t, r), out) in jobs.iter().zip(&outputs) {
            assert_eq!(
                out.values,
                solo_forward(&variants[*t], r),
                "tenant {t}: shared-trunk result != solo serving"
            );
            assert_eq!(out.model_id, format!("user-{t}"));
            saw_shared_trunk |= out.trunk_batch > out.batch_size;
        }
        assert!(saw_shared_trunk, "no batch ever shared a trunk across tenants");
    }

    /// Two int8 tenants and one f32 tenant of one base in one batch
    /// window: the int8 tenants share one quantized trunk pass and each
    /// answers bitwise as when served alone; the f32 tenant never joins it.
    #[test]
    fn int8_tenants_of_one_base_share_a_trunk_pass_apart_from_f32() {
        use crate::registry::PublishOptions;
        let registry = Arc::new(ModelRegistry::new());
        let int8 = PublishOptions { quantize_int8: true };
        registry.publish_with("q0", adapter_variant(800, 16, 4), int8).unwrap();
        registry.publish_with("q1", adapter_variant(801, 16, 4), int8).unwrap();
        let f32_graph = adapter_variant(802, 16, 4);
        registry.publish("f", f32_graph.clone()).unwrap();

        let mut rng = seeded_rng(808);
        let jobs: Vec<(String, Vec<f32>)> = ["q0", "q1", "f", "q0", "q1", "f"]
            .iter()
            .map(|t| (t.to_string(), (0..16).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()))
            .collect();
        // A batch as large as the job count behind a long door: every job
        // rides the same batch.
        let batcher =
            Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg(jobs.len(), 10_000_000)));
        let handles: Vec<_> = jobs
            .iter()
            .cloned()
            .map(|(t, r)| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.predict(&t, r).expect("prediction succeeds"))
            })
            .collect();
        let outputs: Vec<PredictOutput> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        let solo = MicroBatcher::start(Arc::clone(&registry), &cfg(1, 0));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ((t, r), out) in jobs.iter().zip(&outputs) {
            let alone = solo.predict(t, r.clone()).unwrap();
            assert_eq!(alone.trunk_batch, 1);
            assert_eq!(bits(&out.values), bits(&alone.values), "tenant {t}: batched != alone");
            assert_eq!(out.batch_size, 2);
            if t == "f" {
                assert_eq!(out.trunk_batch, 2, "the f32 tenant must not share the int8 trunk");
                assert_eq!(out.values, solo_forward(&f32_graph, r));
            } else {
                assert_eq!(out.trunk_batch, 4, "int8 tenants must share one trunk pass");
            }
        }
    }

    #[test]
    fn predict_validates_shape_and_missing_model() {
        let registry = Arc::new(ModelRegistry::new());
        let batcher = MicroBatcher::start(Arc::clone(&registry), &cfg(4, 100));
        assert!(matches!(
            batcher.predict("nobody", vec![0.0; 4]),
            Err(PredictError::UnknownModel(_))
        ));
        registry.publish("m", model(1, 6, 2)).unwrap();
        assert!(matches!(
            batcher.predict("m", vec![0.0; 4]),
            Err(PredictError::BadShape { got: 4, want: 6 })
        ));
        let out = batcher.predict("m", vec![0.5; 6]).unwrap();
        assert_eq!(out.values.len(), 2);
    }

    /// A hot swap that changes the input shape while requests sit in the
    /// queue: each request must be answered by the exact model it was
    /// validated against, even when both versions share one batch window.
    #[test]
    fn hot_swap_mid_batch_answers_each_request_with_its_pinned_model() {
        let g1 = model(31, 6, 2);
        let g2 = model(32, 9, 3);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", g1.clone()).unwrap();
        // A long door so both requests land in the same batch window.
        let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg(8, 300_000)));

        let r1 = vec![0.25f32; 6];
        let b1 = Arc::clone(&batcher);
        let rec1 = r1.clone();
        let h1 = std::thread::spawn(move || b1.predict("m", rec1));
        // Wait until the first request is queued (validated against v1),
        // then swap to a model with a different input shape and submit a
        // second request validated against v2.
        while batcher.inner.state.lock().unwrap().queue.len() < 1 {
            std::thread::yield_now();
        }
        registry.publish("m", g2.clone()).unwrap();
        let r2 = vec![-0.5f32; 9];
        let b2 = Arc::clone(&batcher);
        let rec2 = r2.clone();
        let h2 = std::thread::spawn(move || b2.predict("m", rec2));

        let o1 = h1.join().unwrap().expect("v1 request must survive the swap");
        let o2 = h2.join().unwrap().expect("v2 request must succeed");
        assert_eq!(o1.version, 1);
        assert_eq!(o1.values, solo_forward(&g1, &r1));
        assert_eq!(o2.version, 2);
        assert_eq!(o2.values, solo_forward(&g2, &r2));
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", model(2, 8, 3)).unwrap();
        // A wide-open door: requests would sit for 10s without the drain.
        let batcher = Arc::new(MicroBatcher::start(Arc::clone(&registry), &cfg(64, 10_000_000)));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.predict("m", vec![i as f32; 8]))
            })
            .collect();
        // Give the submitters a moment to enqueue, then drain.
        while batcher.inner.state.lock().unwrap().queue.len() < 4 {
            std::thread::yield_now();
        }
        batcher.inner.state.lock().unwrap().shutdown = true;
        batcher.inner.cv.notify_all();
        for h in handles {
            assert!(h.join().unwrap().is_ok(), "drained request must be answered");
        }
    }
}
