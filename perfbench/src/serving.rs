//! `serve-multitenant`: 16 personalized adapter variants of one tiny-BERT
//! template behind one server, driven over loopback HTTP by the open-loop
//! generator in [`crate::loadgen`].
//!
//! A run sets the server up several times (publish every tenant, start,
//! wait for `/healthz`), warms up, holds a long phase at a reference rate
//! below the knee for the latency percentiles and the CPU cost per
//! request, and finally climbs a rate ladder past the knee to find the
//! highest rate that keeps its schedule. Every response is checked against
//! an in-process batch-1 forward of its tenant's graph.

use crate::loadgen::{self, PhaseSummary, Shot};
use crate::stats::median;
use crate::{host, Ctx, Metric, Outcome};
use nautilus_core::config::{ObservabilityConfig, ServingConfig};
use nautilus_dnn::exec::{forward, BatchInputs};
use nautilus_dnn::ModelGraph;
use nautilus_models::bert::{adapter_model, BertConfig};
use nautilus_models::{personalize, BuildScale};
use nautilus_serve::{ModelRegistry, Server};
use nautilus_tensor::Tensor;
use nautilus_util::http;
use nautilus_util::json::Json;
use nautilus_util::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use nautilus_util::telemetry::{self, Histogram, HIST_BUCKETS};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

const TENANTS: usize = 16;
const SEQ_LEN: usize = 12;
const VOCAB: usize = 60;
const RECORDS: usize = 256;
/// Client connections: one per core of the 2-core reference host.
const CONNS: usize = 2;
/// Zipf exponent of tenant popularity. An assumption, not a measured mix:
/// `perfbench/README.md` gives how the serving metrics depend on it.
const ZIPF_S: f64 = 1.1;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 40;
/// Offered load of the reference phase, requests per second (below the
/// knee, which lies between 400 and 800 on the reference host).
const REFERENCE_RATE: f64 = 250.0;
/// The reference phase runs as this many back-to-back blocks.
const REFERENCE_BLOCKS: usize = 10;
/// Rungs of the rate ladder, requests per second.
const LADDER: [f64; 8] = [300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0];
/// A rung passes while its tail latency stays under this limit...
const LATENCY_LIMIT_S: f64 = 0.025;
/// ...and the generator keeps its schedule: the median lateness of the
/// rung's last quarter stays under this.
const BACKLOG_LIMIT_S: f64 = 0.005;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// The seed-fixed inputs: tenant graphs, records, and tenant popularity.
struct Inputs {
    variants: Vec<ModelGraph>,
    records: Vec<Vec<f32>>,
    /// Cumulative popularity over tenants (tenant order permuted by seed).
    cdf: Vec<(f64, usize)>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let cfg = BertConfig::tiny(SEQ_LEN, VOCAB);
    let template = adapter_model(&cfg, 2, 8, 9, BuildScale::Real).map_err(|e| e.to_string())?;
    let variants = (0..TENANTS as u64)
        .map(|t| personalize(&template, seed.wrapping_mul(1000) + t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let pool = nautilus_data::NerDatasetConfig {
        vocab: VOCAB,
        seq_len: SEQ_LEN,
        seed,
        ..Default::default()
    }
    .generate(RECORDS);
    let records = pool
        .inputs
        .data()
        .chunks(SEQ_LEN)
        .map(<[f32]>::to_vec)
        .collect();
    let mut order: Vec<usize> = (0..TENANTS).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7E4A_4700));
    let weights: Vec<f64> = (0..TENANTS)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf = order
        .into_iter()
        .zip(weights)
        .map(|(tenant, w)| {
            acc += w / total;
            (acc, tenant)
        })
        .collect();
    Ok(Inputs {
        variants,
        records,
        cdf,
    })
}

/// One phase's requests: per connection, its schedule offset and the
/// `(tenant, record)` of each scheduled request, drawn by seed.
struct PhasePlan {
    rate: f64,
    secs: f64,
    offsets: Vec<f64>,
    requests: Vec<Vec<(usize, usize)>>,
}

/// Plans phase number `phase`. How the connections' schedules align
/// decides whether their requests share micro-batches, which moves the
/// median latency by a millisecond; `stratum` = `Some((b, n))` puts the
/// alignment in the `b`-th of `n` equal slices of the send interval, so
/// `n` blocks together cover every alignment once. `None` draws it freely.
fn phase_plan(
    inputs: &Inputs,
    seed: u64,
    phase: u64,
    rate: f64,
    secs: f64,
    stratum: Option<(usize, usize)>,
) -> PhasePlan {
    let mut rng = StdRng::seed_from_u64(seed ^ (phase.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let interval = CONNS as f64 / rate;
    let offsets: Vec<f64> = match stratum {
        Some((b, n)) => {
            let base = rng.gen_f64() * interval;
            let step = (b as f64 + rng.gen_f64()) / n as f64 * interval / (CONNS - 1) as f64;
            (0..CONNS)
                .map(|c| (base + c as f64 * step) % interval)
                .collect()
        }
        None => (0..CONNS).map(|_| rng.gen_f64() * interval).collect(),
    };
    let requests = offsets
        .iter()
        .map(|&off| {
            loadgen::schedule(CONNS, rate, secs, off)
                .iter()
                .map(|_| {
                    let u = rng.gen_f64();
                    let tenant = inputs
                        .cdf
                        .iter()
                        .find(|(c, _)| u < *c)
                        .or(inputs.cdf.last())
                        .map_or(0, |p| p.1);
                    (tenant, rng.gen_range(0..inputs.records.len()))
                })
                .collect()
        })
        .collect();
    PhasePlan {
        rate,
        secs,
        offsets,
        requests,
    }
}

fn tenant_id(t: usize) -> String {
    format!("tenant-{t}")
}

fn predict(addr: &str, tenant: usize, record: &[f32]) -> Result<Vec<u8>, String> {
    let _sp = telemetry::span("bench", "bench.request");
    let body = format!(
        "{{\"inputs\": [{}]}}",
        record
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let path = format!("/predict/{}", tenant_id(tenant));
    match http::request(addr, "POST", &path, Some(body.as_bytes()), REQUEST_TIMEOUT) {
        Ok((200, raw)) => Ok(raw),
        Ok((status, _)) => Err(format!("HTTP {status}")),
        Err(e) => Err(e.to_string()),
    }
}

fn get(addr: &str, path: &str) -> Result<(u16, Vec<u8>), String> {
    http::request(addr, "GET", path, None, REQUEST_TIMEOUT).map_err(|e| format!("GET {path}: {e}"))
}

/// Publishes every tenant into a fresh registry and starts a server on
/// it, returning once `/healthz` answers 200.
fn set_up(inputs: &Inputs, cfg: &ServingConfig) -> Result<Server, String> {
    let registry = ModelRegistry::with_config(cfg).map_err(|e| e.to_string())?;
    for (t, g) in inputs.variants.iter().enumerate() {
        let _sp = telemetry::span("bench", "bench.publish");
        registry
            .publish(&tenant_id(t), g.clone())
            .map_err(|e| e.to_string())?;
    }
    let server = Server::start_with(registry.into(), cfg, &ObservabilityConfig::default(), 0)
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = get(&addr, "/healthz") {
            return Ok(server);
        }
        if Instant::now() > deadline {
            return Err("/healthz never answered 200".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Prometheus series of one `/metrics` scrape: `(name, labels)` → value.
struct Scrape(Vec<(String, String, f64)>);

impl Scrape {
    fn take(addr: &str) -> Result<Scrape, String> {
        let (status, raw) = get(addr, "/metrics")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let text = String::from_utf8_lossy(&raw);
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                let value = value.parse::<f64>().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((n, rest)) => (n, rest.trim_end_matches('}')),
                    None => (series, ""),
                };
                Some((name.to_string(), labels.to_string(), value))
            })
            .collect();
        Ok(Scrape(series))
    }

    /// Sum of the series named `name` whose labels contain `filter`.
    fn sum(&self, name: &str, filter: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, l, _)| n == name && l.contains(filter))
            .map(|s| s.2)
            .sum()
    }

    /// Per-bucket counts of histogram `base`, summed over the label sets
    /// that contain `filter`.
    fn buckets(&self, base: &str, filter: &str) -> [u64; HIST_BUCKETS] {
        let name = format!("{base}_bucket");
        let mut by_set: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
        for (n, labels, v) in &self.0 {
            if *n != name || !labels.contains(filter) {
                continue;
            }
            let Some((set, le)) = labels.rsplit_once("le=\"") else {
                continue;
            };
            let Ok(le) = le.trim_end_matches('"').parse::<u64>() else {
                continue;
            };
            by_set.entry(set).or_default().push((le, *v as u64));
        }
        let mut counts = [0u64; HIST_BUCKETS];
        for mut cum in by_set.into_values() {
            cum.sort_unstable();
            let mut prev = 0;
            for (le, c) in cum {
                counts[Histogram::bucket_index(le)] += c - prev;
                prev = c;
            }
        }
        counts
    }
}

/// p50 (µs) of the samples a histogram gained between two scrapes.
fn p50_between(before: &Scrape, after: &Scrape, base: &str, filter: &str) -> f64 {
    let (a, b) = (after.buckets(base, filter), before.buckets(base, filter));
    let mut diff = [0u64; HIST_BUCKETS];
    for i in 0..HIST_BUCKETS {
        diff[i] = a[i].saturating_sub(b[i]);
    }
    let top = diff
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, Histogram::bucket_upper_bound);
    Histogram::quantile_from_counts(&diff, top, 0.5) as f64
}

fn solo_forward(g: &ModelGraph, record: &[f32]) -> Result<Vec<f32>, String> {
    let inp = g.input_ids()[0];
    let t =
        Tensor::from_vec(g.shape(inp).with_batch(1), record.to_vec()).map_err(|e| e.to_string())?;
    let mut bi = BatchInputs::new();
    bi.insert(inp, t);
    let out = forward(g, &bi, false).map_err(|e| e.to_string())?;
    Ok(out.output(g.outputs()[0]).data().to_vec())
}

/// Drives phases against one server and checks every response against an
/// in-process batch-1 forward of its tenant's graph. The expected outputs
/// are computed before any phase runs, so checking between phases adds no
/// model work to the server's measurements or to the trace.
struct Client<'a> {
    addr: String,
    inputs: &'a Inputs,
    expected: HashMap<(usize, usize), Vec<f32>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl<'a> Client<'a> {
    fn new(addr: String, inputs: &'a Inputs, plans: &[&PhasePlan]) -> Result<Client<'a>, String> {
        let mut expected = HashMap::new();
        for &(t, r) in plans.iter().flat_map(|p| p.requests.iter().flatten()) {
            if let std::collections::hash_map::Entry::Vacant(e) = expected.entry((t, r)) {
                e.insert(solo_forward(&inputs.variants[t], &inputs.records[r])?);
            }
        }
        Ok(Client {
            addr,
            inputs,
            expected,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        })
    }

    /// Runs one phase and checks its responses. Returns its summary, its
    /// shots with the bodies dropped, and the CPU seconds the process spent
    /// serving it: process CPU over the phase minus the generator's own.
    fn phase(&mut self, plan: &PhasePlan) -> (PhaseSummary, Vec<Shot>, f64) {
        let (addr, inputs) = (&self.addr, self.inputs);
        let cpu = host::process_cpu_secs();
        let (mut shots, client_cpu) =
            loadgen::run(plan.rate, plan.secs, &plan.offsets, |conn, seq| {
                let (tenant, record) = plan.requests[conn][seq];
                predict(addr, tenant, &inputs.records[record])
            });
        let server_cpu = host::process_cpu_secs() - cpu - client_cpu;
        let summary = loadgen::summarize(&shots);
        self.attempted += shots.len() as u64;
        for shot in &mut shots {
            let (tenant, record) = plan.requests[shot.conn][shot.seq];
            let body = match &shot.outcome {
                Ok(body) => body,
                Err(e) => {
                    self.fail(format!("{}: request failed: {e}", tenant_id(tenant)));
                    continue;
                }
            };
            let want = &self.expected[&(tenant, record)];
            let got: Option<Vec<f32>> = crate::jsonread::parse(body)
                .ok()
                .and_then(|j| {
                    j.get("outputs")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::to_vec)
                })
                .and_then(|vals| vals.iter().map(|v| v.as_f64().map(|x| x as f32)).collect());
            // JSON has no negative zero, so ±0 compare equal; everything
            // else must match bit for bit.
            let same = got.is_some_and(|g| {
                g.len() == want.len()
                    && g.iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0))
            });
            if !same {
                self.fail(format!(
                    "{}: response differs from batch-1 forward",
                    tenant_id(tenant)
                ));
            }
            shot.outcome = Ok(Vec::new());
        }
        (summary, shots, server_cpu)
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 3 {
            self.problems.push(problem);
        }
    }
}

/// `serve-multitenant`.
pub fn serve_multitenant(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = inputs(ctx.seed)?;
    let cfg = ServingConfig::default();
    let mut out = Outcome::default();

    let warm = phase_plan(&inputs, ctx.seed, 0, REFERENCE_RATE, 0.05 * ctx.secs, None);
    // The ladder runs in untraced runs only: tracing slows the server, and
    // the traced run exists for the layer breakdown of the reference phase.
    let ladder: Vec<PhasePlan> = if ctx.traced {
        Vec::new()
    } else {
        LADDER
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                phase_plan(&inputs, ctx.seed, 1 + i as u64, rate, 0.05 * ctx.secs, None)
            })
            .collect()
    };
    let block_secs = 0.5 * ctx.secs / REFERENCE_BLOCKS as f64;
    let blocks: Vec<PhasePlan> = (0..REFERENCE_BLOCKS)
        .map(|b| {
            let stratum = Some((b, REFERENCE_BLOCKS));
            phase_plan(
                &inputs,
                ctx.seed,
                100 + b as u64,
                REFERENCE_RATE,
                block_secs,
                stratum,
            )
        })
        .collect();

    let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
    let mut server = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let cpu = host::thread_cpu_secs();
        let s = set_up(&inputs, &cfg)?;
        setups.push(host::thread_cpu_secs() - cpu);
        setups_wall.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let plans: Vec<&PhasePlan> = std::iter::once(&warm)
        .chain(&blocks)
        .chain(&ladder)
        .collect();
    let mut client = Client::new(server.addr().to_string(), &inputs, &plans)?;

    client.phase(&warm);
    if ctx.traced {
        // The layer breakdown covers the reference phase alone.
        telemetry::reset();
    }
    let addr = client.addr.clone();
    let before = Scrape::take(&addr)?;
    let mut block_summaries = Vec::new();
    let mut reference_shots = Vec::new();
    let mut server_cpu = 0.0;
    for plan in &blocks {
        let (s, shots, cpu) = client.phase(plan);
        block_summaries.push(s);
        reference_shots.extend(shots);
        server_cpu += cpu;
    }
    let after = Scrape::take(&addr)?;
    if ctx.traced {
        out.profile = Some(crate::snapshot_trace(ctx)?);
    }
    // The memory peak of serving the reference load; the ladder below
    // overloads the server on purpose and runs last.
    let peak_rss_mb = host::peak_rss_mb();
    let mut max_rps = 0.0;
    for plan in &ladder {
        let (s, _, _) = client.phase(plan);
        eprintln!(
            "ladder {} req/s: tail p{} {:.2} ms, end lateness {:.2} ms",
            plan.rate,
            s.tail_pct,
            s.tail * 1e3,
            s.end_lateness * 1e3
        );
        if s.failed > 0 || s.tail > LATENCY_LIMIT_S || s.end_lateness > BACKLOG_LIMIT_S {
            break;
        }
        max_rps = plan.rate;
    }

    let (status, raw) = get(&addr, "/stats")?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let stats = crate::jsonread::parse(&raw).map_err(|e| format!("/stats: {e}"))?;
    let stat = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    server.shutdown();

    out.attempted = client.attempted;
    out.failed = client.failed;
    out.problems = client.problems;
    // Reference latency: per block the median and the highest percentile
    // with at least 10 samples beyond it, then the median over blocks, so
    // a burst of contention on the host moves one block, not the result.
    let block_p50: Vec<f64> = block_summaries.iter().map(|s| s.p50).collect();
    let block_tail: Vec<f64> = block_summaries.iter().map(|s| s.tail).collect();
    let pooled = loadgen::summarize(&reference_shots);
    out.e2e.push(Metric::new("setup_s", median(&setups), "s"));
    out.named
        .push(Metric::new("setup_wall_s", median(&setups_wall), "s"));
    out.e2e.push(Metric::new(
        "cpu_ms",
        server_cpu / reference_shots.len() as f64 * 1e3,
        "ms",
    ));
    out.e2e.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
    out.named
        .push(Metric::new("wait_ms", median(&block_p50) * 1e3, "ms"));
    out.named
        .push(Metric::new("wait_tail_ms", median(&block_tail) * 1e3, "ms"));
    out.named
        .push(Metric::new("serve_p50_ms", pooled.p50 * 1e3, "ms"));
    out.named.push(Metric::new(
        if pooled.tail_pct == 99.0 {
            "serve_p99_ms"
        } else {
            "serve_tail_ms"
        },
        pooled.tail * 1e3,
        "ms",
    ));
    if !ctx.traced {
        out.named
            .push(Metric::new("serve_max_rps", max_rps, "req/s"));
    }
    out.details
        .push(("reference_requests".into(), Json::Int(pooled.sent as i128)));
    out.details
        .push(("tail_percentile".into(), Json::Num(pooled.tail_pct)));
    out.details.push((
        "block_tail_percentile".into(),
        Json::Num(block_summaries[0].tail_pct),
    ));
    let ms = |v: &[f64]| {
        Json::Arr(
            v.iter()
                .map(|x| Json::Num((x * 1e6).round() / 1e3))
                .collect(),
        )
    };
    out.details.push(("block_p50_ms".into(), ms(&block_p50)));
    out.details.push(("block_tail_ms".into(), ms(&block_tail)));

    let delta = |name: &str| after.sum(name, "") - before.sum(name, "");
    let server_p50 = p50_between(&before, &after, "serve_request_us", "endpoint=\"predict\"");
    let forward_p50 = p50_between(&before, &after, "serve_batch_us", "");
    let batches = delta("serve_batches");
    let records = delta("serve_batch_size");
    let layers = &mut out.layers;
    layers.insert("serve.server_p50_us", server_p50);
    layers.insert("serve.forward_p50_us", forward_p50);
    layers.insert("serve.batch_wait_us", server_p50 - forward_p50);
    layers.insert("serve.client_overhead_us", pooled.p50 * 1e6 - server_p50);
    layers.insert(
        "serve.batch_size_mean",
        if batches > 0.0 {
            records / batches
        } else {
            0.0
        },
    );
    layers.insert(
        "serve.trunk_shared_frac",
        if records > 0.0 {
            delta("serve_trunk_shared_records") / records
        } else {
            0.0
        },
    );
    layers.insert("serve.shed", stat("shed"));
    layers.insert(
        "serve.errors",
        stat("client_errors") + stat("server_errors"),
    );
    layers.insert("loadgen.late_ms", pooled.max_lateness * 1e3);
    // Forward FLOPs of the reference phase's records, from the profiler's
    // per-record count of each tenant's graph.
    let flops: Vec<f64> = inputs
        .variants
        .iter()
        .map(|g| {
            nautilus_core::profiler::profile_graph(g)
                .iter()
                .map(|p| p.fwd_flops as f64)
                .sum()
        })
        .collect();
    let reference_flops: f64 = blocks
        .iter()
        .flat_map(|b| b.requests.iter().flatten())
        .map(|(t, _)| flops[*t])
        .sum();
    layers.insert("dnn.gflops", reference_flops / 1e9);
    out.per = 1.0;
    Ok(out)
}
