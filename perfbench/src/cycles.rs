//! The two labeling-cycle workloads: `cycles-nautilus` trains the tiny
//! FTR-2 grid on the real backend; `plan-paper-scale` plans the FTR-2
//! architecture at BERT-base shapes on the simulated backend, where the
//! planner does nearly all the work.
//!
//! A run repeats whole sessions — `ModelSelection::new`, then one `fit`
//! per labeling cycle — until the measuring time is used, and reports
//! medians over sessions.

use crate::stats::median;
use crate::{Ctx, Metric, Outcome};
use nautilus_core::mat_opt::NodeAction;
use nautilus_core::session::{CycleInput, ModelSelection};
use nautilus_core::spec::{expand_grid, ParamAssignment, SearchGrid};
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, CandidateModel, CycleReport, Strategy, SystemConfig};
use nautilus_util::json::Json;
use nautilus_util::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use nautilus_util::telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Sessions per run at least, so `setup_s` is a median of several set-ups.
const MIN_SESSIONS: usize = 3;

/// The tiny workload's labeling schedule: 4 cycles of 64 records.
const TINY_CYCLES: usize = 4;
const TINY_TRAIN: usize = 48;
const TINY_VALID: usize = 16;
/// Set-ups beyond the sessions' own: one takes about 50 ms.
const TINY_EXTRA_SETUPS: usize = 30;
/// Candidates re-run under Current Practice as the accuracy reference.
const REFERENCE_CANDIDATES: usize = 6;

/// The paper-scale schedule: 10 cycles of 400 + 100 records (§5).
const PAPER_CYCLES: usize = 10;
/// Set-ups beyond the sessions' own: one takes about 1 s, and a run fits
/// only 4–6 sessions.
const PAPER_EXTRA_SETUPS: usize = 6;
/// Relative spread allowed in `plan_cost_s` between sessions of one seed.
/// The simulated cost is deterministic, but it also charges the planner's
/// measured wall time (a few seconds of the 14,000 s per session), which
/// on a shared 2-core host varied enough to break a 1e-4 tolerance.
const PLAN_COST_TOLERANCE: f64 = 5e-4;

/// The inputs of one session, fixed by the seed.
struct Plan {
    candidates: Vec<CandidateModel>,
    config: SystemConfig,
    backend: BackendKind,
    cycles: Vec<CycleInput>,
    /// Set-ups without a session after the timed sessions, so a cheap
    /// set-up's median rests on more samples.
    extra_setups: usize,
}

/// One session's measurements.
struct Session {
    setup_s: f64,
    /// CPU seconds the calling thread spent in `ModelSelection::new`.
    setup_cpu_s: f64,
    fit_s: Vec<f64>,
    /// CPU seconds the process spent in the `fit` calls.
    fit_cpu_s: f64,
    reports: Vec<CycleReport>,
    replans: usize,
    feature_bytes: u64,
    units: usize,
    materialized: usize,
    fingerprint: u64,
    failed_fits: u64,
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Hash of the plan a session ended with: every unit's members and its
/// per-node actions, so any change to the units or the materialized set
/// changes it.
fn plan_fingerprint(session: &ModelSelection) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (unit, _) in session.units() {
        h = fnv1a(
            format!("{:?}|{:?};", unit.members, unit.plan.actions).as_bytes(),
            h,
        );
    }
    h
}

/// Materialized layers the final plans load: loaded nodes that are
/// materialization candidates (raw inputs are loaded too, but are not
/// materialized features).
fn materialized_layers(session: &ModelSelection) -> usize {
    let candidates: BTreeSet<_> = session.multi().mat_candidates().into_iter().collect();
    let loaded: BTreeSet<_> = session
        .units()
        .iter()
        .flat_map(|(u, _)| u.plan.actions.iter())
        .filter(|(id, a)| **a == NodeAction::Loaded && candidates.contains(id))
        .map(|(id, _)| *id)
        .collect();
    loaded.len()
}

/// One set-up: `ModelSelection::new` in `workdir`, with its wall time and
/// the calling thread's CPU time.
fn set_up(plan: &Plan, workdir: &std::path::Path) -> Result<(ModelSelection, f64, f64), String> {
    let _ = std::fs::remove_dir_all(workdir);
    let t = Instant::now();
    let cpu = crate::host::thread_cpu_secs();
    let _sp = telemetry::span("bench", "bench.new");
    let session = ModelSelection::new(
        plan.candidates.clone(),
        plan.config.clone(),
        Strategy::Nautilus,
        plan.backend,
        workdir,
    )
    .map_err(|e| format!("ModelSelection::new: {e}"))?;
    Ok((
        session,
        t.elapsed().as_secs_f64(),
        crate::host::thread_cpu_secs() - cpu,
    ))
}

fn run_session(plan: &Plan, ctx: &Ctx, index: usize) -> Result<Session, String> {
    let workdir = ctx.workdir.join(format!("session-{index}"));
    let (mut session, setup_s, setup_cpu_s) = set_up(plan, &workdir)?;
    let mut out = Session {
        setup_s,
        setup_cpu_s,
        fit_s: Vec::new(),
        fit_cpu_s: 0.0,
        reports: Vec::new(),
        replans: 0,
        feature_bytes: 0,
        units: 0,
        materialized: 0,
        fingerprint: 0,
        failed_fits: 0,
    };
    let cpu = crate::host::process_cpu_secs();
    for input in &plan.cycles {
        let r = session.max_records();
        let t = Instant::now();
        let res = {
            let _sp = telemetry::span("bench", "bench.fit");
            session.fit(input.clone())
        };
        out.fit_s.push(t.elapsed().as_secs_f64());
        if session.max_records() != r {
            out.replans += 1;
        }
        match res {
            Ok(report) => out.reports.push(report),
            Err(e) => {
                eprintln!("fit failed: {e}");
                out.failed_fits += 1;
            }
        }
    }
    out.fit_cpu_s = crate::host::process_cpu_secs() - cpu;
    out.feature_bytes = session.feature_bytes();
    out.units = session.units().len();
    out.materialized = materialized_layers(&session);
    out.fingerprint = plan_fingerprint(&session);
    drop(session);
    let _ = std::fs::remove_dir_all(&workdir);
    eprintln!(
        "session {index}: setup {:.3} s, fit {:.3} s over {} cycles",
        out.setup_s,
        out.fit_s.iter().sum::<f64>(),
        out.fit_s.len()
    );
    Ok(out)
}

/// Runs sessions until the measuring time is used (at least
/// [`MIN_SESSIONS`]).
/// Wall and calling-thread CPU seconds of one set-up.
type SetupTimes = (f64, f64);

/// Returns the sessions and the times of every set-up.
fn run_sessions(plan: &Plan, ctx: &Ctx) -> Result<(Vec<Session>, Vec<SetupTimes>), String> {
    let start = Instant::now();
    let mut sessions = Vec::new();
    while sessions.len() < MIN_SESSIONS || start.elapsed().as_secs_f64() < ctx.secs {
        sessions.push(run_session(plan, ctx, sessions.len())?);
    }
    let mut setups: Vec<SetupTimes> = sessions
        .iter()
        .map(|s| (s.setup_s, s.setup_cpu_s))
        .collect();
    let workdir = ctx.workdir.join("set-up");
    // Traced runs report layer metrics per session, which extra set-ups
    // would inflate; they report no `setup_s`.
    let extra = if ctx.traced { 0 } else { plan.extra_setups };
    for _ in 0..extra {
        let (session, wall, cpu) = set_up(plan, &workdir)?;
        drop(session);
        setups.push((wall, cpu));
    }
    let _ = std::fs::remove_dir_all(&workdir);
    Ok((sessions, setups))
}

fn per_session(sessions: &[Session], f: impl Fn(&Session) -> f64) -> f64 {
    sessions.iter().map(f).sum::<f64>() / sessions.len() as f64
}

/// Metrics and layer values both cycle workloads share.
fn common(sessions: &[Session], setups: &[SetupTimes], out: &mut Outcome) {
    // Each labeling round's wait is its median over sessions, so a burst of
    // contention on the host moves one sample of one round, not the sum.
    let cycles = sessions[0].fit_s.len();
    let rounds: Vec<f64> = (0..cycles)
        .map(|c| median(&sessions.iter().map(|s| s.fit_s[c]).collect::<Vec<_>>()))
        .collect();
    let selection: f64 = rounds.iter().sum();
    let setup: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let cpu: Vec<f64> = sessions.iter().map(|s| s.fit_cpu_s).collect();
    out.e2e.push(Metric::new("setup_s", median(&setup), "s"));
    out.named
        .push(Metric::new("setup_wall_s", median(&setup_wall), "s"));
    out.e2e.push(Metric::new(
        "cpu_ms",
        median(&cpu) / cycles as f64 * 1e3,
        "ms",
    ));
    out.named.push(Metric::new(
        "wait_ms",
        selection / cycles as f64 * 1e3,
        "ms",
    ));
    out.named.push(Metric::new(
        "wait_tail_ms",
        rounds.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
    ));
    out.named.push(Metric::new("selection_s", selection, "s"));
    out.e2e
        .push(Metric::new("peak_rss_mb", crate::host::peak_rss_mb(), "MB"));
    out.attempted += sessions
        .iter()
        .map(|s| 1 + s.fit_s.len() as u64)
        .sum::<u64>();
    out.failed += sessions.iter().map(|s| s.failed_fits).sum::<u64>();
    out.attempted += (setups.len() - sessions.len()) as u64;
    out.per = sessions.len() as f64;
    let layers = &mut out.layers;
    layers.insert("core.units", per_session(sessions, |s| s.units as f64));
    layers.insert(
        "core.materialized_layers",
        per_session(sessions, |s| s.materialized as f64),
    );
    layers.insert("core.replans", per_session(sessions, |s| s.replans as f64));
    out.details
        .push(("sessions".into(), Json::Int(sessions.len() as i128)));
}

/// Times one direct `choose_v` and `build_units` call at the initial `r`
/// (traced runs only, after the trace snapshot that feeds the other
/// layer metrics).
fn time_planner(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let multi = nautilus_core::multimodel::MultiModelGraph::build(&plan.candidates);
    let r = plan.config.max_records;
    let t = Instant::now();
    let (v, _) = {
        let _sp = telemetry::span("bench", "bench.choose_v");
        ModelSelection::choose_v(
            &multi,
            &plan.candidates,
            &plan.config,
            Strategy::Nautilus,
            r,
        )
    };
    out.layers
        .insert("planner.choose_v_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    {
        let _sp = telemetry::span("bench", "bench.build_units");
        ModelSelection::build_units(
            &multi,
            &plan.candidates,
            &plan.config,
            Strategy::Nautilus,
            &v,
        )
        .map_err(|e| format!("build_units: {e}"))?;
    }
    out.layers
        .insert("planner.build_units_s", t.elapsed().as_secs_f64());
    Ok(())
}

/// Store bytes of the real backend's sessions, per session.
fn store_layers(sessions: &[Session], out: &mut Outcome) {
    let last = |s: &Session| s.reports.last().map(|r| r.stats).unwrap_or_default();
    out.layers.insert(
        "store.write_mb",
        per_session(sessions, |s| last(s).disk_write_bytes as f64 / 1e6),
    );
    out.layers.insert(
        "store.read_mb",
        per_session(sessions, |s| {
            let st = last(s);
            (st.disk_read_bytes + st.cached_read_bytes) as f64 / 1e6
        }),
    );
    out.layers.insert(
        "core.materialize_s",
        per_session(sessions, |s| {
            s.reports.iter().map(|r| r.materialize_secs).sum()
        }),
    );
    out.layers.insert(
        "core.train_s",
        per_session(sessions, |s| s.reports.iter().map(|r| r.train_secs).sum()),
    );
    out.layers
        .insert("dnn.gflops", per_session(sessions, |s| last(s).flops / 1e9));
}

fn tiny_plan(seed: u64) -> Result<(Plan, Vec<CandidateModel>), String> {
    let spec = WorkloadSpec {
        kind: WorkloadKind::Ftr2,
        scale: Scale::Tiny,
    };
    let candidates = spec.candidates()?;
    let config = SystemConfig::tiny()
        .into_builder()
        .io_calibrate(false)
        .max_records(128)
        .build();
    let per_cycle = TINY_TRAIN + TINY_VALID;
    let pool = nautilus_data::NerDatasetConfig {
        seed,
        ..spec.ner_config()
    }
    .generate(TINY_CYCLES * per_cycle);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5EED_0F1A_BE00));
    let cycles = order
        .chunks(per_cycle)
        .map(|idx| {
            let (train, valid) = pool.select(idx).split_at(TINY_TRAIN);
            CycleInput::Real { train, valid }
        })
        .collect();
    // The reference candidates: batch-4 members of the grid, drawn by seed.
    let mut batch4: Vec<CandidateModel> = candidates
        .iter()
        .filter(|c| c.hyper.batch_size == 4)
        .cloned()
        .collect();
    batch4.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0CA1_1B4A_7E00));
    batch4.truncate(REFERENCE_CANDIDATES);
    Ok((
        Plan {
            candidates,
            config,
            backend: BackendKind::Real,
            cycles,
            extra_setups: TINY_EXTRA_SETUPS,
        },
        batch4,
    ))
}

/// Cycle-1 accuracies of `reference` trained alone under Current Practice.
fn reference_accuracies(
    plan: &Plan,
    reference: Vec<CandidateModel>,
    ctx: &Ctx,
) -> Result<BTreeMap<String, f32>, String> {
    let workdir = ctx.workdir.join("reference");
    let mut session = ModelSelection::new(
        reference,
        plan.config.clone(),
        Strategy::CurrentPractice,
        BackendKind::Real,
        &workdir,
    )
    .map_err(|e| format!("reference session: {e}"))?;
    let report = session
        .fit(plan.cycles[0].clone())
        .map_err(|e| format!("reference fit: {e}"))?;
    drop(session);
    let _ = std::fs::remove_dir_all(&workdir);
    report
        .accuracies
        .into_iter()
        .map(|(name, acc)| {
            acc.map(|a| (name.clone(), a))
                .ok_or(format!("{name}: no accuracy"))
        })
        .collect()
}

/// Checks one session's reports: every candidate has an accuracy every
/// cycle, and cycle 1 matches the Current Practice reference bit for bit.
/// Returns the number of failed `fit` checks.
fn check_accuracies(
    session: &Session,
    candidates: usize,
    reference: &BTreeMap<String, f32>,
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for report in &session.reports {
        let complete = report.accuracies.len() == candidates
            && report.accuracies.iter().all(|(_, a)| a.is_some());
        let mut ok = complete;
        if !complete {
            problems.push(format!("cycle {}: missing accuracies", report.cycle));
        }
        if report.cycle == 1 {
            for (name, want) in reference {
                let got = report
                    .accuracies
                    .iter()
                    .find(|(n, _)| n == name)
                    .and_then(|(_, a)| *a);
                if got.map(f32::to_bits) != Some(want.to_bits()) {
                    problems.push(format!(
                        "{name}: cycle-1 accuracy {got:?} != reference {want}"
                    ));
                    ok = false;
                }
            }
        }
        if !ok {
            failed += 1;
        }
    }
    failed
}

/// `cycles-nautilus`.
pub fn cycles_nautilus(ctx: &Ctx) -> Result<Outcome, String> {
    let (plan, reference_set) = tiny_plan(ctx.seed)?;
    let reference = reference_accuracies(&plan, reference_set, ctx)?;
    if ctx.traced {
        // The layer breakdown covers the timed sessions alone.
        telemetry::reset();
    }
    let (sessions, setups) = run_sessions(&plan, ctx)?;
    let mut out = Outcome::default();
    common(&sessions, &setups, &mut out);
    for s in &sessions {
        out.failed += check_accuracies(s, plan.candidates.len(), &reference, &mut out.problems);
    }
    let feature_mb = per_session(&sessions, |s| s.feature_bytes as f64 / 1e6);
    out.named.push(Metric::new("feature_mb", feature_mb, "MB"));
    store_layers(&sessions, &mut out);
    if ctx.traced {
        out.profile = Some(crate::snapshot_trace(ctx)?);
        time_planner(&plan, &mut out)?;
    }
    Ok(out)
}

fn paper_plan(seed: u64) -> Result<Plan, String> {
    let spec = WorkloadSpec {
        kind: WorkloadKind::Ftr2,
        scale: Scale::Paper,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A9E_25CA_1E00);
    // 12 distinct learning rates in [1e-5, 1e-4), on a 1e-6 grid.
    let mut steps = BTreeSet::new();
    while steps.len() < 12 {
        steps.insert(rng.gen_range(10..100u32));
    }
    let lrs: Vec<f64> = steps.into_iter().map(|k| f64::from(k) * 1e-6).collect();
    let grid = SearchGrid::new()
        .with_nums("batch", &[16.0, 32.0])
        .with_nums("lr", &lrs)
        .with_nums("epochs", &[5.0])
        .with_strs(
            "strategy",
            &[
                "second-last-hidden",
                "last-hidden",
                "sum-last-4",
                "concat-last-4",
            ],
        );
    let mut candidates = expand_grid(&grid, &move |a: &ParamAssignment| spec.init_candidate(a))?;
    candidates.shuffle(&mut rng);
    let config = SystemConfig::builder().max_records(600).build();
    let cycles = (0..PAPER_CYCLES)
        .map(|_| CycleInput::Virtual {
            n_train: 400,
            n_valid: 100,
        })
        .collect();
    Ok(Plan {
        candidates,
        config,
        backend: BackendKind::Simulated,
        cycles,
        extra_setups: PAPER_EXTRA_SETUPS,
    })
}

/// `plan-paper-scale`.
pub fn plan_paper_scale(ctx: &Ctx) -> Result<Outcome, String> {
    let plan = paper_plan(ctx.seed)?;
    let (sessions, setups) = run_sessions(&plan, ctx)?;
    let mut out = Outcome::default();
    common(&sessions, &setups, &mut out);
    // The plan is a pure function of the seed: every session must end with
    // the same units and materialized set, at the same simulated cost.
    let costs: Vec<f64> = sessions
        .iter()
        .map(|s| s.reports.last().map_or(0.0, |r| r.stats.elapsed_secs))
        .collect();
    let first = &sessions[0];
    for (i, s) in sessions.iter().enumerate().skip(1) {
        let same_plan =
            s.fingerprint == first.fingerprint && s.feature_bytes == first.feature_bytes;
        let same_cost = (costs[i] - costs[0]).abs() <= PLAN_COST_TOLERANCE * costs[0];
        if !(same_plan && same_cost) {
            out.failed += 1;
            out.problems.push(format!(
                "session {i} ended with another plan or cost ({:.3} s vs {:.3} s)",
                costs[i], costs[0]
            ));
        }
    }
    out.details.push((
        "plan_costs_s".into(),
        Json::Arr(costs.iter().map(|c| Json::Num(*c)).collect()),
    ));
    out.named
        .push(Metric::new("plan_cost_s", median(&costs), "s"));
    out.details.push((
        "plan_fingerprint".into(),
        Json::Str(format!("{:016x}", first.fingerprint)),
    ));
    if ctx.traced {
        out.profile = Some(crate::snapshot_trace(ctx)?);
        time_planner(&plan, &mut out)?;
    }
    Ok(out)
}
