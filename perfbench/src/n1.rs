//! The `n1_sweep` workload: back-to-back [`ScenarioEngine::sweep`]s of
//! the full IEEE-118 N-1 branch-outage list against one centralized WLS
//! estimate of a seeded scan.
//!
//! The traced run is a single-threaded pass over the same three tiers the
//! engine runs (bridge gate, DC screen, AC confirmation of the suspects),
//! timed through the `pgse-contingency` public functions.

use std::time::Instant;

use pgse::contingency::dc::ScreenVerdict;
use pgse::contingency::{
    analyze_one_from, islanding_outages, ratings_from_state, Contingency, DcScreener,
};
use pgse::dse::{run_centralized, DseOptions};
use pgse::estimation::wls::StateEstimate;
use pgse::grid::Network;
use pgse::powerflow::PfSolution;
use pgse::stream::{
    CaseOutcome, ScenarioConfig, ScenarioEngine, ScenarioReport, SnapshotStore, SystemSnapshot,
};

use crate::stats::{median, median_of, rmse, tail};
use crate::trace::{self_ns, Tracer};
use crate::{Checks, Metrics};

/// Sizes of one N-1 run.
#[derive(Debug, Clone)]
pub struct N1Params {
    /// Workload seed (the base scan's telemetry seed).
    pub seed: u64,
    /// Time budget of the measured sweeps.
    pub seconds: f64,
    /// Engine set-ups (construction + warm-up sweep) timed for `setup_s`.
    pub setups: usize,
    /// Measured sweeps made even when the time budget is already spent.
    pub min_sweeps: usize,
    /// Single-threaded traced passes.
    pub traced_passes: usize,
}

/// The engine configuration: default limits and margin, one worker per
/// core.
pub fn config() -> ScenarioConfig {
    let n_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    ScenarioConfig {
        n_workers,
        ..ScenarioConfig::default()
    }
}

/// Seeded scans whose centralized estimates are scored for `vm_rmse` and
/// `va_rmse`. One estimate's error varies by about 40% from seed to seed;
/// the mean of this many varies by a few percent.
pub const ACCURACY_SCANS: u64 = 128;

fn centralized(net: &Network, truth: &PfSolution, seed: u64) -> StateEstimate {
    let opts = DseOptions {
        seed,
        ..DseOptions::direct()
    };
    run_centralized(net, truth, &opts)
        .expect("centralized estimate")
        .0
}

/// Mean state error of the centralized estimates of the workload's
/// accuracy scans (the first one is the sweeps' base state).
fn mean_base_error(net: &Network, truth: &PfSolution, seed: u64) -> (f64, f64) {
    let errs: Vec<(f64, f64)> = (0..ACCURACY_SCANS)
        .map(|i| {
            let est = centralized(net, truth, seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (rmse(&est.vm, &truth.vm), rmse(&est.va, &truth.va))
        })
        .collect();
    let n = errs.len() as f64;
    (
        errs.iter().map(|e| e.0).sum::<f64>() / n,
        errs.iter().map(|e| e.1).sum::<f64>() / n,
    )
}

/// The base state every sweep screens: one centralized WLS estimate of a
/// seeded full scan, published into a store the engine watches.
pub fn base_state(
    net: &Network,
    truth: &PfSolution,
    seed: u64,
) -> (SnapshotStore, std::sync::Arc<SystemSnapshot>) {
    let est = centralized(net, truth, seed);
    let store = SnapshotStore::new();
    store
        .publish(SystemSnapshot {
            epoch: 0,
            frame_seq: 0,
            dt_seconds: 0.0,
            vm: est.vm,
            va: est.va,
            degraded_areas: Vec::new(),
        })
        .expect("first publish");
    let base = store.load().expect("base published");
    (store, base)
}

/// Violated branch outages of a sweep, ascending.
fn violated(r: &ScenarioReport) -> Vec<usize> {
    r.cases
        .iter()
        .filter(|c| c.outcome == CaseOutcome::Violated)
        .map(|c| c.branch)
        .collect()
}

/// What the untraced run measured.
#[derive(Debug)]
pub struct Untraced {
    /// Engine set-up times (s).
    pub setups_s: Vec<f64>,
    /// Measured sweep walls (ms), in order.
    pub sweeps_ms: Vec<f64>,
    /// Screened cases' latencies over all measured sweeps (ms), sorted.
    pub cases_ms: Vec<f64>,
    /// Per-sweep worker imbalance.
    pub imbalance: Vec<f64>,
    /// The first measured sweep's report.
    pub first: ScenarioReport,
    /// Cases enumerated and shed over the measured sweeps.
    pub enumerated: u64,
    /// See `enumerated`.
    pub shed: u64,
    /// Mean state error of the accuracy scans' estimates (vm, va).
    pub base_rmse: (f64, f64),
}

fn check_sweep(
    r: &ScenarioReport,
    first: Option<&ScenarioReport>,
    checks: &mut Checks,
    what: &str,
) {
    checks.require(r.identity_holds(), format!("{what}: identity_holds()"));
    checks.require(
        !r.superseded && r.shed_stale == 0,
        format!("{what}: never superseded (shed {})", r.shed_stale),
    );
    if let Some(f) = first {
        checks.require(
            r.suspects == f.suspects && violated(r) == violated(f),
            format!(
                "{what}: repeats the first sweep's suspects ({} vs {}) and violated set",
                r.suspects, f.suspects
            ),
        );
    }
}

/// Sets the engine up `p.setups` times, then sweeps back to back until
/// the time budget is spent.
pub fn run_untraced(
    net: &Network,
    truth: &PfSolution,
    p: &N1Params,
    checks: &mut Checks,
) -> Untraced {
    let (store, base) = base_state(net, truth, p.seed);
    let base_rmse = mean_base_error(net, truth, p.seed);
    checks.require(
        base_rmse.0 <= crate::stream::VM_RMSE_MAX && base_rmse.1 <= crate::stream::VA_RMSE_MAX,
        format!(
            "base estimates: vm rmse {:.3e} and va rmse {:.3e} within bounds",
            base_rmse.0, base_rmse.1
        ),
    );
    let mut setups_s = Vec::new();
    let mut engine = None;
    for i in 0..p.setups.max(1) {
        let t = Instant::now();
        let e = ScenarioEngine::new(net.clone(), config());
        let warm = e.sweep(&base, &store);
        setups_s.push(t.elapsed().as_secs_f64());
        check_sweep(&warm, None, checks, &format!("warm-up sweep {i}"));
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    let start = Instant::now();
    let mut sweeps_ms = Vec::new();
    let mut cases_ms = Vec::new();
    let mut imbalance = Vec::new();
    let (mut enumerated, mut shed) = (0u64, 0u64);
    let mut first: Option<ScenarioReport> = None;
    while sweeps_ms.len() < p.min_sweeps || start.elapsed().as_secs_f64() < p.seconds {
        let t = Instant::now();
        let r = engine.sweep(&base, &store);
        sweeps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        check_sweep(
            &r,
            first.as_ref(),
            checks,
            &format!("sweep {}", sweeps_ms.len()),
        );
        cases_ms.extend(
            r.cases
                .iter()
                .filter(|c| c.screen_ns > 0)
                .map(|c| c.case_ns() as f64 / 1e6),
        );
        imbalance.push(r.imbalance());
        enumerated += r.enumerated as u64;
        shed += r.shed_stale as u64;
        first.get_or_insert(r);
    }
    cases_ms.sort_by(f64::total_cmp);
    Untraced {
        setups_s,
        sweeps_ms,
        cases_ms,
        imbalance,
        first: first.expect("at least one sweep"),
        enumerated,
        shed,
        base_rmse,
    }
}

/// End-to-end metrics: one published N-1 product per sweep.
pub fn end_to_end(u: &Untraced, m: &mut Metrics) {
    let mut sorted = u.sweeps_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let total_s: f64 = u.sweeps_ms.iter().sum::<f64>() / 1e3;
    m.add(
        "publish_rate",
        u.sweeps_ms.len() as f64 / total_s,
        "1/s",
        format!("N-1 sweeps per second, n={}", u.sweeps_ms.len()),
    );
    m.add(
        "cycle_ms_p50",
        median(&sorted),
        "ms",
        format!("sweep wall, n={}", sorted.len()),
    );
    m.add(
        "setup_s",
        median_of(&u.setups_s),
        "s",
        format!("median of {} engine new + warm-up sweep", u.setups_s.len()),
    );
    m.add(
        "vm_rmse",
        u.base_rmse.0,
        "pu",
        format!("mean of {ACCURACY_SCANS} seeded base estimates vs power-flow truth"),
    );
    m.add(
        "va_rmse",
        u.base_rmse.1,
        "rad",
        format!("mean of {ACCURACY_SCANS} seeded base estimates vs power-flow truth"),
    );
}

/// Single-threaded traced passes over the engine's three tiers; checks
/// that they find the engine's violated set, and records per-layer
/// metrics.
pub fn run_traced(
    net: &Network,
    truth: &PfSolution,
    p: &N1Params,
    u: &Untraced,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Vec<crate::trace::Span> {
    let (_, base) = base_state(net, truth, p.seed);
    let cfg = config();
    let tr = Tracer::new();
    let mut suspects_n = 0usize;
    let mut insecure: Vec<usize> = Vec::new();
    let mut newton = 0usize;
    for k in 0..p.traced_passes.max(1) as u64 {
        let root = tr.begin("round", k, None);
        let rat = tr.time("contingency.ratings", k, Some(root), || {
            ratings_from_state(net, &base.vm, &base.va, &cfg.limits)
        });
        let islands = tr.time("contingency.bridge_gate", k, Some(root), || {
            islanding_outages(net)
        });
        let mut suspects = tr.time("contingency.dc_screen", k, Some(root), || {
            let scr = DcScreener::new(net, &cfg.limits).expect("base network connected");
            (0..net.n_branches())
                .filter(|b| !islands.contains(b))
                .filter_map(|b| match scr.screen_outage(b) {
                    ScreenVerdict::Screened(c) if c.max_loading >= cfg.screen_margin => {
                        Some((b, c.max_loading))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        });
        suspects.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let (bad, iters) = tr.time("contingency.ac_confirm", k, Some(root), || {
            let mut bad = Vec::new();
            let mut iters = 0;
            for &(b, _) in &suspects {
                let r = analyze_one_from(
                    net,
                    Contingency::BranchOutage(b),
                    &rat,
                    &cfg.limits,
                    Some((&base.vm, &base.va)),
                );
                iters += r.iterations;
                if r.is_insecure() {
                    bad.push(b);
                }
            }
            bad.sort_unstable();
            (bad, iters)
        });
        tr.end(root);
        suspects_n = suspects.len();
        insecure = bad;
        newton = iters;
    }
    let engine_violated = violated(&u.first);
    checks.require(
        insecure == engine_violated,
        format!(
            "serial pass insecure set ({} cases) equals the engine's violated set ({} cases)",
            insecure.len(),
            engine_violated.len()
        ),
    );
    checks.require(
        suspects_n == u.first.suspects,
        format!(
            "serial pass suspects {suspects_n} equal the engine's {}",
            u.first.suspects
        ),
    );

    let spans = tr.take();
    let layer = |name: &str| {
        median_of(
            &spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ms())
                .collect::<Vec<_>>(),
        )
    };
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "round")
        .collect();
    let pass_ms = median_of(&roots.iter().map(|&i| spans[i].dur_ms()).collect::<Vec<_>>());
    let wall: u64 = roots.iter().map(|&i| spans[i].dur_ns()).sum();
    let covered: u64 = roots
        .iter()
        .map(|&i| spans[i].dur_ns() - self_ns(&spans, i))
        .sum();
    let mut sorted = u.sweeps_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let sweep_p50 = median(&sorted);
    let case_tail = tail(&u.cases_ms, 99.0);
    let total_s: f64 = u.sweeps_ms.iter().sum::<f64>() / 1e3;

    let t90 = tail(&sorted, 90.0);
    m.add(
        "cycle_ms_p90",
        t90.value,
        "ms",
        format!("sweep wall p{:.2} of n={}", t90.pct, t90.n),
    );
    let sweep_tail = tail(&sorted, 99.0);
    m.add(
        "cycle_ms_p99",
        sweep_tail.value,
        "ms",
        format!("sweep wall p{:.2} of n={}", sweep_tail.pct, sweep_tail.n),
    );
    m.add(
        "contingency.bridge_gate_ms",
        layer("contingency.bridge_gate"),
        "ms",
        String::new(),
    );
    m.add(
        "contingency.dc_screen_ms",
        layer("contingency.dc_screen"),
        "ms",
        String::new(),
    );
    m.add(
        "contingency.ac_confirm_ms",
        layer("contingency.ac_confirm"),
        "ms",
        format!("{suspects_n} suspects"),
    );
    m.add(
        "contingency.suspects",
        suspects_n as f64,
        "count",
        String::new(),
    );
    m.add(
        "contingency.violated_ratio",
        insecure.len() as f64 / suspects_n.max(1) as f64,
        "ratio",
        format!("{} violated", insecure.len()),
    );
    m.add(
        "powerflow.newton_iters",
        newton as f64,
        "count",
        "per pass".into(),
    );
    m.add(
        "contingency.case_ms_p99",
        case_tail.value,
        "ms",
        format!("p{:.2} of n={}", case_tail.pct, case_tail.n),
    );
    m.add(
        "contingency.worker_imbalance",
        median_of(&u.imbalance),
        "ratio",
        String::new(),
    );
    m.add(
        "trace.n1_serial_over_parallel",
        pass_ms / sweep_p50,
        "ratio",
        "serial traced pass / engine sweep".into(),
    );
    m.add(
        "n1_cases_per_s",
        u.enumerated as f64 / total_s,
        "1/s",
        String::new(),
    );
    m.add("n1_sweep_ms_p50", sweep_p50, "ms", String::new());
    m.add(
        "failed_frac",
        u.shed as f64 / u.enumerated.max(1) as f64,
        "ratio",
        "shed_stale / enumerated".into(),
    );
    m.add(
        "trace.round_ms_p50",
        pass_ms,
        "ms",
        format!("n={}", roots.len()),
    );
    m.add(
        "trace.coverage",
        covered as f64 / wall.max(1) as f64,
        "ratio",
        "layer spans / pass wall".into(),
    );
    m.add(
        "trace.overhead_ratio",
        pass_ms / sweep_p50,
        "ratio",
        "traced pass p50 / untraced cycle p50".into(),
    );
    spans
}
