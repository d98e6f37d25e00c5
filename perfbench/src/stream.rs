//! The two streaming workloads: `stream_clean` and `stream_faulted`.
//!
//! * The **untraced run** deploys the real [`StreamService`] again and
//!   again (same seed, lockstep, one frame in flight) until the time
//!   budget is spent. An observer thread watches
//!   [`StreamService::store`]: it timestamps every new epoch, scores the
//!   published state against the power-flow truth, and fans the epoch out
//!   through a `pgse-serve` [`Broadcaster`] to a fixed set of in-process
//!   subscriptions, as a serving layer beside the service would.
//! * The **traced run** replays the service's lockstep round through the
//!   layers' public functions, in the service's order and on the same pool
//!   fan-out, and records one span per call (see [`crate::trace`]).

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgse::dse::decomposition::decompose;
use pgse::dse::runner::aggregate;
use pgse::dse::{AreaEstimator, AreaSolution, Decomposition, PseudoMeasurement};
use pgse::estimation::measurement::{MeasurementKind, MeasurementSet};
use pgse::estimation::wls::SolveCache;
use pgse::estimation::{baddata, restoration};
use pgse::grid::Network;
use pgse::medici::{EndpointRegistry, MwClient, ScanFault, ScanFaultPlan};
use pgse::powerflow::PfSolution;
use pgse::serve::{AreaMap, Broadcaster, DeliveryMode, Subscription, SubscriptionFilter};
use pgse::stream::{
    wire, AreaCheckpoint, BadDataGate, CheckpointStore, IngestQueue, SnapshotStore, StreamConfig,
    StreamFrame, StreamReport, StreamService, SystemSnapshot, Watchdog,
};
use rayon::prelude::*;

use crate::stats::{intervals, mean, median, median_of, rmse, steady_window, tail, Tail};
use crate::trace::{self_ns, Span, Tracer};
use crate::{Checks, Metrics};

/// Per-epoch state-error ceilings (|published − power-flow truth|, RMS
/// over all buses). Measured maxima on IEEE-118 are about 1.7e-3 pu and
/// 1.1e-2 rad; the ceilings leave 3x/2x headroom.
pub const VM_RMSE_MAX: f64 = 5e-3;
/// See [`VM_RMSE_MAX`].
pub const VA_RMSE_MAX: f64 = 2.5e-2;

/// Gross-error and RTU-outage probability of the faulted stream.
pub const FAULT_PROB: f64 = 0.2;

/// How often the observer polls the snapshot store.
const OBSERVE_POLL: Duration = Duration::from_micros(200);

/// Listener poll interval and queue wait of the traced replay (the
/// service's own values).
const RECV_POLL: Duration = Duration::from_millis(25);

/// Sizes of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamParams {
    /// Whether the stream carries seeded gross errors and RTU outages
    /// (and the bad-data gate is on).
    pub faulted: bool,
    /// Workload seed.
    pub seed: u64,
    /// Frames per deployment (and rounds of the traced replay).
    pub frames: u64,
    /// Publishes at the start of each deployment left out of the window.
    pub warmup: usize,
    /// Deployments made even when the time budget is already spent.
    pub min_deployments: usize,
    /// Time budget of the untraced run.
    pub seconds: f64,
    /// Deploy-only repetitions timed for `setup_s` on top of the
    /// deployments that run.
    pub extra_deploys: usize,
}

/// The service configuration of a workload.
pub fn config(p: &StreamParams) -> StreamConfig {
    StreamConfig {
        n_frames: p.frames,
        seed: p.seed,
        baddata: p.faulted.then(BadDataGate::default),
        scan_faults: p.faulted.then(|| ScanFaultPlan {
            seed: p.seed,
            gross_prob: FAULT_PROB,
            rtu_prob: FAULT_PROB,
            ..ScanFaultPlan::default()
        }),
        ..StreamConfig::default()
    }
}

/// One deployment of the untraced run.
#[derive(Debug)]
pub struct Deployment {
    /// `StreamService::deploy` wall time (s).
    pub deploy_s: f64,
    /// `run()` start → first publish observed (s).
    pub first_publish_s: f64,
    /// Last publish observed → `run()` returned (s).
    pub teardown_s: f64,
    /// The service's own report.
    pub report: StreamReport,
    /// Observed publishes: (seconds since `run()` start, epoch).
    pub publishes: Vec<(f64, u64)>,
    /// Per observed epoch: (vm RMSE, va RMSE) against the truth.
    pub errors: BTreeMap<u64, (f64, f64)>,
}

/// Serving-side fan-out target: one full-view reader of the whole system
/// and one delta reader per area.
fn subscribe_all(bc: &Arc<Broadcaster>, n_areas: usize) -> Vec<Subscription> {
    let mut subs = vec![
        Subscription::open(bc, SubscriptionFilter::All, DeliveryMode::Full)
            .expect("whole-system filter resolves"),
    ];
    for a in 0..n_areas {
        subs.push(
            Subscription::open(bc, SubscriptionFilter::Area(a as u32), DeliveryMode::Delta)
                .expect("area filter resolves"),
        );
    }
    subs
}

fn area_map(decomp: &Decomposition) -> AreaMap {
    let areas = decomp
        .areas
        .iter()
        .map(|a| a.global_ids.iter().map(|&g| g as u32).collect())
        .collect::<Vec<Vec<u32>>>();
    let n: usize = decomp.areas.iter().map(|a| a.global_ids.len()).sum();
    AreaMap::new(areas, n as u32)
}

/// Publishes `snap` to `bc` and drains every subscription; returns the
/// bytes delivered.
fn fan_out(bc: &Broadcaster, subs: &[Subscription], snap: &Arc<SystemSnapshot>) -> u64 {
    bc.publish(snap);
    let mut bytes = 0u64;
    for sub in subs {
        while let Some(buf) = sub.recv() {
            bytes += buf.bytes.len() as u64;
        }
    }
    bytes
}

fn state_errors(snap: &SystemSnapshot, truth: &PfSolution) -> (f64, f64) {
    (rmse(&snap.vm, &truth.vm), rmse(&snap.va, &truth.va))
}

/// Deploys and runs the service once, observing every publish.
pub fn deploy_and_run(net: &Network, truth: &PfSolution, cfg: &StreamConfig) -> Deployment {
    let t_deploy = Instant::now();
    let service = StreamService::deploy(net, cfg.clone()).expect("service deploys");
    let deploy_s = t_deploy.elapsed().as_secs_f64();
    let bc = Arc::new(Broadcaster::new(area_map(service.decomposition()), 4));
    let subs = subscribe_all(&bc, service.n_areas());
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (report, t_end, (publishes, errors)) = std::thread::scope(|scope| {
        let store = service.store();
        let observer = scope.spawn(|| {
            let mut publishes = Vec::new();
            let mut errors = BTreeMap::new();
            let mut last: Option<u64> = None;
            loop {
                let done = stop.load(Ordering::Acquire);
                if store.current_epoch() != last {
                    if let Some(snap) = store.load() {
                        if last.is_none_or(|l| snap.epoch > l) {
                            publishes.push((t0.elapsed().as_secs_f64(), snap.epoch));
                            last = Some(snap.epoch);
                            errors.insert(snap.epoch, state_errors(&snap, truth));
                            fan_out(&bc, &subs, &snap);
                            continue;
                        }
                    }
                }
                if done {
                    break;
                }
                std::thread::sleep(OBSERVE_POLL);
            }
            (publishes, errors)
        });
        let report = service.run();
        let t_end = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        (report, t_end, observer.join().expect("observer thread"))
    });
    let first = publishes.first().map_or(t_end, |p| p.0);
    let last = publishes.last().map_or(t_end, |p| p.0);
    Deployment {
        deploy_s,
        first_publish_s: first,
        teardown_s: t_end - last,
        report,
        publishes,
        errors,
    }
}

/// Area-frames the program lost outright (never an expected outcome on
/// these workloads): send failures, corrupt frames, shed frames, solve
/// errors, contained panics, and refused publishes.
pub fn lost_frames(r: &StreamReport) -> u64 {
    r.send_failures + r.corrupt + r.shed() + r.solve_errors + r.worker_panics + r.publish_rejected
}

/// Everything the untraced run measured.
#[derive(Debug)]
pub struct Untraced {
    /// The deployments, in order.
    pub deployments: Vec<Deployment>,
    /// Per deployment: its steady window's publish-to-publish intervals
    /// (ms, sorted) and publishes per second.
    pub windows: Vec<(Vec<f64>, f64)>,
    /// Every timed `StreamService::deploy` (s).
    pub deploys_s: Vec<f64>,
    /// Mean over window epochs of the vm / va RMSE.
    pub vm_rmse: f64,
    /// See `vm_rmse`.
    pub va_rmse: f64,
}

/// Runs deployments until the time budget is spent, then checks and pools
/// them.
pub fn run_untraced(
    net: &Network,
    truth: &PfSolution,
    p: &StreamParams,
    checks: &mut Checks,
) -> Untraced {
    let cfg = config(p);
    // Deploy-only repetitions steady the deploy part of `setup_s`.
    let mut deploys_s: Vec<f64> = (0..p.extra_deploys)
        .map(|_| {
            let t = Instant::now();
            drop(StreamService::deploy(net, cfg.clone()).expect("service deploys"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let start = Instant::now();
    let mut deployments = Vec::new();
    while deployments.len() < p.min_deployments || start.elapsed().as_secs_f64() < p.seconds {
        deployments.push(deploy_and_run(net, truth, &cfg));
    }
    deploys_s.extend(deployments.iter().map(|d| d.deploy_s));

    let mut windows = Vec::new();
    // Per window epoch, the error seen by any deployment (all deployments
    // replay the same seeded stream, so they must agree bit for bit).
    let mut window_errors: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let first = &deployments[0].report;
    for (i, d) in deployments.iter().enumerate() {
        let r = &d.report;
        check_report(r, p, checks, i);
        checks.require(
            r.gn_iterations == first.gn_iterations
                && r.suspect_frames == first.suspect_frames
                && r.frames_restored == first.frames_restored,
            format!(
                "deployment {i} repeats deployment 0's counts (gn {} vs {}, suspect {} vs {}, restored {} vs {})",
                r.gn_iterations,
                first.gn_iterations,
                r.suspect_frames,
                first.suspect_frames,
                r.frames_restored,
                first.frames_restored
            ),
        );
        let times: Vec<f64> = d.publishes.iter().map(|x| x.0).collect();
        let epochs: Vec<u64> = d.publishes.iter().map(|x| x.1).collect();
        let Some(window) = steady_window(&times, p.warmup) else {
            checks.require(false, format!("deployment {i} has a steady window"));
            continue;
        };
        let w_epochs = &epochs[p.warmup..];
        // Only intervals between consecutive epochs are cycle times; a
        // missed observation would merge two cycles into one interval.
        let mut cycles_ms: Vec<f64> = intervals(window)
            .into_iter()
            .enumerate()
            .filter(|&(k, _)| w_epochs[k + 1] == w_epochs[k] + 1)
            .map(|(_, dt)| dt * 1e3)
            .collect();
        cycles_ms.sort_by(f64::total_cmp);
        let pubs = w_epochs[w_epochs.len() - 1] - w_epochs[0];
        windows.push((
            cycles_ms,
            pubs as f64 / (window[window.len() - 1] - window[0]),
        ));
        let first_window_epoch = w_epochs[0];
        for (&e, &(vm, va)) in d.errors.range(first_window_epoch..) {
            checks.require(
                vm <= VM_RMSE_MAX && va <= VA_RMSE_MAX,
                format!("deployment {i} epoch {e}: vm rmse {vm:.3e} <= {VM_RMSE_MAX:.1e} and va rmse {va:.3e} <= {VA_RMSE_MAX:.1e}"),
            );
            match window_errors.get(&e) {
                Some(&prev) => checks.require(
                    prev == (vm, va),
                    format!(
                        "deployment {i} epoch {e} repeats the state error of earlier deployments"
                    ),
                ),
                None => {
                    window_errors.insert(e, (vm, va));
                }
            }
        }
    }
    let vms: Vec<f64> = window_errors.values().map(|e| e.0).collect();
    let vas: Vec<f64> = window_errors.values().map(|e| e.1).collect();
    Untraced {
        deployments,
        windows,
        deploys_s,
        vm_rmse: mean(&vms),
        va_rmse: mean(&vas),
    }
}

/// The service report's identities and lockstep completeness.
fn check_report(r: &StreamReport, p: &StreamParams, checks: &mut Checks, i: usize) {
    checks.require(
        r.unaccounted() == 0,
        format!(
            "deployment {i}: unaccounted() == 0 (is {})",
            r.unaccounted()
        ),
    );
    checks.require(
        r.suspect_frames == r.cleared_by_lnr + r.degraded_unidentifiable,
        format!(
            "deployment {i}: suspect_frames {} == cleared_by_lnr {} + degraded_unidentifiable {}",
            r.suspect_frames, r.cleared_by_lnr, r.degraded_unidentifiable
        ),
    );
    checks.require(
        r.rtu_outages == r.frames_restored + r.short_scan_observable + r.unobservable_degraded,
        format!(
            "deployment {i}: rtu_outages {} == frames_restored {} + short_scan_observable {} + unobservable_degraded {}",
            r.rtu_outages, r.frames_restored, r.short_scan_observable, r.unobservable_degraded
        ),
    );
    checks.require(
        r.batched_lanes + r.scalar_fallbacks == r.gain_solves,
        format!(
            "deployment {i}: batched_lanes {} + scalar_fallbacks {} == gain_solves {}",
            r.batched_lanes, r.scalar_fallbacks, r.gain_solves
        ),
    );
    checks.require(
        r.frames_published == p.frames && lost_frames(r) == 0,
        format!(
            "deployment {i}: every frame published ({} of {}) and no area-frame lost ({})",
            r.frames_published,
            p.frames,
            lost_frames(r)
        ),
    );
    checks.require(
        r.suspected == 0 && r.workers_restarted == 0,
        format!(
            "deployment {i}: no worker suspected ({}) or restarted ({})",
            r.suspected, r.workers_restarted
        ),
    );
    if !p.faulted {
        checks.require(
            r.degraded_area_rounds == 0 && r.suspect_frames == 0 && r.rtu_outages == 0,
            format!("deployment {i}: the clean stream never degrades an area"),
        );
    }
}

impl Untraced {
    /// Median over deployments of the steady-window publish rate.
    pub fn publish_rate(&self) -> f64 {
        median_of(&self.windows.iter().map(|w| w.1).collect::<Vec<_>>())
    }

    /// Median over deployments of the steady-window median cycle (ms).
    pub fn cycle_p50(&self) -> f64 {
        median_of(
            &self
                .windows
                .iter()
                .map(|w| median(&w.0))
                .collect::<Vec<_>>(),
        )
    }

    /// Median over deployments of each steady window's `pct` tail (ms),
    /// with the lowest percentile any window could support.
    pub fn cycle_tail(&self, pct: f64) -> (f64, Tail) {
        let tails: Vec<Tail> = self.windows.iter().map(|w| tail(&w.0, pct)).collect();
        let value = median_of(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
        let weakest = tails.into_iter().min_by(|a, b| a.pct.total_cmp(&b.pct));
        (
            value,
            weakest.unwrap_or(Tail {
                pct: 50.0,
                value: 0.0,
                n: 0,
            }),
        )
    }
}

/// End-to-end metrics of the untraced run: each deployment's steady
/// window is summarised on its own, and the run reports the median over
/// deployments, so a burst of outside load during one deployment does not
/// move the result.
pub fn end_to_end(u: &Untraced, m: &mut Metrics) {
    let first_publish: Vec<f64> = u.deployments.iter().map(|d| d.first_publish_s).collect();
    let setup_s = median_of(&u.deploys_s) + median_of(&first_publish);
    let k = u.windows.len();
    m.add(
        "publish_rate",
        u.publish_rate(),
        "1/s",
        format!("steady-window snapshots per second, median of {k} deployments"),
    );
    m.add(
        "cycle_ms_p50",
        u.cycle_p50(),
        "ms",
        format!("publish-to-publish, median of {k} deployments"),
    );
    m.add(
        "setup_s",
        setup_s,
        "s",
        format!(
            "median of {} deploys + median of {} run start -> first publish",
            u.deploys_s.len(),
            first_publish.len()
        ),
    );
    m.add(
        "vm_rmse",
        u.vm_rmse,
        "pu",
        "mean over window epochs vs power-flow truth".into(),
    );
    m.add(
        "va_rmse",
        u.va_rmse,
        "rad",
        "mean over window epochs vs power-flow truth".into(),
    );
}

/// Per-layer metrics read from the untraced run's public reports.
pub fn report_metrics(u: &Untraced, m: &mut Metrics) {
    let r = &u.deployments[0].report;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let fed: u64 = u
        .deployments
        .iter()
        .map(|d| d.report.frames_fed + d.report.send_failures)
        .sum();
    let not_fresh: u64 = u
        .deployments
        .iter()
        .map(|d| lost_frames(&d.report) + d.report.degraded_area_rounds)
        .sum();
    let teardowns: Vec<f64> = u.deployments.iter().map(|d| d.teardown_s).collect();
    let lat50: Vec<f64> = u
        .deployments
        .iter()
        .map(|d| d.report.latency_p50_ms)
        .collect();
    let lat99: Vec<f64> = u
        .deployments
        .iter()
        .map(|d| d.report.latency_p99_ms)
        .collect();
    let fps: Vec<f64> = u
        .deployments
        .iter()
        .map(|d| d.report.frames_per_second())
        .collect();
    let (p90, _) = u.cycle_tail(90.0);
    m.add(
        "cycle_ms_p90",
        p90,
        "ms",
        format!("median of {} deployments' p90", u.windows.len()),
    );
    let (p99, weakest) = u.cycle_tail(99.0);
    m.add(
        "cycle_ms_p99",
        p99,
        "ms",
        format!(
            "median of {} deployments' p{:.2}+ (n>={} each)",
            u.windows.len(),
            weakest.pct,
            weakest.n
        ),
    );
    m.add(
        "teardown_s",
        median_of(&teardowns),
        "s",
        "median last publish -> run() returns".into(),
    );
    m.add(
        "failed_frac",
        ratio(not_fresh, fed),
        "ratio",
        "area-frames not solved fresh / fed".into(),
    );
    m.add(
        "stream.gn_iterations",
        r.gn_iterations as f64,
        "count",
        "per deployment".into(),
    );
    m.add(
        "stream.symbolic_reuse_ratio",
        ratio(r.symbolic_reuses, r.symbolic_reuses + r.symbolic_builds),
        "ratio",
        String::new(),
    );
    m.add(
        "stream.refactor_reuse_ratio",
        ratio(r.refactor_reuse, r.refactor_reuse + r.refactor_full),
        "ratio",
        String::new(),
    );
    m.add(
        "stream.batched_lanes",
        r.batched_lanes as f64,
        "count",
        format!("of {} gain solves", r.gain_solves),
    );
    m.add(
        "stream.scalar_fallbacks",
        r.scalar_fallbacks as f64,
        "count",
        String::new(),
    );
    m.add(
        "stream.condensed_solves",
        r.condensed_solves as f64,
        "count",
        String::new(),
    );
    m.add(
        "stream.suspect_frames",
        r.suspect_frames as f64,
        "count",
        String::new(),
    );
    m.add(
        "stream.frames_restored",
        r.frames_restored as f64,
        "count",
        String::new(),
    );
    m.add(
        "stream.report_latency_ms_p50",
        median_of(&lat50),
        "ms",
        "StreamReport ingest->publish".into(),
    );
    m.add(
        "stream.report_latency_ms_p99",
        median_of(&lat99),
        "ms",
        "StreamReport ingest->publish".into(),
    );
    m.add(
        "stream.report_fps_ratio",
        median_of(&fps) / u.publish_rate(),
        "ratio",
        "frames_per_second() / publish_rate".into(),
    );
}

// ---------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------

/// Per-frame telemetry seed, as the service derives it.
fn frame_seed(seed: u64, s: u64) -> u64 {
    seed ^ s
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x2545_f491_4f6c_dd1d)
}

/// Per-frame Step-2 tie-line noise seed, as the service derives it.
fn step2_seed(seed: u64, s: u64) -> u64 {
    seed ^ s
        .wrapping_mul(0x6a09_e667_f3bc_c909)
        .wrapping_add(0x1f83_d9ab_fb41_bd6b)
}

/// Whether a measurement depends on a dead bus (RTU outage semantics of
/// the service's feeder).
fn touches_dead(kind: &MeasurementKind, net: &Network, dead: &[usize]) -> bool {
    if dead.contains(&kind.site(&net.branches)) {
        return true;
    }
    match *kind {
        MeasurementKind::Pflow { branch, .. } | MeasurementKind::Qflow { branch, .. } => {
            let br = &net.branches[branch];
            dead.contains(&br.from) || dead.contains(&br.to)
        }
        MeasurementKind::Pinj { bus } | MeasurementKind::Qinj { bus } => {
            net.branches.iter().any(|br| {
                (br.from == bus && dead.contains(&br.to))
                    || (br.to == bus && dead.contains(&br.from))
            })
        }
        _ => false,
    }
}

/// One area's scan for frame `s`, with the plan's scan fault applied.
fn synthesize(
    est: &AreaEstimator,
    cfg: &StreamConfig,
    a: usize,
    s: u64,
    noise: f64,
) -> MeasurementSet {
    let set = est.generate_telemetry(noise, frame_seed(cfg.seed, s));
    match scan_fault(cfg, a, s) {
        Some(ScanFault::GrossError {
            slot,
            magnitude_sigma,
        }) if !set.is_empty() => {
            let idx = (slot % set.len() as u64) as usize;
            set.as_slice()
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let mut m = *m;
                    if i == idx {
                        m.value += magnitude_sigma * m.sigma;
                    }
                    m
                })
                .collect()
        }
        Some(ScanFault::RtuOutage { site_slots }) => {
            let net = est.step1_estimator().network();
            let n_local = net.n_buses() as u64;
            let dead: Vec<usize> = site_slots.iter().map(|&t| (t % n_local) as usize).collect();
            set.as_slice()
                .iter()
                .filter(|m| !touches_dead(&m.kind, net, &dead))
                .copied()
                .collect()
        }
        _ => set,
    }
}

fn scan_fault(cfg: &StreamConfig, a: usize, s: u64) -> Option<ScanFault> {
    cfg.scan_faults.as_ref().and_then(|p| p.fault_for(a, s))
}

/// Outcome of one area's Step 1 in the replay.
enum Step1 {
    Skipped,
    Failed,
    Degraded,
    Solved(AreaSolution),
}

/// Per-round tallies the spans cannot carry.
#[derive(Debug, Default, Clone)]
pub struct RoundCounts {
    /// Wire bytes shipped.
    pub wire_bytes: u64,
    /// Connections opened by `MwClient::send`.
    pub connects: u64,
    /// Step-1 / Step-2 Gauss–Newton iterations.
    pub step1_iters: u64,
    /// See `step1_iters`.
    pub step2_iters: u64,
    /// Pseudo measurements exported.
    pub pseudo: u64,
    /// Serve bytes delivered by the fan-out.
    pub serve_bytes: u64,
}

/// Everything the traced replay produced.
#[derive(Debug)]
pub struct Traced {
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Per round (frame sequence) tallies.
    pub counts: Vec<RoundCounts>,
    /// Per published epoch: (vm RMSE, va RMSE).
    pub errors: BTreeMap<u64, (f64, f64)>,
    /// Suspect frames, LNR-cleared frames, restorations over the replay.
    pub suspects: u64,
    /// See `suspects`.
    pub cleared: u64,
    /// See `suspects`.
    pub restored: u64,
}

/// Replays `p.frames` lockstep rounds through the layers' public
/// functions, recording a span per call.
pub fn run_traced(
    net: &Network,
    truth: &PfSolution,
    p: &StreamParams,
    checks: &mut Checks,
) -> Traced {
    let cfg = config(p);
    let decomp = decompose(net, &cfg.decomposition);
    let ests: Vec<AreaEstimator> = decomp
        .areas
        .iter()
        .map(|a| AreaEstimator::new(a.clone(), net, truth, cfg.wls))
        .collect();
    let n = ests.len();
    let registry = EndpointRegistry::new();
    let urls: Vec<String> = (0..n)
        .map(|a| format!("tcp://bench-ingest-area{a}.pgse:{}", 7500 + a))
        .collect();
    let listeners: Vec<TcpListener> = urls
        .iter()
        .map(|u| registry.bind(u).expect("bind ingest endpoint"))
        .collect();
    let queues: Vec<IngestQueue> = (0..n)
        .map(|_| IngestQueue::new(cfg.queue_capacity))
        .collect();
    let client = MwClient::new(registry.clone());
    let store = SnapshotStore::new();
    let bc = Arc::new(Broadcaster::new(area_map(&decomp), 4));
    let subs = subscribe_all(&bc, n);
    let ckpts = CheckpointStore::new(n);
    let mut watchdog = Watchdog::new(n, &cfg.supervision);
    let tr = Tracer::new();
    let current_root = AtomicUsize::new(usize::MAX);
    let stop = AtomicBool::new(false);

    let mut s1_caches: Vec<SolveCache> = (0..n).map(|_| SolveCache::new()).collect();
    let mut s2_caches: Vec<SolveCache> = (0..n).map(|_| SolveCache::new()).collect();
    let mut last_sets: Vec<Option<MeasurementSet>> = vec![None; n];
    let mut last_solutions: Vec<Option<AreaSolution>> = vec![None; n];
    let mut counts = Vec::with_capacity(p.frames as usize);
    let mut errors = BTreeMap::new();
    let (mut suspects, mut cleared, mut unidentifiable) = (0u64, 0u64, 0u64);
    let (mut restored, mut short_observable, mut unobservable) = (0u64, 0u64, 0u64);
    let mut rtu_fed = 0u64;

    std::thread::scope(|scope| {
        // Ingest listeners: receive, decode, enqueue (the service's
        // per-area listener threads).
        for (listener, queue) in listeners.iter().zip(&queues) {
            let (tr, stop, current_root) = (&tr, &stop, &current_root);
            scope.spawn(move || loop {
                match MwClient::recv_deadline_on(listener, RECV_POLL) {
                    Ok(body) => {
                        let root = current_root.load(Ordering::Acquire);
                        let parent = (root != usize::MAX).then_some(root);
                        let start = Instant::now();
                        let frame = wire::decode(&body).expect("replayed frames decode");
                        let seq = frame.seq;
                        queue.push(frame);
                        tr.time_from("stream.wire_decode", seq, parent, start);
                    }
                    Err(e) if e.is_timeout() => {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    Err(e) => panic!("ingest receive failed: {e}"),
                }
            });
        }

        for s in 0..p.frames {
            let mut c = RoundCounts::default();
            let root = tr.begin("round", s, None);
            current_root.store(root, Ordering::Release);
            let dt = s as f64 * cfg.frame_interval.as_secs_f64();
            let noise = cfg.noise.level(dt);

            // Feeder: synthesize → encode → send, one area at a time.
            for (a, est) in ests.iter().enumerate() {
                let set = tr.time("stream.synthetic", s, Some(root), || {
                    synthesize(est, &cfg, a, s, noise)
                });
                if matches!(scan_fault(&cfg, a, s), Some(ScanFault::RtuOutage { .. })) {
                    rtu_fed += 1;
                }
                let bytes = tr.time("stream.wire_encode", s, Some(root), || {
                    wire::encode(&StreamFrame::new(a as u32, s, dt, set))
                });
                c.wire_bytes += bytes.len() as u64;
                let sent = tr.time("medici.send", s, Some(root), || {
                    client.send(&urls[a], &bytes)
                });
                checks.require(sent.is_ok(), format!("traced frame {s} area {a} sent"));
                c.connects += 1;
            }

            // Solver: take each area's frame off its queue.
            let mut fresh = vec![false; n];
            for (a, q) in queues.iter().enumerate() {
                let popped = tr.time("stream.queue_wait", s, Some(root), || {
                    q.pop_latest(cfg.pop_deadline)
                });
                match popped {
                    Some((frame, _)) if frame.seq == s => {
                        last_sets[a] = Some(frame.measurements);
                        fresh[a] = true;
                    }
                    _ => checks.require(
                        false,
                        format!("traced frame {s} area {a} arrived in its round"),
                    ),
                }
            }

            // Observability restoration of shortened scans.
            if cfg.restoration {
                for a in 0..n {
                    let Some(set) = last_sets[a]
                        .as_ref()
                        .filter(|set| fresh[a] && set.len() < ests[a].scan_len())
                    else {
                        continue;
                    };
                    let w = ests[a].step1_estimator();
                    let nb = w.network().n_buses();
                    let (vm0, va0) = match &last_solutions[a] {
                        Some(sol) if sol.vm.len() == nb => (sol.vm.clone(), sol.va.clone()),
                        _ => (vec![1.0; nb], vec![0.0; nb]),
                    };
                    let (aug, rep) = tr.time("estimation.restore", s, Some(root), || {
                        restoration::restore(w.network(), set, w.space(), &vm0, &va0)
                    });
                    if rep.added.is_empty() {
                        short_observable += 1;
                    } else if rep.after.observable {
                        restored += 1;
                        last_sets[a] = Some(aug);
                    } else {
                        unobservable += 1;
                        fresh[a] = false;
                    }
                }
            }

            // DSE Step 1 across the pool.
            let step1_id = tr.begin("dse.step1", s, Some(root));
            let mut step1: Vec<Step1> = ests
                .par_iter()
                .enumerate()
                .zip(s1_caches.par_iter_mut())
                .map(|((a, est), cache)| {
                    let Some(set) = last_sets[a].as_ref().filter(|_| fresh[a]) else {
                        return Step1::Skipped;
                    };
                    match tr.time("dse.step1.area", s, Some(step1_id), || {
                        est.step1_cached(set, cache)
                    }) {
                        Ok(sol) => Step1::Solved(sol),
                        Err(_) => Step1::Failed,
                    }
                })
                .collect();
            tr.end(step1_id);

            // Bad-data gate and LNR identification, sequential per area.
            if let Some(gate) = cfg.baddata {
                for a in 0..n {
                    let Step1::Solved(sol) = &step1[a] else {
                        continue;
                    };
                    let Some(set) = last_sets[a].as_ref() else {
                        continue;
                    };
                    let est1 = ests[a].step1_estimator();
                    let (m, dim) = (set.len(), est1.space().dim());
                    let fired = tr.time("estimation.gate", s, Some(root), || {
                        m > dim
                            && sol.objective
                                > baddata::chi_square_critical(m - dim, gate.confidence)
                    });
                    if !fired {
                        continue;
                    }
                    suspects += 1;
                    let out = tr.time("estimation.lnr", s, Some(root), || {
                        baddata::identify_and_remove(est1, set, gate.confidence, gate.max_removals)
                    });
                    match out {
                        Ok(rep) if rep.clean => {
                            cleared += 1;
                            let mut cleaned = set.clone();
                            let mut rm = rep.removed.clone();
                            rm.sort_unstable_by(|x, y| y.cmp(x));
                            for i in rm {
                                cleaned.remove(i);
                            }
                            last_sets[a] = Some(cleaned);
                            s1_caches[a]
                                .restore_warm(rep.estimate.vm.clone(), rep.estimate.va.clone());
                            step1[a] = Step1::Solved(AreaSolution {
                                vm: rep.estimate.vm,
                                va: rep.estimate.va,
                                iterations: sol.iterations,
                                objective: rep.estimate.objective,
                            });
                        }
                        _ => {
                            unidentifiable += 1;
                            step1[a] = Step1::Degraded;
                        }
                    }
                }
            }
            for (a, out) in step1.iter().enumerate() {
                match out {
                    Step1::Failed => {
                        checks.require(false, format!("traced frame {s} area {a} step 1 solved"))
                    }
                    Step1::Degraded => fresh[a] = false,
                    _ => {}
                }
            }

            // Exchange: boundary solutions become neighbours' pseudo
            // measurements.
            let (s1_solutions, inboxes) = tr.time("dse.exchange", s, Some(root), || {
                let s1_solutions: Vec<Option<AreaSolution>> = (0..n)
                    .map(|a| match &step1[a] {
                        Step1::Solved(sol) => Some(sol.clone()),
                        _ => last_solutions[a].clone(),
                    })
                    .collect();
                let pseudo: Vec<Vec<PseudoMeasurement>> = ests
                    .iter()
                    .zip(&s1_solutions)
                    .map(|(est, sol)| {
                        sol.as_ref()
                            .map(|sol| est.export_pseudo(sol))
                            .unwrap_or_default()
                    })
                    .collect();
                let inboxes: Vec<Vec<PseudoMeasurement>> = ests
                    .iter()
                    .map(|est| {
                        est.info
                            .neighbors
                            .iter()
                            .flat_map(|&nb| pseudo[nb].iter().copied())
                            .collect()
                    })
                    .collect();
                c.pseudo = pseudo.iter().map(|v| v.len() as u64).sum();
                (s1_solutions, inboxes)
            });

            // DSE Step 2 across the pool.
            let step2_id = tr.begin("dse.step2", s, Some(root));
            let seed2 = step2_seed(cfg.seed, s);
            let step2: Vec<Option<AreaSolution>> = ests
                .par_iter()
                .enumerate()
                .zip(s2_caches.par_iter_mut())
                .map(|((a, est), cache)| {
                    let (Some(s1), Some(set)) = (s1_solutions[a].as_ref(), last_sets[a].as_ref())
                    else {
                        return None;
                    };
                    if !fresh[a] {
                        return None;
                    }
                    tr.time("dse.step2.area", s, Some(step2_id), || {
                        est.step2_cached(s1, &inboxes[a], set, noise, seed2, cache)
                    })
                    .ok()
                })
                .collect();
            tr.end(step2_id);

            // Merge the round.
            for a in 0..n {
                if let Step1::Solved(sol) = &step1[a] {
                    c.step1_iters += sol.iterations as u64;
                }
                if let Some(sol) = &step2[a] {
                    c.step2_iters += sol.iterations as u64;
                }
                if let Some(sol) = step2[a].clone().or_else(|| s1_solutions[a].clone()) {
                    last_solutions[a] = Some(sol);
                }
            }

            // Supervision: checkpoint the fresh solves, heartbeat every
            // worker, and close the round on the watchdog (the service's
            // default checkpoints every round).
            let events = tr.time("stream.supervise", s, Some(root), || {
                for a in 0..n {
                    if fresh[a] && matches!(step1[a], Step1::Solved(_)) {
                        ckpts.save(AreaCheckpoint {
                            area: a,
                            frame_seq: s,
                            warm: s1_caches[a].export_warm(),
                            last_set: last_sets[a].clone(),
                            last_solution: last_solutions[a].clone(),
                            structure: s1_caches[a].structure_descriptor(),
                        });
                    }
                    watchdog.beat(a);
                }
                watchdog.tick(s)
            });
            checks.require(
                events.is_empty(),
                format!("traced frame {s}: no supervision event ({events:?})"),
            );

            // Aggregate and publish.
            let snap = tr.time("dse.aggregate", s, Some(root), || {
                last_solutions.iter().all(Option::is_some).then(|| {
                    let sols: Vec<AreaSolution> =
                        last_solutions.iter().flatten().cloned().collect();
                    let (vm, va) = aggregate(&decomp, &sols);
                    SystemSnapshot {
                        epoch: 0,
                        frame_seq: s,
                        dt_seconds: dt,
                        vm,
                        va,
                        degraded_areas: (0..n).filter(|&a| !fresh[a]).collect(),
                    }
                })
            });
            let published =
                snap.map(|snap| tr.time("stream.publish", s, Some(root), || store.publish(snap)));
            tr.end(root);
            checks.require(
                matches!(published, Some(Ok(_))),
                format!("traced frame {s} published"),
            );

            // Serving-side fan-out, off the round's critical path.
            if let Some(snap) = store.load() {
                c.serve_bytes = tr.time("serve.fanout", s, None, || fan_out(&bc, &subs, &snap));
                errors.insert(snap.epoch, state_errors(&snap, truth));
            }
            counts.push(c);
        }
        stop.store(true, Ordering::Release);
    });

    checks.require(
        suspects == cleared + unidentifiable,
        format!(
            "traced: suspect {suspects} == cleared {cleared} + unidentifiable {unidentifiable}"
        ),
    );
    checks.require(
        rtu_fed == restored + short_observable + unobservable,
        format!("traced: rtu outages {rtu_fed} == restored {restored} + observable {short_observable} + unobservable {unobservable}"),
    );
    for (&e, &(vm, va)) in errors.range(p.warmup as u64 + 1..) {
        checks.require(
            vm <= VM_RMSE_MAX && va <= VA_RMSE_MAX,
            format!("traced epoch {e}: vm rmse {vm:.3e} and va rmse {va:.3e} within bounds"),
        );
    }
    Traced {
        spans: tr.take(),
        counts,
        errors,
        suspects,
        cleared,
        restored,
    }
}

/// Per-layer metrics of the traced replay over its steady rounds.
pub fn trace_metrics(t: &Traced, u: &Untraced, p: &StreamParams, m: &mut Metrics) {
    let steady = |round: u64| round >= p.warmup as u64;
    let rounds: Vec<u64> = (p.warmup as u64..p.frames).collect();
    // Sum of a layer's span durations per steady round (ms), then median.
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut index: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    let mut area_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut round_ms = Vec::new();
    let (mut covered, mut wall) = (0u64, 0u64);
    for (id, sp) in t.spans.iter().enumerate() {
        if !steady(sp.round) {
            continue;
        }
        if sp.name == "round" {
            round_ms.push(sp.dur_ms());
            wall += sp.dur_ns();
            covered += sp.dur_ns() - self_ns(&t.spans, id);
            continue;
        }
        if sp.name.ends_with(".area") {
            area_ms.entry(sp.name).or_default().push(sp.dur_ms());
        }
        *index.entry((sp.name, sp.round)).or_default() += sp.dur_ms();
    }
    for ((name, _), v) in index {
        per_round.entry(name).or_default().push(v);
    }
    // A layer absent from a steady round spent no time in it.
    let layer = |name: &str| -> f64 {
        let mut v = per_round.get(name).cloned().unwrap_or_default();
        v.resize(rounds.len(), 0.0);
        median_of(&v)
    };
    let area_tail = |name: &str| -> Tail {
        let mut v = area_ms.get(name).cloned().unwrap_or_default();
        v.sort_by(f64::total_cmp);
        tail(&v, 99.0)
    };
    let steady_counts = &t.counts[p.warmup..];
    let count = |f: fn(&RoundCounts) -> u64| {
        median_of(
            &steady_counts
                .iter()
                .map(|c| f(c) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let calls = |name: &str| {
        t.spans
            .iter()
            .filter(|s| s.name == name && steady(s.round))
            .count() as f64
            / rounds.len() as f64
    };

    m.add(
        "stream.synthetic_ms",
        layer("stream.synthetic"),
        "ms",
        "per round, 9 areas".into(),
    );
    m.add(
        "stream.wire_encode_ms",
        layer("stream.wire_encode"),
        "ms",
        String::new(),
    );
    m.add(
        "stream.wire_bytes",
        count(|c| c.wire_bytes),
        "bytes",
        "per round".into(),
    );
    m.add("medici.send_ms", layer("medici.send"), "ms", String::new());
    m.add(
        "medici.connects",
        count(|c| c.connects),
        "count",
        "per round".into(),
    );
    m.add(
        "stream.wire_decode_ms",
        layer("stream.wire_decode"),
        "ms",
        "listener threads".into(),
    );
    m.add(
        "stream.queue_wait_ms",
        layer("stream.queue_wait"),
        "ms",
        String::new(),
    );
    let s1 = area_tail("dse.step1.area");
    let s2 = area_tail("dse.step2.area");
    m.add("dse.step1_ms", layer("dse.step1"), "ms", String::new());
    m.add(
        "dse.step1_area_ms_p99",
        s1.value,
        "ms",
        format!("p{:.2} of n={}", s1.pct, s1.n),
    );
    m.add(
        "dse.step1_gn_iters",
        count(|c| c.step1_iters),
        "count",
        "per round".into(),
    );
    m.add(
        "dse.exchange_ms",
        layer("dse.exchange"),
        "ms",
        String::new(),
    );
    m.add(
        "dse.pseudo_count",
        count(|c| c.pseudo),
        "count",
        "per round".into(),
    );
    m.add("dse.step2_ms", layer("dse.step2"), "ms", String::new());
    m.add(
        "dse.step2_area_ms_p99",
        s2.value,
        "ms",
        format!("p{:.2} of n={}", s2.pct, s2.n),
    );
    m.add(
        "dse.step2_gn_iters",
        count(|c| c.step2_iters),
        "count",
        "per round".into(),
    );
    m.add(
        "dse.aggregate_ms",
        layer("dse.aggregate"),
        "ms",
        String::new(),
    );
    m.add(
        "stream.supervise_ms",
        layer("stream.supervise"),
        "ms",
        "checkpoints + watchdog".into(),
    );
    m.add(
        "stream.publish_ms",
        layer("stream.publish"),
        "ms",
        String::new(),
    );
    m.add(
        "estimation.gate_ms",
        layer("estimation.gate"),
        "ms",
        String::new(),
    );
    m.add(
        "estimation.lnr_ms",
        layer("estimation.lnr"),
        "ms",
        String::new(),
    );
    m.add(
        "estimation.lnr_calls",
        calls("estimation.lnr"),
        "count",
        "mean per round".into(),
    );
    let cleared_ratio = if t.suspects == 0 {
        0.0
    } else {
        t.cleared as f64 / t.suspects as f64
    };
    m.add(
        "estimation.lnr_cleared_ratio",
        cleared_ratio,
        "ratio",
        format!("{} of {} suspects", t.cleared, t.suspects),
    );
    m.add(
        "estimation.restore_ms",
        layer("estimation.restore"),
        "ms",
        String::new(),
    );
    m.add(
        "estimation.restore_calls",
        calls("estimation.restore"),
        "count",
        format!("mean per round, {} restored", t.restored),
    );
    m.add(
        "serve.fanout_ms",
        layer("serve.fanout"),
        "ms",
        "off the round".into(),
    );
    m.add(
        "serve.bytes_per_epoch",
        count(|c| c.serve_bytes),
        "bytes",
        String::new(),
    );
    let round_p50 = median_of(&round_ms);
    m.add(
        "trace.round_ms_p50",
        round_p50,
        "ms",
        format!("n={}", round_ms.len()),
    );
    m.add(
        "trace.coverage",
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        },
        "ratio",
        "layer spans / round wall".into(),
    );
    m.add(
        "trace.overhead_ratio",
        round_p50 / u.cycle_p50(),
        "ratio",
        "traced round p50 / untraced cycle p50".into(),
    );
}

/// The traced replay must publish exactly the states the service did.
pub fn check_replay(t: &Traced, u: &Untraced, checks: &mut Checks) {
    for d in &u.deployments {
        let mut matched = 0;
        for (e, err) in &d.errors {
            if let Some(te) = t.errors.get(e) {
                matched += 1;
                checks.require(
                    (te.0 - err.0).abs() <= 1e-9 * err.0.max(1e-12)
                        && (te.1 - err.1).abs() <= 1e-9 * err.1.max(1e-12),
                    format!(
                        "traced epoch {e} matches the service's state error ({:e} vs {:e})",
                        te.0, err.0
                    ),
                );
            }
        }
        checks.require(
            matched > 0,
            "traced replay overlaps the service's epochs".to_string(),
        );
    }
}
