//! Benchmark of the streaming DSE service on the 9-area IEEE-118 case.
//!
//! Three workloads ([`Workload`]) run through the repository's public API.
//! An untraced run gives the end-to-end metrics ([`END_TO_END`]); with
//! tracing on, a separate traced run attributes each round to its layers
//! and gives the per-layer metrics ([`PER_LAYER`]). Every run checks the
//! program's outputs ([`Checks`]). See `README.md` for the metric
//! definitions and the layer → end-to-end predictions.

pub mod n1;
pub mod stats;
pub mod stream;
pub mod trace;

use pgse::grid::cases::ieee118_like;
use pgse::powerflow::{solve, PfOptions};

/// One benchmark metric's definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the system sees, printed by the untraced run of
/// every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("publish_rate", "1/s", "higher"),
    def("cycle_ms_p50", "ms", "lower"),
    def("setup_s", "s", "lower"),
    def("vm_rmse", "pu", "lower"),
    def("va_rmse", "rad", "lower"),
];

/// Metrics of single layers, printed by the traced run of every workload.
/// A layer a workload does not run prints 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("cycle_ms_p90", "ms", "lower"),
    def("cycle_ms_p99", "ms", "lower"),
    def("teardown_s", "s", "lower"),
    def("failed_frac", "ratio", "lower"),
    def("n1_cases_per_s", "1/s", "higher"),
    def("n1_sweep_ms_p50", "ms", "lower"),
    def("stream.synthetic_ms", "ms", "lower"),
    def("stream.wire_encode_ms", "ms", "lower"),
    def("stream.wire_bytes", "bytes", "lower"),
    def("medici.send_ms", "ms", "lower"),
    def("medici.connects", "count", "lower"),
    def("stream.wire_decode_ms", "ms", "lower"),
    def("stream.queue_wait_ms", "ms", "lower"),
    def("dse.step1_ms", "ms", "lower"),
    def("dse.step1_area_ms_p99", "ms", "lower"),
    def("dse.step1_gn_iters", "count", "lower"),
    def("dse.exchange_ms", "ms", "lower"),
    def("dse.pseudo_count", "count", "lower"),
    def("dse.step2_ms", "ms", "lower"),
    def("dse.step2_area_ms_p99", "ms", "lower"),
    def("dse.step2_gn_iters", "count", "lower"),
    def("dse.aggregate_ms", "ms", "lower"),
    def("stream.supervise_ms", "ms", "lower"),
    def("stream.publish_ms", "ms", "lower"),
    def("estimation.gate_ms", "ms", "lower"),
    def("estimation.lnr_ms", "ms", "lower"),
    def("estimation.lnr_calls", "count", "lower"),
    def("estimation.lnr_cleared_ratio", "ratio", "higher"),
    def("estimation.restore_ms", "ms", "lower"),
    def("estimation.restore_calls", "count", "lower"),
    def("serve.fanout_ms", "ms", "lower"),
    def("serve.bytes_per_epoch", "bytes", "lower"),
    def("trace.round_ms_p50", "ms", "lower"),
    def("trace.coverage", "ratio", "higher"),
    def("trace.overhead_ratio", "ratio", "lower"),
    def("stream.gn_iterations", "count", "lower"),
    def("stream.symbolic_reuse_ratio", "ratio", "higher"),
    def("stream.refactor_reuse_ratio", "ratio", "higher"),
    def("stream.batched_lanes", "count", "higher"),
    def("stream.scalar_fallbacks", "count", "lower"),
    def("stream.condensed_solves", "count", "higher"),
    def("stream.suspect_frames", "count", "lower"),
    def("stream.frames_restored", "count", "higher"),
    def("stream.report_latency_ms_p50", "ms", "lower"),
    def("stream.report_latency_ms_p99", "ms", "lower"),
    def("stream.report_fps_ratio", "ratio", "higher"),
    def("contingency.bridge_gate_ms", "ms", "lower"),
    def("contingency.dc_screen_ms", "ms", "lower"),
    def("contingency.ac_confirm_ms", "ms", "lower"),
    def("contingency.suspects", "count", "lower"),
    def("contingency.violated_ratio", "ratio", "higher"),
    def("powerflow.newton_iters", "count", "lower"),
    def("contingency.case_ms_p99", "ms", "lower"),
    def("contingency.worker_imbalance", "ratio", "lower"),
    def("trace.n1_serial_over_parallel", "ratio", "higher"),
];

/// Correctness checks of one run. A failed check makes the run incorrect
/// and the command exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub evaluated: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes the expectation.
    pub fn require(&mut self, ok: bool, what: String) {
        self.evaluated += 1;
        if !ok {
            self.failures.push(what);
        }
    }
}

/// Measured metrics in the order they were added, with a free-text note.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str, String)>,
}

impl Metrics {
    /// Adds metric `name`.
    ///
    /// # Panics
    /// When `name` is not in the catalogue or its unit differs.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        let known = END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name);
        assert_eq!(
            known.map(|d| d.unit),
            Some(unit),
            "metric {name} [{unit}] is not catalogued"
        );
        self.entries.push((name, value, unit, note));
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// The note of `name`, if measured.
    fn note(&self, name: &str) -> &str {
        self.entries
            .iter()
            .find(|e| e.0 == name)
            .map_or("", |e| e.3.as_str())
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm lockstep stream of clean scans.
    StreamClean,
    /// The same stream with seeded gross errors and RTU outages, gated.
    StreamFaulted,
    /// Back-to-back N-1 sweeps of one estimated base state.
    N1Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::StreamClean,
        Workload::StreamFaulted,
        Workload::N1Sweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamClean => "stream_clean",
            Workload::StreamFaulted => "stream_faulted",
            Workload::N1Sweep => "n1_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Time budget of the untraced measurement.
    pub seconds: f64,
    /// Frames per service deployment (and traced replay rounds).
    pub frames: u64,
    /// Publishes dropped from the start of every deployment's window.
    pub warmup: usize,
    /// Deployments made regardless of the time budget.
    pub min_deployments: usize,
    /// Deploy-only repetitions timed for `setup_s`.
    pub extra_deploys: usize,
    /// N-1 engine set-ups timed.
    pub n1_setups: usize,
    /// N-1 sweeps measured regardless of the time budget.
    pub n1_min_sweeps: usize,
    /// N-1 single-threaded traced passes.
    pub n1_traced_passes: usize,
}

impl Sizes {
    /// The benchmark's sizes for a `seconds` budget.
    pub fn standard(seconds: f64) -> Self {
        Sizes {
            seconds,
            frames: 1060,
            warmup: 30,
            min_deployments: 3,
            extra_deploys: 8,
            n1_setups: 3,
            n1_min_sweeps: 12,
            n1_traced_passes: 3,
        }
    }

    /// Minimal sizes for smoke tests.
    pub fn smoke() -> Self {
        Sizes {
            seconds: 0.0,
            frames: 24,
            warmup: 4,
            min_deployments: 2,
            extra_deploys: 1,
            n1_setups: 1,
            n1_min_sweeps: 2,
            n1_traced_passes: 1,
        }
    }
}

/// Result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted: area-frames fed, or N-1 cases enumerated.
    pub attempted: u64,
    /// Attempted operations the program lost.
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// The checks.
    pub checks: Checks,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

/// Runs `workload` at `seed`; with `traced`, also the traced run.
pub fn run(workload: Workload, seed: u64, traced: bool, sizes: Sizes) -> Outcome {
    let net = ieee118_like();
    let truth = solve(&net, &PfOptions::default()).expect("base power flow converges");
    let mut checks = Checks::default();
    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    let mut spans = Vec::new();
    let (attempted, failed) = match workload {
        Workload::StreamClean | Workload::StreamFaulted => {
            let p = stream::StreamParams {
                faulted: workload == Workload::StreamFaulted,
                seed,
                frames: sizes.frames,
                warmup: sizes.warmup,
                min_deployments: sizes.min_deployments,
                seconds: sizes.seconds,
                extra_deploys: sizes.extra_deploys,
            };
            let u = stream::run_untraced(&net, &truth, &p, &mut checks);
            stream::end_to_end(&u, &mut e2e);
            if traced {
                stream::report_metrics(&u, &mut layer);
                let t = stream::run_traced(&net, &truth, &p, &mut checks);
                stream::check_replay(&t, &u, &mut checks);
                stream::trace_metrics(&t, &u, &p, &mut layer);
                spans = t.spans;
            }
            let reports = u.deployments.iter().map(|d| &d.report);
            (
                reports
                    .clone()
                    .map(|r| r.frames_fed + r.send_failures)
                    .sum(),
                reports.map(stream::lost_frames).sum(),
            )
        }
        Workload::N1Sweep => {
            let p = n1::N1Params {
                seed,
                seconds: sizes.seconds,
                setups: sizes.n1_setups,
                min_sweeps: sizes.n1_min_sweeps,
                traced_passes: sizes.n1_traced_passes,
            };
            let u = n1::run_untraced(&net, &truth, &p, &mut checks);
            n1::end_to_end(&u, &mut e2e);
            if traced {
                spans = n1::run_traced(&net, &truth, &p, &u, &mut checks, &mut layer);
            }
            (u.enumerated, u.shed)
        }
    };
    for (defs, m) in [(END_TO_END, &e2e), (PER_LAYER, &layer)] {
        for d in defs {
            if let Some(v) = m.get(d.name) {
                checks.require(v.is_finite(), format!("metric {} is finite ({v})", d.name));
            }
        }
    }
    checks.require(attempted > 0, "at least one operation attempted".into());
    Outcome {
        correct: checks.failures.is_empty(),
        attempted,
        failed,
        end_to_end: e2e,
        per_layer: layer,
        checks,
        spans,
    }
}

/// Human-readable lines for `defs` (unmeasured metrics print 0).
pub fn describe(defs: &[MetricDef], m: &Metrics) -> Vec<String> {
    defs.iter()
        .map(|d| {
            let note = match m.get(d.name) {
                Some(_) => m.note(d.name).to_string(),
                None => "not on this workload's path".to_string(),
            };
            let v = m.get(d.name).unwrap_or(0.0);
            format!(
                "  {:<34} {:>16.6} {:<6} ({} is better) {}",
                d.name, v, d.unit, d.better, note
            )
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the `metrics` of `defs` (unmeasured metrics print 0).
pub fn result_json(o: &Outcome, defs: &[MetricDef], m: &Metrics) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = m.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
