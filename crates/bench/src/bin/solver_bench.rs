//! Gain-solve benchmark → `target/obs/BENCH_solver.json`.
//!
//! Three sections, one JSON report:
//!
//! 1. **Sequential vs parallel PCG.** Builds the real IEEE-118 WLS gain
//!    matrix `G = HᵀWH`, replicates it block-diagonally with weak
//!    SPD-preserving coupling into a large synthetic case (118 buses
//!    alone sits below the parallel-kernel size thresholds), and times
//!    the Jacobi-PCG solve with `parallel: false` vs `parallel: true`.
//!    The two solves are bitwise identical by the `vecops` fixed-chunk
//!    determinism contract; that is asserted. The speedup itself is
//!    *recorded*, never asserted — on a 1–2 core runner the parallel
//!    path legitimately lands below 1× and an assertion would either
//!    fail spuriously or (as the old `threads >= 4` gate did) silently
//!    skip, reporting success without measuring anything.
//!
//! 2. **Warm-frame cached refactor vs IC(0)+PCG.** Models the streaming
//!    warm path: several gain systems keep their sparsity pattern across
//!    frames, only values change. The iterative cost per warm frame is
//!    one IC(0) build + PCG per system; the direct path refreshes each
//!    system's cached factor (`SparseCholesky::refactor` over the kept
//!    symbolic analysis) and solves. This speedup is pure amortization —
//!    no extra cores involved — so its ≥1.5× floor is asserted on ANY
//!    core count.
//!
//! 3. **Streaming round.** The real 9-area IEEE-118 per-area Step-1 gain
//!    systems over several frames, each area refreshing its own cached
//!    factor vs factoring every system from scratch
//!    (`SparseCholesky::factor`, minimum-degree analysis included). The
//!    kept symbolic analysis must buy ≥1.3× per round, on any core count.
//!
//! ```text
//! cargo run --release -p pgse-bench --bin solver_bench
//! ```

use std::time::{Duration, Instant};

use pgse_bench::timing::{paired_best, paired_best_until, time_ns};
use pgse_dse::decomposition::{decompose, DecompositionOptions};
use pgse_dse::AreaEstimator;
use pgse_estimation::jacobian::{assemble_jacobian, StateSpace};
use pgse_estimation::synthetic::TelemetryPlan;
use pgse_estimation::wls::WlsOptions;
use pgse_grid::cases::ieee118_like;
use pgse_grid::Ybus;
use pgse_powerflow::{solve, PfOptions};
use pgse_sparsela::pcg::{pcg, CgOptions, CgOutcome, Preconditioner};
use pgse_sparsela::{Coo, Csr, SparseCholesky};

/// Block copies of the IEEE-118 gain matrix in the large case. Sized so
/// the per-iteration SpMV (the parallel workhorse) dominates the small
/// BLAS-1 ops and the pool's per-operation dispatch overhead.
const COPIES: usize = 120;
/// Relative strength of the inter-copy coupling.
const COUPLE: f64 = 1e-3;
/// Timed repetitions per configuration (the minimum is reported).
const REPS: usize = 5;
/// Identical-pattern gain systems per warm frame (areas in flight).
const SYSTEMS: usize = 8;
/// Distinct warm frames cycled through the timed rounds.
const FRAMES: usize = 4;
/// Measurement rounds for the warm-frame comparison.
const WARM_ROUNDS: usize = 8;

fn gain_system() -> (Csr, Vec<f64>) {
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let set = plan.generate(&net, &pf, 1.0, 1);
    let space = StateSpace::with_reference(net.n_buses(), net.slack());
    let ybus = Ybus::new(&net);
    let vm = vec![1.0; net.n_buses()];
    let va = vec![0.0; net.n_buses()];
    let h = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
    let gain = h.ata_weighted(&set.weights());
    let mut rhs = vec![0.0; space.dim()];
    let wr: Vec<f64> = set.values().iter().zip(set.weights()).map(|(z, w)| z * w * 0.01).collect();
    h.spmv_transpose(&wr, &mut rhs);
    (gain, rhs)
}

/// Replicates `a` block-diagonally `copies` times and couples matching
/// states of consecutive copies. The coupling adds a weighted graph
/// Laplacian (positive semidefinite), so SPD-ness is preserved.
fn replicate_coupled(a: &Csr, copies: usize, couple: f64) -> Csr {
    let nb = a.nrows();
    let n = nb * copies;
    let mut coo = Coo::new(n, n);
    for k in 0..copies {
        let off = k * nb;
        for i in 0..nb {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(off + i, off + c, *v);
            }
        }
    }
    for k in 0..copies - 1 {
        let (o1, o2) = (k * nb, (k + 1) * nb);
        for i in 0..nb {
            let d = couple * a.get(i, i);
            coo.push(o1 + i, o1 + i, d);
            coo.push(o2 + i, o2 + i, d);
            coo.push(o1 + i, o2 + i, -d);
            coo.push(o2 + i, o1 + i, -d);
        }
    }
    coo.to_csr()
}

/// Minimum wall time over `REPS` solves (after one warm-up).
fn time_solve(a: &Csr, b: &[f64], m: &Preconditioner, opts: &CgOptions) -> (Duration, CgOutcome) {
    let mut best = Duration::MAX;
    let mut out = pcg(a, b, m, opts).expect("warm-up solve converges");
    for _ in 0..REPS {
        let t0 = Instant::now();
        out = pcg(a, b, m, opts).expect("timed solve converges");
        best = best.min(t0.elapsed());
    }
    (best, out)
}

/// An SPD-preserving value variant of `base` with the same sparsity
/// pattern: the diagonal congruence `D·A·D` with per-state scale factors
/// `d_i > 0` keyed on `(seed, i)` — exactly what per-frame measurement
/// re-weighting does to a gain matrix.
fn value_variant(base: &Csr, seed: u64) -> Csr {
    let n = base.nrows();
    let d: Vec<f64> = (0..n)
        .map(|i| 1.0 + 1e-3 * ((seed.wrapping_mul(31) + i as u64) % 23) as f64)
        .collect();
    let mut m = base.clone();
    let row_ptr = base.row_ptr().to_vec();
    let col_idx = base.col_idx().to_vec();
    let vals = m.values_mut();
    for r in 0..n {
        for p in row_ptr[r]..row_ptr[r + 1] {
            vals[p] *= d[r] * d[col_idx[p]];
        }
    }
    m
}

/// Iterative warm-frame cost: each system independently builds its IC(0)
/// preconditioner and runs PCG.
fn pcg_frame(systems: &[Csr], rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let opts = CgOptions { rel_tol: 1e-8, max_iter: 10_000, parallel: false };
    systems
        .iter()
        .zip(rhs)
        .map(|(a, b)| {
            let m = Preconditioner::ic0(a).expect("SPD system");
            pcg(a, b, &m, &opts).expect("system converges").x
        })
        .collect()
}

/// Direct warm-frame cost: each system refreshes its cached factor in
/// place (numeric values only) and solves.
fn refactor_frame(factors: &mut [SparseCholesky], systems: &[Csr], rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    factors
        .iter_mut()
        .zip(systems)
        .zip(rhs)
        .map(|((chol, a), b)| {
            chol.refactor(a).expect("SPD system");
            chol.solve(b)
        })
        .collect()
}

/// The real per-area Step-1 gain systems of the 9-area IEEE-118
/// decomposition, `frames` telemetry frames each: `out[area][frame]`.
/// Every frame of one area shares that area's gain sparsity pattern.
fn area_frame_systems(frames: u64) -> Vec<Vec<(Csr, Vec<f64>)>> {
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let d = decompose(&net, &DecompositionOptions::default());
    d.areas
        .iter()
        .map(|a| {
            let est = AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default());
            (0..frames).map(|f| est.step1_gain_system(&est.generate_telemetry(1.0, 100 + f))).collect()
        })
        .collect()
}

fn main() {
    let (gain, rhs) = gain_system();
    let big = replicate_coupled(&gain, COPIES, COUPLE);
    let n = big.nrows();
    let big_rhs: Vec<f64> = (0..COPIES).flat_map(|_| rhs.iter().copied()).collect();
    let precond = Preconditioner::jacobi(&big).expect("SPD diagonal");
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!(
        "case: ieee118 gain x{COPIES} coupled — n = {n}, nnz = {}, pool threads = {threads}",
        big.nnz()
    );

    let seq_opts = CgOptions { rel_tol: 1e-8, max_iter: 10_000, parallel: false };
    let par_opts = CgOptions { parallel: true, ..seq_opts };
    let (t_seq, out_seq) = time_solve(&big, &big_rhs, &precond, &seq_opts);
    let (t_par, out_par) = time_solve(&big, &big_rhs, &precond, &par_opts);

    let bitwise = out_seq.x.iter().zip(&out_par.x).all(|(a, b)| a.to_bits() == b.to_bits())
        && out_seq.iterations == out_par.iterations;
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64();
    println!("sequential: {:>9.3} ms  ({} iterations)", t_seq.as_secs_f64() * 1e3, out_seq.iterations);
    println!("parallel:   {:>9.3} ms  ({} iterations)", t_par.as_secs_f64() * 1e3, out_par.iterations);
    println!("speedup:    {speedup:>9.2}x   bitwise-identical: {bitwise}");
    if speedup < 1.5 {
        println!(
            "(parallel speedup below 1.5x — informational only; \
             {cores} cores / {threads} pool threads on this runner)"
        );
    }

    // ---- Warm-frame cached refactor vs per-system IC(0)+PCG ----
    let frames: Vec<Vec<Csr>> = (0..FRAMES)
        .map(|f| (0..SYSTEMS).map(|l| value_variant(&gain, (f * SYSTEMS + l) as u64)).collect())
        .collect();
    let sys_rhs: Vec<Vec<f64>> = (0..SYSTEMS)
        .map(|l| rhs.iter().map(|v| v * (1.0 + 0.01 * l as f64)).collect())
        .collect();

    // One cached factor per system, built outside the timed region like
    // the stream cache's first frame.
    let mut factors: Vec<SparseCholesky> =
        frames[0].iter().map(|a| SparseCholesky::factor(a).expect("SPD system")).collect();

    // The refreshed factors must agree bitwise with from-scratch
    // factorizations before the timing means anything.
    let warm_sols = refactor_frame(&mut factors, &frames[1], &sys_rhs);
    let warm_bitwise = frames[1].iter().zip(&sys_rhs).zip(&warm_sols).all(|((a, b), xs)| {
        let fresh = SparseCholesky::factor(a).expect("SPD system").solve(b);
        fresh.iter().zip(xs).all(|(s, x)| s.to_bits() == x.to_bits())
    });

    let mut fi = 0usize;
    let mut si = 0usize;
    let (t_refactor, t_pcg) = paired_best_until(
        WARM_ROUNDS,
        || {
            fi += 1;
            let f = &frames[fi % FRAMES];
            time_ns(|| {
                std::hint::black_box(refactor_frame(&mut factors, f, &sys_rhs));
            })
        },
        || {
            si += 1;
            let f = &frames[si % FRAMES];
            time_ns(|| {
                std::hint::black_box(pcg_frame(f, &sys_rhs));
            })
        },
        |f, s| f.saturating_mul(3) < s.saturating_mul(2),
    );
    let warm_speedup = t_pcg as f64 / t_refactor as f64;
    println!(
        "warm frame ({SYSTEMS} systems): IC(0)+PCG {:>9.3} ms, cached refactor {:>9.3} ms — {warm_speedup:.2}x",
        t_pcg as f64 / 1e6,
        t_refactor as f64 / 1e6,
    );

    // ---- Streaming round: every area refreshes its own cached factor vs
    // every system factored from scratch, on the real per-area systems.
    let areas = area_frame_systems(FRAMES as u64);
    let mut area_factors: Vec<SparseCholesky> =
        areas.iter().map(|f| SparseCholesky::factor(&f[0].0).expect("SPD system")).collect();
    let (t_round_cached, t_round_fresh) = paired_best(
        WARM_ROUNDS,
        || {
            time_ns(|| {
                for (frames, chol) in areas.iter().zip(&mut area_factors) {
                    for (g, b) in frames {
                        chol.refactor(g).expect("SPD system");
                        std::hint::black_box(chol.solve(b));
                    }
                }
            })
        },
        || {
            time_ns(|| {
                for (g, b) in areas.iter().flatten() {
                    std::hint::black_box(SparseCholesky::factor(g).expect("SPD system").solve(b));
                }
            })
        },
    );
    let round_speedup = t_round_fresh as f64 / t_round_cached as f64;
    println!(
        "streaming round ({} areas x {FRAMES} frames): from scratch {:>9.3} ms, cached refactor {:>9.3} ms — {round_speedup:.2}x",
        areas.len(),
        t_round_fresh as f64 / 1e6,
        t_round_cached as f64 / 1e6,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"case\": \"ieee118_gain_x{copies}_coupled\",\n",
            "  \"n\": {n},\n",
            "  \"nnz\": {nnz},\n",
            "  \"cores\": {cores},\n",
            "  \"threads\": {threads},\n",
            "  \"iterations\": {iters},\n",
            "  \"sequential_ms\": {seq:.6},\n",
            "  \"parallel_ms\": {par:.6},\n",
            "  \"speedup\": {speedup:.4},\n",
            "  \"deterministic_bitwise\": {bitwise},\n",
            "  \"warm_systems\": {systems},\n",
            "  \"warm_pcg_ms_per_frame\": {warm_pcg:.6},\n",
            "  \"warm_refactor_ms_per_frame\": {warm_refactor:.6},\n",
            "  \"warm_refactor_speedup\": {warm_speedup:.4},\n",
            "  \"warm_refactor_bitwise\": {warm_bitwise},\n",
            "  \"stream_round_fresh_ms\": {round_fresh:.6},\n",
            "  \"stream_round_cached_ms\": {round_cached:.6},\n",
            "  \"stream_round_speedup\": {round_speedup:.4}\n",
            "}}\n"
        ),
        copies = COPIES,
        n = n,
        nnz = big.nnz(),
        cores = cores,
        threads = threads,
        iters = out_seq.iterations,
        seq = t_seq.as_secs_f64() * 1e3,
        par = t_par.as_secs_f64() * 1e3,
        speedup = speedup,
        bitwise = bitwise,
        systems = SYSTEMS,
        warm_pcg = t_pcg as f64 / 1e6,
        warm_refactor = t_refactor as f64 / 1e6,
        warm_speedup = warm_speedup,
        warm_bitwise = warm_bitwise,
        round_fresh = t_round_fresh as f64 / 1e6,
        round_cached = t_round_cached as f64 / 1e6,
        round_speedup = round_speedup,
    );
    // Round-trip through the parser so a malformed report can never ship.
    #[derive(serde::Deserialize)]
    #[allow(dead_code)]
    struct SolverBenchReport {
        case: String,
        n: usize,
        nnz: usize,
        cores: usize,
        threads: usize,
        iterations: usize,
        sequential_ms: f64,
        parallel_ms: f64,
        speedup: f64,
        deterministic_bitwise: bool,
        warm_systems: usize,
        warm_pcg_ms_per_frame: f64,
        warm_refactor_ms_per_frame: f64,
        warm_refactor_speedup: f64,
        warm_refactor_bitwise: bool,
        stream_round_fresh_ms: f64,
        stream_round_cached_ms: f64,
        stream_round_speedup: f64,
    }
    let parsed: SolverBenchReport = serde_json::from_str(&json).expect("valid JSON");
    assert!(parsed.sequential_ms > 0.0 && parsed.parallel_ms > 0.0);
    assert!(parsed.warm_pcg_ms_per_frame > 0.0 && parsed.warm_refactor_ms_per_frame > 0.0);
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/BENCH_solver.json", &json).expect("write BENCH_solver.json");
    println!("benchmark JSON written to target/obs/BENCH_solver.json");

    assert!(bitwise, "parallel solve diverged bitwise from the sequential reference");
    assert!(warm_bitwise, "cached refactor diverged bitwise from from-scratch factorizations");
    assert!(
        warm_speedup >= 1.5,
        "warm-frame cached refactor speedup {warm_speedup:.2}x over IC(0)+PCG is below the \
         1.5x floor (amortization, not parallelism — it must hold on any core count)"
    );
    // On a single-thread pool the tuning gate must route every "parallel"
    // kernel back to the sequential code path, so the parallel
    // configuration can cost at most measurement noise. (This is the
    // regression the gate fixes: pre-gate, a 1-core runner paid the
    // chunked-dispatch overhead for nothing and landed near 0.88x.)
    if threads == 1 {
        assert!(
            speedup >= 0.95,
            "1-thread parallel PCG landed at {speedup:.2}x — the pool gate must keep \
             a single-thread pool on the sequential path (≥0.95x)"
        );
    }
    assert!(
        round_speedup >= 1.3,
        "streaming-round cached refactor speedup {round_speedup:.2}x over from-scratch \
         factorization is below the 1.3x floor (kept symbolic analysis, any core count)"
    );
}
