//! Runtime-adjustable parallelism thresholds.
//!
//! The parallel kernels fall back to their sequential forms below these
//! sizes, where fork/join overhead dominates. Benchmarks and tests lower
//! them to exercise the parallel paths on small systems (IEEE-118's state
//! dimension is 235); changing a threshold can never change a result —
//! the parallel kernels are bitwise identical to their sequential
//! references (see `vecops`) — only which execution path runs.
//!
//! Each threshold can also be overridden at process start through a
//! `PGSE_TUNING_*` environment variable (see [`ENV_KEYS`]), so CI runners
//! of different widths tune without code edits. Invalid values are
//! ignored and the compiled default is kept — a misconfigured runner must
//! never change results or crash the solver.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

const DEFAULT_PAR_ELEMS: usize = 4096;
const DEFAULT_PAR_ROWS: usize = 256;

static PAR_ELEMS: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_ELEMS);
static PAR_ROWS: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_ROWS);

/// Environment variables recognized by [`apply_env_overrides`], paired
/// with the setter they drive.
pub const ENV_KEYS: [&str; 2] = ["PGSE_TUNING_PAR_ELEMS", "PGSE_TUNING_PAR_ROWS"];

static ENV_INIT: Once = Once::new();

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let pairs: Vec<(String, String)> = ENV_KEYS
            .iter()
            .filter_map(|k| std::env::var(k).ok().map(|v| (k.to_string(), v)))
            .collect();
        apply_overrides(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    });
}

/// Applies `(key, value)` override pairs to the thresholds. Unknown keys
/// and unparseable or zero values are ignored (the current value is
/// kept). Returns how many overrides were applied. Exposed separately
/// from the env-var path so tests can feed synthetic pairs without
/// mutating process-global environment state.
pub fn apply_overrides<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> usize {
    let mut applied = 0;
    for (key, val) in pairs {
        let Ok(n) = val.trim().parse::<usize>() else {
            continue;
        };
        if n == 0 {
            continue;
        }
        match key {
            "PGSE_TUNING_PAR_ELEMS" => set_par_elems_threshold(n),
            "PGSE_TUNING_PAR_ROWS" => set_par_rows_threshold(n),
            _ => continue,
        }
        applied += 1;
    }
    applied
}

/// Minimum vector length before BLAS-1 kernels split across threads.
pub fn par_elems_threshold() -> usize {
    init_from_env();
    PAR_ELEMS.load(Ordering::Relaxed)
}

/// Sets the BLAS-1 parallelism threshold (process-wide).
pub fn set_par_elems_threshold(n: usize) {
    PAR_ELEMS.store(n, Ordering::Relaxed);
}

/// Minimum row count before SpMV splits across threads.
pub fn par_rows_threshold() -> usize {
    init_from_env();
    PAR_ROWS.load(Ordering::Relaxed)
}

/// Sets the SpMV parallelism threshold (process-wide).
pub fn set_par_rows_threshold(n: usize) {
    PAR_ROWS.store(n, Ordering::Relaxed);
}

/// True when splitting work across threads can actually use more than
/// one worker. The parallel kernels AND this into their size gates so a
/// `parallel: true` configuration on a 1-thread pool (the CI container)
/// falls back to the sequential forms instead of paying fork/join
/// dispatch for no concurrency. Never changes results — both paths are
/// bitwise identical.
pub fn pool_parallel() -> bool {
    rayon::current_num_threads() > 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_parse_apply_and_ignore_garbage() {
        // Snapshot and restore: other tests in this crate read these
        // process-wide knobs.
        let save = (par_elems_threshold(), par_rows_threshold());

        let applied = apply_overrides([
            ("PGSE_TUNING_PAR_ELEMS", "123"),
            ("PGSE_TUNING_PAR_ROWS", " 77 "), // whitespace tolerated
            ("PGSE_TUNING_UNKNOWN", "9"),     // unknown key → ignored
        ]);
        assert_eq!(applied, 2);
        assert_eq!(par_elems_threshold(), 123);
        assert_eq!(par_rows_threshold(), 77);

        let applied = apply_overrides([
            ("PGSE_TUNING_PAR_ELEMS", "potato"), // parse error → ignored
            ("PGSE_TUNING_PAR_ROWS", "0"),       // zero → ignored
        ]);
        assert_eq!(applied, 0);
        assert_eq!(par_elems_threshold(), 123, "bad value must keep current");
        assert_eq!(par_rows_threshold(), 77, "zero must keep current");

        set_par_elems_threshold(save.0);
        set_par_rows_threshold(save.1);
    }
}
