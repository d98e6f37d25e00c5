//! Smoke runs of every workload at minimal size, and the agreement of
//! `BENCHMARK.json` with the metrics the binary prints.

use perfbench::{result_json, run, Sizes, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, traced: bool) {
    let o = run(workload, 7, traced, Sizes::smoke());
    assert!(
        o.correct,
        "{} failed checks: {:?}",
        workload.name(),
        o.checks.failures
    );
    assert!(o.attempted > 0);
    assert_eq!(o.failed, 0);
    for d in END_TO_END {
        let v = o
            .end_to_end
            .get(d.name)
            .unwrap_or_else(|| panic!("{} missing", d.name));
        assert!(
            v.is_finite() && v > 0.0,
            "{} = {v} on {}",
            d.name,
            workload.name()
        );
    }
    let line = result_json(
        &o,
        if traced { PER_LAYER } else { END_TO_END },
        if traced { &o.per_layer } else { &o.end_to_end },
    );
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    if traced {
        assert!(!o.spans.is_empty());
        let coverage = o
            .per_layer
            .get("trace.coverage")
            .expect("coverage measured");
        assert!(coverage > 0.9 && coverage <= 1.0, "coverage {coverage}");
    }
}

#[test]
fn stream_clean_smoke() {
    smoke(Workload::StreamClean, false);
    smoke(Workload::StreamClean, true);
}

#[test]
fn stream_faulted_smoke() {
    smoke(Workload::StreamFaulted, true);
}

#[test]
fn n1_sweep_smoke() {
    smoke(Workload::N1Sweep, true);
}

#[test]
fn same_seed_repeats_the_pinned_counts_and_a_new_seed_changes_them() {
    let a = run(Workload::StreamFaulted, 11, true, Sizes::smoke());
    let b = run(Workload::StreamFaulted, 11, true, Sizes::smoke());
    let c = run(Workload::StreamFaulted, 12, true, Sizes::smoke());
    assert!(a.correct && b.correct && c.correct);
    let pinned = |o: &perfbench::Outcome| {
        (
            o.per_layer.get("stream.gn_iterations"),
            o.per_layer.get("stream.suspect_frames"),
            o.per_layer.get("stream.frames_restored"),
            o.end_to_end.get("vm_rmse"),
        )
    };
    assert_eq!(pinned(&a), pinned(&b));
    assert_ne!(pinned(&a), pinned(&c));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| {
                let name = rest[..rest.find('"').unwrap()].to_string();
                let unit_at = rest.find("\"unit\": \"").unwrap() + 9;
                let unit = rest[unit_at..unit_at + rest[unit_at..].find('"').unwrap()].to_string();
                (name, unit)
            })
            .collect()
    };
    let expect = |defs: &[perfbench::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), expect(END_TO_END));
    assert_eq!(section("per_layer"), expect(PER_LAYER));
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\"", w.name())),
            "{} listed",
            w.name()
        );
    }
}
