//! Deterministic JSON emission for machine-readable campaign records.
//!
//! The `BENCH_*.json` artifacts must be byte-stable: CI diffs them across
//! worker counts and against the committed goldens in `ci/pinned/`. These emitters
//! therefore avoid anything nondeterministic — no hash-map iteration, no
//! timestamps — and format floats with Rust's shortest-round-trip `{:?}`,
//! which is a pure function of the `f64` bits.

use colocate::harness::ChaosStats;
use colocate::invariants::{preset_label, SearchReport};
use colocate::service::OpenLoopStats;
use std::fmt::Write as _;

/// Shortest-round-trip JSON number for `v` (infinite/NaN become `null`).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a chaos sweep (one [`ChaosStats`] per intensity) as a JSON
/// document — the `BENCH_fig19_chaos.json` record.
#[must_use]
pub fn chaos_stats_json(all: &[ChaosStats]) -> String {
    let mut out = String::from("{\"campaigns\":[");
    for (i, stats) in all.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"scenario\":{},\"intensity\":{},\"mixes\":{},\"per_entry\":[",
            json_str(&stats.scenario.name()),
            json_num(stats.intensity),
            stats.mixes,
        );
        for (j, e) in stats.per_entry.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let f = &e.faults;
            let _ = write!(
                out,
                "{{\"label\":{},\"stp_mean\":{},\"stp_min\":{},\"stp_max\":{},\
                 \"antt_mean\":{},\"antt_min\":{},\"antt_max\":{},\"oom_kills_mean\":{},\
                 \"faults\":{{\"node_crashes\":{},\"executor_crashes\":{},\
                 \"monitor_dropouts\":{},\"prediction_noise\":{},\"slices_requeued_gb\":{},\
                 \"retries\":{},\"quarantines\":{},\"isolated_fallbacks\":{}}}}}",
                json_str(e.label),
                json_num(e.stp_mean),
                json_num(e.stp_min_max.0),
                json_num(e.stp_min_max.1),
                json_num(e.antt_mean),
                json_num(e.antt_min_max.0),
                json_num(e.antt_min_max.1),
                json_num(e.oom_kills_mean),
                f.node_crashes,
                f.executor_crashes,
                f.monitor_dropouts,
                f.prediction_noise,
                json_num(f.slices_requeued_gb),
                f.retries,
                f.quarantines,
                f.isolated_fallbacks,
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Renders an open-loop sweep (one [`OpenLoopStats`] per load factor) as
/// a JSON document — the `BENCH_openloop.json` record.
#[must_use]
pub fn openloop_stats_json(all: &[(f64, OpenLoopStats)]) -> String {
    let mut out = String::from("{\"campaigns\":[");
    for (i, (load, stats)) in all.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"load_factor\":{},\"replications\":{},\"per_entry\":[",
            json_num(*load),
            stats.replications,
        );
        for (j, e) in stats.per_entry.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let f = &e.faults;
            let _ = write!(
                out,
                "{{\"label\":{},\"arrivals\":{},\"finished\":{},\"shed\":{},\
                 \"slowdown_p50\":{},\"slowdown_p95\":{},\"slowdown_p99\":{},\
                 \"slowdown_mean\":{},\"oom_kills\":{},\"deferrals\":{},\
                 \"abstain_placements\":{},\"breaker_trips\":{},\
                 \"max_queue_depth\":{},\"mean_queue_depth\":{},\
                 \"faults\":{{\"node_crashes\":{},\"executor_crashes\":{},\
                 \"monitor_dropouts\":{},\"prediction_noise\":{},\"slices_requeued_gb\":{},\
                 \"retries\":{},\"quarantines\":{},\"isolated_fallbacks\":{},\
                 \"spot_preemptions\":{},\"drains\":{}}}}}",
                json_str(e.label),
                e.arrivals,
                e.finished,
                e.shed,
                json_num(e.slowdown_p50),
                json_num(e.slowdown_p95),
                json_num(e.slowdown_p99),
                json_num(e.slowdown_mean),
                e.oom_kills,
                e.deferrals,
                e.abstain_placements,
                e.breaker_trips,
                e.max_queue_depth,
                json_num(e.mean_queue_depth),
                f.node_crashes,
                f.executor_crashes,
                f.monitor_dropouts,
                f.prediction_noise,
                json_num(f.slices_requeued_gb),
                f.retries,
                f.quarantines,
                f.isolated_fallbacks,
                f.spot_preemptions,
                f.drains,
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Renders a chaos-search campaign as a JSON document — the
/// `BENCH_chaossearch.json` record, a pure function of the search inputs.
/// Every violation entry embeds its delta-debugged minimal reproducer
/// verbatim ([`Episode::to_json`](simkit::chaoskit::Episode::to_json)), so
/// a record is also a replay kit.
#[must_use]
pub fn chaossearch_json(report: &SearchReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"episodes\":{},\"base_seed\":{},\"violations_found\":{},\"violations\":[",
        report.episodes,
        report.base_seed,
        report.violations.len(),
    );
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"episode_index\":{},\"seed\":{},\"preset\":{},\"invariant\":{},\"detail\":{},\
             \"original_faults\":{},\"original_arrivals\":{},\"shrunk_faults\":{},\
             \"shrunk_arrivals\":{},\"shrink_checks\":{},\"shrink_exhausted\":{},\
             \"reproducer\":{}}}",
            v.index,
            v.original.seed,
            json_str(preset_label(v.original.preset)),
            json_str(&v.violation.invariant),
            json_str(&v.violation.detail),
            v.original.faults.len(),
            v.original.arrivals.len(),
            v.shrink.episode.faults.len(),
            v.shrink.episode.arrivals.len(),
            v.shrink.checks,
            v.shrink.exhausted,
            v.shrink.episode.to_json(),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_shortest_round_trip() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("tab\tdone"), "\"tab\\tdone\"");
    }

    #[test]
    fn chaossearch_record_is_stable() {
        let report = SearchReport {
            episodes: 8,
            base_seed: 42,
            violations: Vec::new(),
        };
        assert_eq!(
            chaossearch_json(&report),
            "{\"episodes\":8,\"base_seed\":42,\"violations_found\":0,\"violations\":[]}\n"
        );
    }
}
