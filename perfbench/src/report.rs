//! Metric names, units and what each per-layer metric should move, plus
//! the output lines. `BENCHMARK.json` at the repository root lists the
//! same names; a test keeps the two in step.

use serde::Value;

/// A metric the benchmark prints.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Which end-to-end metric on which workload it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, moves }
}

const HI: &str = "higher";
const LO: &str = "lower";

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("gflops", "GFLOP/s", HI, "classic flops of succeeded operations over loop time"),
    m("ops_per_s", "1/s", HI, "succeeded operations over loop time"),
    m("latency_p50_ms", "ms", LO, "median operation latency"),
    m("latency_tail_ms", "ms", LO, "highest percentile with >= 10 samples beyond it"),
    m("peak_rss_mib", "MiB", LO, "VmHWM of the process running the library"),
    m("setup_s", "s", LO, "median of fifteen set-ups spread over the run"),
];

const INCORE: &str = "gflops on incore";
const OOC: &str = "latency_tail_ms on serve_mix (its ooc jobs)";
const SERVE: &str = "latency_p50_ms and ops_per_s on serve_mix";
const SIM: &str = "ops_per_s on sim_figures";

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("kernel.gflops_f64", "GFLOP/s", HI, INCORE),
    m("kernel.gflops_f32", "GFLOP/s", HI, "gflops on incore (f32 share)"),
    m("kernel.simd_speedup", "ratio", HI, "gflops on incore"),
    m("pack.gbs", "GB/s", HI, "gflops on incore (ragged share); latency_tail_ms on serve_mix"),
    m("pack.bytes_per_flop", "B/flop", LO, "gflops on incore (ragged share)"),
    m("macro.gflops_1t", "GFLOP/s", HI, INCORE),
    m("macro.over_kernel", "ratio", HI, INCORE),
    m("sched.gflops_nt", "GFLOP/s", HI, INCORE),
    m("sched.parallel_eff", "ratio", HI, INCORE),
    m("sched.parallel_eff_n512", "ratio", HI, INCORE),
    m("sched.gflops_rowsplit", "GFLOP/s", HI, "reference: the n1024 product as nproc row tasks"),
    m("sched.tasks.f64_n512", "count", HI, INCORE),
    m("sched.tasks.f64_n1024", "count", HI, INCORE),
    m("sched.tasks.f64_ragged", "count", HI, INCORE),
    m("sched.tasks.f32_n1024", "count", HI, INCORE),
    m("sched.call_floor_us", "us", LO, "latency_p50_ms on serve_mix (tiny jobs)"),
    m("trace.overhead_frac", "ratio", LO, INCORE),
    m("strassen.gflops_eff", "GFLOP/s", HI, "latency_tail_ms on serve_mix"),
    m("strassen.morton_share", "ratio", LO, "latency_tail_ms on serve_mix"),
    m("strassen.workspace_mib", "MiB", LO, "peak_rss_mib on serve_mix"),
    m("algo.choice_regret", "ratio", LO, "gflops on incore only if the choice flips"),
    m("lu.gflops", "GFLOP/s", HI, INCORE),
    m("lu.over_gemm", "ratio", HI, INCORE),
    m("ooc.compute_frac", "ratio", HI, OOC),
    m("ooc.stall_s", "s", LO, OOC),
    m("ooc.read_mibps", "MiB/s", HI, OOC),
    m("ooc.bytes_read", "B", LO, OOC),
    m("ooc.read_over_operands", "ratio", LO, OOC),
    m("ooc.accumulate_calls", "count", LO, OOC),
    m("ooc.peak_over_budget", "ratio", LO, "peak_rss_mib on serve_mix"),
    m("ooc.over_incore", "ratio", HI, OOC),
    m("serve.rtt_ms", "ms", LO, SERVE),
    m("serve.exec_ms.tiny", "ms", LO, SERVE),
    m("serve.exec_ms.order8", "ms", LO, SERVE),
    m("serve.exec_ms.strassen", "ms", LO, "latency_tail_ms on serve_mix"),
    m("serve.exec_ms.ooc", "ms", LO, "latency_tail_ms on serve_mix"),
    m("serve.wait_ms", "ms", LO, SERVE),
    m("serve.exec_over_direct", "ratio", LO, SERVE),
    m("serve.rss_kib_per_job", "KiB", LO, "peak_rss_mib on serve_mix"),
    m("serve.ram_peak_frac", "ratio", LO, "ops_per_s on serve_mix (admission headroom)"),
    m("sim.block_fmas_per_s_lru", "1/s", HI, SIM),
    m("sim.block_fmas_per_s_ideal", "1/s", HI, SIM),
    m("sim.ms", "count", LO, "none: exact miss count, a check"),
    m("sim.md", "count", LO, "none: exact miss count, a check"),
    m("harness.parallel_eff", "ratio", HI, SIM),
    m("waterfall.sched_over_macro", "ratio", HI, INCORE),
    m("waterfall.served_gflops", "GFLOP/s", HI, SERVE),
    m("waterfall.served_over_sched", "ratio", HI, SERVE),
    m("waterfall.ooc_gflops", "GFLOP/s", HI, OOC),
    m("waterfall.ooc_over_served", "ratio", HI, OOC),
    m(
        "waterfall.incore_over_measured",
        "ratio",
        HI,
        "none: kernel x ratios to sched over the n1024 rate measured apart; near 1",
    ),
    m("bench.trace_overhead_frac", "ratio", LO, "none: the benchmark's own span cost"),
];

/// Look a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// A JSON object from string keys.
pub fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `{"value": v, "unit": u}` for each metric, in `defs` order.
pub fn metrics_object(defs: &[MetricDef], values: &[(&'static str, f64)]) -> Result<Value, String> {
    let mut out = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        out.push((
            d.name,
            obj(vec![("value", Value::Float(v)), ("unit", Value::Str(d.unit.to_string()))]),
        ));
    }
    Ok(obj(out))
}

/// The contract line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted.max(1))),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("result line serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "bad unit {}", d.unit);
            assert!(d.better == HI || d.better == LO);
            assert!(!d.moves.is_empty());
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = v.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}: count");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name), "{key}");
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit), "{}", d.name);
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = metrics_object(&END_TO_END[..1], &[("gflops", 1.5)]).unwrap();
        let line = result_line(true, 3, 0, metrics);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(metrics_object(END_TO_END, &[("gflops", 1.0)]).is_err(), "missing metrics");
    }
}
