//! The metric catalogue and the result line every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_tx_per_cpu_s", "tx/s"),
    ("modeled_tx_per_s", "tx/s"),
    ("lat_p50_ns", "ns"),
    ("lat_p99_ns", "ns"),
];

/// Per-layer metrics: printed by every traced run, on every workload. A
/// layer the workload does not drive (or that its public interface does
/// not expose on that workload) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mem.heap_new_s", "s"),
    ("rbtree.populate_s", "s"),
    ("rbtree.get_host_ns", "ns"),
    ("rbtree.put_host_ns", "ns"),
    ("rbtree.remove_host_ns", "ns"),
    ("htm.begins", "1/tx"),
    ("htm.commit_ratio", "ratio"),
    ("htm.capacity_aborts", "1/tx"),
    ("htm.conflict_aborts", "1/tx"),
    ("htm.other_aborts", "1/tx"),
    ("tm.fast_commits", "1/tx"),
    ("tm.slow_commits", "1/tx"),
    ("tm.serial_commits", "1/tx"),
    ("tm.slow_share", "ratio"),
    ("tm.prefix_success", "ratio"),
    ("tm.postfix_success", "ratio"),
    ("tm.restarts_per_slow", "ratio"),
    ("tm.cycles_per_commit", "cycles"),
    ("tm.fast_tx_cycles_p50", "cycles"),
    ("tm.slow_tx_cycles_p50", "cycles"),
    ("tm.execute_host_ns_p50", "ns"),
    ("sched.steps", "count"),
    ("sched.decisions", "count"),
    ("sched.steps_per_tx", "ratio"),
    ("sched.host_ns_per_step", "ns"),
    ("kv.ready_s", "s"),
    ("kv.replay_s", "s"),
    ("kv.get_p50_ns", "ns"),
    ("kv.get_p99_ns", "ns"),
    ("kv.get_count", "count"),
    ("kv.transfer_p50_ns", "ns"),
    ("kv.transfer_p99_ns", "ns"),
    ("kv.transfer_count", "count"),
    ("kv.range_p50_ns", "ns"),
    ("kv.range_p99_ns", "ns"),
    ("kv.range_count", "count"),
    ("kv.stolen", "count"),
    ("kv.aborts_per_request", "ratio"),
    ("batch.gen_s", "s"),
    ("batch.executions_per_tx", "ratio"),
    ("batch.aborts_per_tx", "ratio"),
    ("batch.blocked_per_tx", "ratio"),
    ("batch.validations_per_tx", "ratio"),
    ("batch.max_incarnation", "count"),
    ("batch.commit_share", "ratio"),
    ("batch.parallel_efficiency", "ratio"),
    ("batch.speedup_vs_seq", "ratio"),
    ("batch.block_host_ms_p50", "ms"),
    ("lat.samples", "count"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name`, which must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Keeps only the metrics of `catalogue`, filling the ones the
    /// workload did not set with 0 (layer idle on this workload).
    pub fn restrict(self, catalogue: &[(&'static str, &str)]) -> Metrics {
        let values = catalogue
            .iter()
            .map(|&(name, _)| (name, self.get(name).unwrap_or(0.0)))
            .collect();
        Metrics { values }
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every checked output matched its independent model.
    pub correct: bool,
    /// Operations (transactions, requests) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
}

impl Outcome {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .values
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("catalogued");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host CPU seconds (user + system) this process has used so far, all
/// threads included, exited ones too (`/proc/self/stat`, at the kernel's
/// 100 Hz tick); 0 where the kernel does not report it.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_listed_in_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m.restrict(END_TO_END),
        };
        let json = out.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"lat_p99_ns\": {\"value\": 0.0, \"unit\": \"ns\"}"));
        assert!(peak_rss_mb() > 0.0);
        let start = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() < start + 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= start + 0.05);
    }
}
