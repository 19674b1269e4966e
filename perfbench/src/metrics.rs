//! The benchmark's metric catalogue and its result line.
//!
//! Every workload prints every metric of the catalogue it runs
//! (`END_TO_END` untraced, `PER_LAYER` traced), in catalogue order. A
//! per-layer metric a workload's layers do not have (the cost layer on
//! `serve-file`, the batcher on the train workloads) reads 0.

use smartsage_hostio::EngineStats;
use std::collections::BTreeMap;

/// Load steps of the serving ladder, requests per second.
pub const SERVE_RATES: [u32; 4] = [100, 200, 400, 800];

/// `(name, unit)` of every end-to-end metric. One "op" is a training
/// batch on the train workloads and a request on `serve-file`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "fraction"),
    ("cpu_ms_per_op", "ms"),
    ("host_bytes_per_op", "B"),
    ("lat.p25_ms", "ms"),
];

/// Per-layer metrics other than the per-step serving ones.
const LAYER_FIXED: [(&str, &str); 35] = [
    ("gnn.plan.self_ms", "ms"),
    ("gnn.resolve.self_ms", "ms"),
    ("gnn.sampled_nodes", "count"),
    ("store.topology.ms", "ms"),
    ("store.topology.calls", "count"),
    ("store.topology.pages_read", "count"),
    ("store.topology.hit_rate", "fraction"),
    ("store.topology.read_amplification", "ratio"),
    ("store.topology.host_bytes", "B"),
    ("store.topology.device_bytes", "B"),
    ("store.feature.ms", "ms"),
    ("store.feature.pages_read", "count"),
    ("store.feature.hit_rate", "fraction"),
    ("store.feature.host_bytes", "B"),
    ("store.feature.device_bytes", "B"),
    ("hostio.engine.submits", "count"),
    ("hostio.engine.reads", "count"),
    ("hostio.engine.bytes_per_read", "B"),
    ("hostio.engine.max_inflight", "count"),
    ("hostio.engine.max_queue_depth", "count"),
    ("core.cost.ms", "ms"),
    ("core.cost.steps", "count"),
    ("core.pipeline.unattributed_ms", "ms"),
    ("core.pipeline.batches_per_s", "1/s"),
    ("graph.materialize_ms", "ms"),
    ("store.registry.publish_ms", "ms"),
    ("serve.ladder.max_rps_in_slo", "1/s"),
    ("serve.batcher.rejected", "count"),
    ("serve.api.parse_us", "us"),
    ("serve.store.hit_rate", "fraction"),
    ("serve.topology.hit_rate", "fraction"),
    ("serve.host_bytes_per_req", "B"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.counters_match", "bool"),
];

/// Per-step serving metrics, prefixed `serve.r<rate>.`.
const LAYER_PER_STEP: [(&str, &str); 7] = [
    ("lat.p50_ms", "ms"),
    ("batcher.window_wait_ms", "ms"),
    ("batcher.service_ms", "ms"),
    ("batcher.reqs_per_batch", "count"),
    ("engine.coalesced_frac", "fraction"),
    ("http.overhead_ms", "ms"),
    ("gen.max_late_ms", "ms"),
];

/// Name of a per-step serving metric.
pub fn step_metric(rate: u32, name: &str) -> String {
    format!("serve.r{rate}.{name}")
}

/// `(name, unit)` of every per-layer metric.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for rate in SERVE_RATES {
        out.extend(
            LAYER_PER_STEP
                .iter()
                .map(|&(n, u)| (step_metric(rate, n), u)),
        );
    }
    out
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (batches or requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Sample descriptions by metric name (count, tail percentile).
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a metric value with a description of its sample.
    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name.to_string(), note);
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Renders the human-readable table and the final JSON result line
    /// for `catalogue`. Fails if an end-to-end metric is missing or any
    /// value is not finite.
    pub fn render(
        &self,
        catalogue: &[(String, &'static str)],
        require_all: bool,
    ) -> Result<String, String> {
        let mut table = String::new();
        let mut json = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if require_all => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let note = self.notes.get(name).map_or("", String::as_str);
            table.push_str(&format!("{name:<40} {value:>16.6} {unit:<8} {note}\n"));
            json.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.failed == 0;
        Ok(format!(
            "{table}{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            json.join(",")
        ))
    }
}

/// A finite `f64` as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The end-to-end catalogue in the owned form [`Outcome::render`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Read-engine counter deltas over an interval.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineDelta {
    /// Plans submitted.
    pub submits: u64,
    /// Positioned reads executed.
    pub reads: u64,
    /// Bytes read.
    pub bytes: u64,
    /// High-water mark of concurrent reads (process lifetime).
    pub max_inflight: u64,
    /// High-water mark of the submission queue (process lifetime).
    pub max_queue_depth: u64,
}

impl EngineDelta {
    /// The change from `before` to `after`.
    pub fn between(before: &EngineStats, after: &EngineStats) -> EngineDelta {
        EngineDelta {
            submits: after.batches - before.batches,
            reads: after.jobs - before.jobs,
            bytes: after.bytes_read - before.bytes_read,
            max_inflight: after.max_inflight,
            max_queue_depth: after.max_queue_depth,
        }
    }

    /// Records the engine metrics per op (`ops` batches or requests).
    pub fn record(&self, out: &mut Outcome, ops: f64) {
        out.set("hostio.engine.submits", self.submits as f64 / ops);
        out.set("hostio.engine.reads", self.reads as f64 / ops);
        out.set(
            "hostio.engine.bytes_per_read",
            self.bytes as f64 / self.reads.max(1) as f64,
        );
        out.set("hostio.engine.max_inflight", self.max_inflight as f64);
        out.set("hostio.engine.max_queue_depth", self.max_queue_depth as f64);
    }

    /// Sums the counts of two intervals; keeps the larger high-water marks.
    pub fn add(&mut self, other: &EngineDelta) {
        self.submits += other.submits;
        self.reads += other.reads;
        self.bytes += other.bytes;
        self.max_inflight = self.max_inflight.max(other.max_inflight);
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    /// `(name, unit)` pairs of one catalogue in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = smartsage_core::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let owned = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), owned(end_to_end()));
        assert_eq!(declared("per_layer"), owned(per_layer()));
    }

    #[test]
    fn result_line_is_last_and_lists_every_metric() {
        let mut o = Outcome::default();
        for (name, _) in end_to_end() {
            o.set(&name, 1.25);
        }
        o.count(10, 0);
        let text = o.render(&end_to_end(), true).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(last.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        o.values.remove("setup_s");
        assert!(o.render(&end_to_end(), true).is_err());
        assert!(o.render(&per_layer(), false).is_ok());
    }
}
