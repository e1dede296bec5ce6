//! The benchmark's contract, compiled in: workload names, metric names,
//! units, better directions and regression bounds from the repository's
//! `BENCHMARK.json`, and the committed response digests.

use std::sync::OnceLock;

use crate::json::{self, Json};

/// `BENCHMARK.json` at the repository root.
const SPEC_JSON: &str = include_str!("../../../../../BENCHMARK.json");
/// Response digest per workload for one seed.
const DIGESTS_JSON: &str = include_str!("digests.json");

#[derive(Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

#[derive(Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

impl MetricSpec {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }

    fn parse(m: &Json) -> Result<MetricSpec, String> {
        Ok(MetricSpec {
            name: m.get("name")?.as_str()?.to_string(),
            unit: m.get("unit")?.as_str()?.to_string(),
            better: m.get("better")?.as_str()?.to_string(),
            bound: m.get("bound").ok().map(Json::as_f64).transpose()?,
        })
    }
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            v.get(key)?.as_arr()?.iter().map(MetricSpec::parse).collect()
        };
        Ok(Spec {
            run_seconds: v.get("run_seconds")?.as_u64()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The end-to-end or per-layer spec of metric `name`.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

/// The parsed `BENCHMARK.json`.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(SPEC_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json is invalid: {e}"))
    })
}

/// The committed response digest of `workload` for `seed`, if one is
/// committed for that seed.
pub fn committed_digest(workload: &str, seed: u64) -> Option<u64> {
    let d = json::parse(DIGESTS_JSON).expect("digests.json is valid JSON");
    if d.get("seed").and_then(Json::as_u64) != Ok(seed) {
        return None;
    }
    let hex = d.get("digests").and_then(|d| d.get(workload)).ok()?.as_str().ok()?;
    Some(
        u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("digests are 0x-prefixed hex"),
    )
}

/// Whether `s` is a valid metric or workload name.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn the_spec_names_each_workload_and_valid_metrics() {
        let listed = json::parse(SPEC_JSON).and_then(|v| {
            let names = v.get("workloads")?.as_arr()?.iter().map(|w| w.get("name")?.as_str());
            names.map(|n| n.map(str::to_string)).collect::<Result<Vec<_>, _>>()
        });
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed, Ok(ours));
        let spec = spec();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(
                m.better == "higher" || m.better == "lower",
                "{}: better {:?}",
                m.name,
                m.better
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn every_workload_has_a_committed_digest_for_the_default_seed() {
        for w in Workload::ALL {
            assert!(
                committed_digest(w.name(), crate::workload::DEFAULT_SEED).is_some(),
                "{}",
                w.name()
            );
            assert_eq!(committed_digest(w.name(), crate::workload::DEFAULT_SEED ^ 1), None);
        }
    }
}
