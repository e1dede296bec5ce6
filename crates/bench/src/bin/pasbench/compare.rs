//! `--compare A.json B.json`: judges full run B against baseline full run
//! A.
//!
//! A full run repeats every workload, so each results file holds several
//! runs of each. Each end-to-end metric's median over its runs is held to
//! its bound from `BENCHMARK.json`. A metric whose spread between runs
//! (interquartile range over the median) is wider than the bound in either
//! file is `unresolved`: the host did not repeat it closely enough to tell
//! a change of that size from noise. Deterministic metrics (simulated
//! latency, failure share, layer counts) must match exactly in every run.
//! Per-layer timings carry no bound and are not judged.

use crate::bench::RunResult;
use crate::json::Json;
use crate::spec::Spec;
use crate::stats::{median, spread};

/// Host and run metadata of a results file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: u64,
    /// Worker threads the runs used (at most `nproc`).
    pub threads: u64,
    pub arch: String,
    pub os: String,
    /// The `pas-kernels` backend the runs selected.
    pub backend: String,
}

/// A results file: one record per run of a workload, several per workload.
#[derive(Debug, Clone)]
pub struct Results {
    pub host: Host,
    pub seed: u64,
    pub runs: Vec<RunResult>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        let h = &self.host;
        Json::obj([
            (
                "host",
                Json::obj([
                    ("nproc", Json::Num(h.nproc as f64)),
                    ("threads", Json::Num(h.threads as f64)),
                    ("arch", Json::str(&h.arch)),
                    ("os", Json::str(&h.os)),
                    ("backend", Json::str(&h.backend)),
                ]),
            ),
            ("seed", Json::Num(self.seed as f64)),
            ("runs", Json::Arr(self.runs.iter().map(RunResult::to_json).collect())),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Results, String> {
        let h = v.get("host")?;
        Ok(Results {
            host: Host {
                nproc: h.get("nproc")?.as_u64()?,
                threads: h.get("threads")?.as_u64()?,
                arch: h.get("arch")?.as_str()?.to_string(),
                os: h.get("os")?.as_str()?.to_string(),
                backend: h.get("backend")?.as_str()?.to_string(),
            },
            seed: v.get("seed")?.as_u64()?,
            runs: v
                .get("runs")?
                .as_arr()?
                .iter()
                .map(RunResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B's values of metric `name` against A's, one value per repeated run,
/// or `None` for a metric that is not judged.
pub fn judge(spec: &Spec, name: &str, exact: bool, a: &[f64], b: &[f64]) -> Option<Verdict> {
    if exact {
        let same = |x: &f64, y: &f64| x == y || (x.is_nan() && y.is_nan());
        let all_same = a.iter().chain(b).all(|v| same(v, &a[0]));
        return Some(if all_same { Verdict::Unchanged } else { Verdict::Regressed });
    }
    let m = spec.end_to_end.iter().find(|m| m.name == name)?;
    let bound = m.bound?;
    if spread(a) > bound || spread(b) > bound {
        return Some(Verdict::Unresolved);
    }
    let change = (median(b) - median(a)) / median(a);
    let worse = if m.higher_is_better() { -change } else { change };
    Some(if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    })
}

/// One judged line of a comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub detail: String,
}

/// Each metric's value in every run of `runs` with `workload` and `trace`.
fn values(runs: &[RunResult], workload: &str, trace: bool, name: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|m| m.name == name))
        .map(|m| m.value)
        .collect()
}

/// Judges every metric of every workload (and trace setting) of `a`
/// against the same in `b`, over the repeated runs each file holds. A
/// metric of `a` missing from `b` regresses.
pub fn compare(spec: &Spec, a: &Results, b: &Results) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut seen: Vec<(&str, bool)> = Vec::new();
    for ra in &a.runs {
        let key = (ra.workload.as_str(), ra.trace);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        for m in &ra.metrics {
            let va = values(&a.runs, key.0, key.1, &m.name);
            let vb = values(&b.runs, key.0, key.1, &m.name);
            let row = |verdict, detail| Row {
                workload: ra.workload.clone(),
                metric: m.name.clone(),
                verdict,
                detail,
            };
            if vb.is_empty() {
                rows.push(row(Verdict::Regressed, "missing from B".to_string()));
                continue;
            }
            if let Some(verdict) = judge(spec, &m.name, m.exact, &va, &vb) {
                let (ma, mb) = (median(&va), median(&vb));
                let change = if ma == mb { 0.0 } else { mb / ma - 1.0 };
                let detail = format!(
                    "{ma} -> {mb} ({:+.1}%; run-to-run spread {:.1}% of {} runs / {:.1}% of {})",
                    change * 100.0,
                    spread(&va) * 100.0,
                    va.len(),
                    spread(&vb) * 100.0,
                    vb.len()
                );
                rows.push(row(verdict, detail));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Metric;

    fn spec() -> &'static Spec {
        crate::spec::spec()
    }

    /// The bound of `name` in `BENCHMARK.json`.
    fn bound(name: &str) -> f64 {
        spec().metric(name).and_then(|m| m.bound).expect("an end-to-end metric")
    }

    /// Three runs that read `v` alike.
    fn steady(v: f64) -> [f64; 3] {
        [v, v, v]
    }

    #[test]
    fn lower_is_better_metrics_are_judged_against_their_bound() {
        let b = bound("req_us_p50");
        let j = |v: f64| judge(spec(), "req_us_p50", false, &steady(100.0), &steady(v));
        assert_eq!(j(100.0), Some(Verdict::Unchanged));
        assert_eq!(j(100.0 * (1.0 + b * 0.9)), Some(Verdict::Unchanged));
        assert_eq!(j(100.0 * (1.0 + b * 1.1)), Some(Verdict::Regressed));
        assert_eq!(j(100.0 * (1.0 - b * 0.9)), Some(Verdict::Unchanged));
        assert_eq!(j(100.0 * (1.0 - b * 1.1)), Some(Verdict::Improved));
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let b = bound("throughput_rps");
        let j = |v: f64| judge(spec(), "throughput_rps", false, &steady(1000.0), &steady(v));
        assert_eq!(j(1000.0 * (1.0 - b * 1.1)), Some(Verdict::Regressed));
        assert_eq!(j(1000.0 * (1.0 + b * 1.1)), Some(Verdict::Improved));
        assert_eq!(j(1000.0 * (1.0 - b * 0.9)), Some(Verdict::Unchanged));
    }

    #[test]
    fn every_end_to_end_bound_is_applied() {
        for m in &spec().end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let worse = if m.higher_is_better() { 1.0 - bound * 1.5 } else { 1.0 + bound * 1.5 };
            let j = |v: f64| judge(spec(), &m.name, false, &steady(10.0), &steady(v));
            assert_eq!(j(10.0 * worse), Some(Verdict::Regressed), "{}", m.name);
            assert_eq!(j(10.0), Some(Verdict::Unchanged), "{}", m.name);
        }
    }

    #[test]
    fn a_run_to_run_spread_wider_than_the_bound_is_unresolved() {
        let b = bound("req_us_p90");
        let noisy = [100.0, 100.0 * (1.0 + b * 1.5), 100.0];
        // Even a large change cannot be told from noise of that width, on
        // either side.
        assert_eq!(
            judge(spec(), "req_us_p90", false, &noisy, &steady(200.0)),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(spec(), "req_us_p90", false, &steady(100.0), &noisy),
            Some(Verdict::Unresolved)
        );
        // Noise within the bound resolves.
        let quiet = [100.0, 100.0 * (1.0 + b * 0.9), 100.0];
        assert_eq!(
            judge(spec(), "req_us_p90", false, &quiet, &steady(100.0)),
            Some(Verdict::Unchanged)
        );
        // A single run has no spread.
        assert_eq!(
            judge(spec(), "req_us_p90", false, &[100.0], &[300.0]),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn deterministic_metrics_must_match_exactly_in_every_run() {
        let j = |a: &[f64], b: &[f64]| judge(spec(), "gateway.sim_p99_ms", true, a, b);
        assert_eq!(j(&steady(31.0), &steady(31.0)), Some(Verdict::Unchanged));
        assert_eq!(j(&steady(31.0), &[31.0, 30.0, 31.0]), Some(Verdict::Regressed));
        assert_eq!(j(&[31.0, 31.0, 32.0], &steady(31.0)), Some(Verdict::Regressed));
        assert_eq!(j(&[f64::NAN], &[f64::NAN]), Some(Verdict::Unchanged));
    }

    #[test]
    fn per_layer_timings_are_not_judged() {
        assert_eq!(judge(spec(), "cache.lookup.ns_p50", false, &[100.0], &[500.0]), None);
    }

    fn results(runs: &[&[(&str, f64, bool)]]) -> Results {
        let run = |metrics: &&[(&str, f64, bool)]| RunResult {
            workload: "hot_zipf".to_string(),
            seed: 1,
            trace: false,
            iterations: 1,
            digest: String::new(),
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
            metrics: metrics
                .iter()
                .map(|&(name, value, exact)| Metric { name: name.to_string(), value, exact })
                .collect(),
        };
        let host = Host {
            nproc: 1,
            threads: 1,
            arch: String::new(),
            os: String::new(),
            backend: String::new(),
        };
        Results { host, seed: 1, runs: runs.iter().map(run).collect() }
    }

    fn verdicts(a: &Results, b: &Results) -> Vec<(String, Verdict)> {
        compare(spec(), a, b).into_iter().map(|r| (r.metric, r.verdict)).collect()
    }

    #[test]
    fn full_runs_are_compared_over_their_repeats() {
        let (p50, sim) = ("req_us_p50", "gateway.sim_p50_ms");
        let a = results(&[
            &[(p50, 1.00, false), (sim, 1.0, true)],
            &[(p50, 1.02, false), (sim, 1.0, true)],
            &[(p50, 0.99, false), (sim, 1.0, true)],
        ]);
        let same = results(&[
            &[(p50, 1.03, false), (sim, 1.0, true)],
            &[(p50, 0.98, false), (sim, 1.0, true)],
            &[(p50, 1.01, false), (sim, 1.0, true)],
        ]);
        let expect = |v1, v2| vec![(p50.to_string(), v1), (sim.to_string(), v2)];
        assert_eq!(verdicts(&a, &same), expect(Verdict::Unchanged, Verdict::Unchanged));
        // One slow repeat among three moves the spread, not the median.
        let noisy = results(&[
            &[(p50, 1.00, false), (sim, 1.0, true)],
            &[(p50, 1.60, false), (sim, 1.0, true)],
            &[(p50, 1.01, false), (sim, 1.0, true)],
        ]);
        assert_eq!(verdicts(&a, &noisy), expect(Verdict::Unresolved, Verdict::Unchanged));
        // A deterministic metric missing from B regresses.
        let missing = results(&[&[(p50, 1.0, false)], &[(p50, 1.0, false)], &[(p50, 1.0, false)]]);
        assert_eq!(verdicts(&a, &missing), expect(Verdict::Unchanged, Verdict::Regressed));
    }
}
