//! The result line the benchmark prints last, and the metric lists it
//! must hold (the manifest's, `BENCHMARK.json` at the checkout root).

use reqisc_service::Json;

/// The end-to-end metrics and their units: every workload reports every
/// one of them from its `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_s", "s"),
    ("warm_p50_us", "us"),
    ("shared_p50_us", "us"),
    ("su4_count", "count"),
    ("su4_depth", "count"),
    ("duration_g", "1/g"),
];

/// The per-layer metrics and their units: every workload reports every
/// one of them from its `--trace 1` run. A layer the workload's traffic
/// never reaches reads 0 (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.library_s", "s"),
    ("pass.template_s", "s"),
    ("pass.lower_s", "s"),
    ("pass.fuse_s", "s"),
    ("pass.compact_s", "s"),
    ("pass.partition_s", "s"),
    ("pass.emit_s", "s"),
    ("program.lookup_s", "s"),
    ("program.hits", "count"),
    ("synth.unitary_s", "s"),
    ("synth.win_s", "s"),
    ("synth.fail_s", "s"),
    ("synth.hit_s", "s"),
    ("synth.searches", "count"),
    ("synth.fails", "count"),
    ("synth.hits", "count"),
    ("synth.win_ratio", "ratio"),
    ("synth.gates_saved", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("replay.matched", "count"),
    ("replay.cold_matched", "count"),
    ("proto.parse_us", "us"),
    ("qasm.parse_us", "us"),
    ("svc.submit_us", "us"),
    ("svc.wait_us", "us"),
    ("resp.metrics_us", "us"),
    ("resp.encode_us", "us"),
    ("cache.probe_us", "us"),
    ("socket.rtt_us", "us"),
    ("socket_rtt_gap_us", "us"),
    ("ring.submission_wait_us", "us"),
    ("ring.completion_wait_us", "us"),
    ("ring.solve_wait_us", "us"),
    ("lookup.hits", "count"),
    ("lookup.misses", "count"),
    ("solve.claimed", "count"),
    ("shared.hits", "count"),
    ("shared.published", "count"),
    ("svc.coalesced", "count"),
    ("synth.pool_misses", "count"),
    ("shared.probe_us", "us"),
    ("shared.stalls", "count"),
    ("setup.attach_s", "s"),
    ("setup.populate_s", "s"),
    ("setup.restart_s", "s"),
    ("solve.compile_ms", "ms"),
    ("solve.publish_us", "us"),
];

/// One run's outcome: operations attempted and failed, and the metrics.
#[derive(Debug)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// A report over `attempted` operations of which `failed` failed.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// Records a metric value with its unit.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Checks the report against `manifest` (one of [`END_TO_END`] and
    /// [`PER_LAYER`]): every name reported is listed there with the same
    /// unit, and no name twice. A missing metric is an error unless
    /// `zero_missing`, which records it as 0 — a layer this workload's
    /// traffic never reached.
    pub fn complete(
        &mut self,
        manifest: &[(&str, &'static str)],
        zero_missing: bool,
    ) -> Result<(), String> {
        for (i, (name, _, unit)) in self.metrics.iter().enumerate() {
            match manifest.iter().find(|(n, _)| n == name) {
                Some((_, u)) if u == unit => {}
                Some((_, u)) => return Err(format!("{name} reported in {unit}, listed in {u}")),
                None => return Err(format!("{name} is not a metric of this run")),
            }
            if self.metrics[..i].iter().any(|(n, _, _)| n == name) {
                return Err(format!("{name} reported twice"));
            }
        }
        for &(name, unit) in manifest {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                if !zero_missing {
                    return Err(format!("{name} was not measured"));
                }
                self.metric(name, 0.0, unit);
            }
        }
        Ok(())
    }

    /// The result line: `correct` holds when nothing failed and every
    /// metric is a finite number.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                // A non-finite value is emitted as 0 so the line stays
                // valid JSON; `correct` is false then.
                let v = if v.is_finite() { *v } else { 0.0 };
                let m = Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(*unit))]);
                (name.clone(), m)
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0 && finite),
            ),
            ("attempted", Json::num_u64(self.attempted)),
            ("failed", Json::num_u64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .emit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_the_result_line() {
        let mut r = Report::new(15, 0);
        r.metric("latency_ms", 1.2034, "ms");
        assert_eq!(
            r.to_json(),
            r#"{"correct":true,"attempted":15,"failed":0,"metrics":{"latency_ms":{"value":1.2034,"unit":"ms"}}}"#
        );
        assert!(Report::new(16, 1)
            .to_json()
            .starts_with(r#"{"correct":false,"attempted":16,"failed":1,"#));
        let mut r = Report::new(1, 0);
        r.metric("p99_us", f64::NAN, "us");
        assert_eq!(
            r.to_json(),
            r#"{"correct":false,"attempted":1,"failed":0,"metrics":{"p99_us":{"value":0,"unit":"us"}}}"#,
            "a missing percentile is not correct, and the line stays JSON"
        );
    }

    #[test]
    fn completes_against_the_manifest() {
        const LIST: &[(&str, &str)] = &[("a_us", "us"), ("b", "count")];
        let mut r = Report::new(1, 0);
        r.metric("a_us", 2.5, "us");
        assert_eq!(
            r.complete(LIST, false),
            Err("b was not measured".to_string())
        );
        r.complete(LIST, true).unwrap();
        assert!(r.to_json().contains(r#""b":{"value":0,"unit":"count"}"#));

        let mut r = Report::new(1, 0);
        r.metric("a_us", 2.5, "ms");
        assert!(r.complete(LIST, true).is_err(), "wrong unit");
        let mut r = Report::new(1, 0);
        r.metric("c", 1.0, "us");
        assert!(r.complete(LIST, true).is_err(), "unlisted metric");
        let mut r = Report::new(1, 0);
        r.metric("b", 1.0, "count");
        r.metric("b", 2.0, "count");
        assert!(r.complete(LIST, true).is_err(), "reported twice");
    }

    /// The lists match `BENCHMARK.json` name for name and unit for unit.
    #[test]
    fn lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(entries)) = manifest.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
