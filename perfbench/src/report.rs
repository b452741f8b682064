//! What one workload run found, and the result line the benchmark prints.

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, in the order `BENCHMARK.json`
/// lists them. Every workload reports every one, measured untraced.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("commit_p50_ms", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in the order `BENCHMARK.json`
/// lists them. Every traced run prints every one; a layer function a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    // The pad loop (rounds, charting).
    ("slimpad.commit.calls", "count"),
    ("slimpad.commit.busy_ms", "ms"),
    ("slimpad.commit.p50_ms", "ms"),
    ("slimpad.commit.mark_p50_ms", "ms"),
    ("slimpad.commit.clean", "count"),
    ("slimpad.commit.committed", "count"),
    ("slimpad.commit.full_snapshot", "count"),
    ("slimpad.compact.calls", "count"),
    ("slimpad.compact.busy_ms", "ms"),
    ("trim.wal.bytes_appended", "B"),
    ("trim.wal.bytes_per_commit", "B"),
    ("trim.wal.bytes_per_op", "B/op"),
    ("marks.create_mark_at.busy_ms", "ms"),
    ("slimpad.place_mark.busy_ms", "ms"),
    ("slimstore.find_scraps.calls", "count"),
    ("slimstore.find_scraps.busy_ms", "ms"),
    ("slimstore.find_scraps.hits_per_call", "count"),
    ("slimstore.find_scraps.p50_us", "us"),
    ("slimstore.add_annotation.busy_ms", "ms"),
    ("slimstore.link_scraps.busy_ms", "ms"),
    ("slimstore.delete_scrap.busy_ms", "ms"),
    ("slimpad.extract.calls", "count"),
    ("slimpad.extract.busy_ms", "ms"),
    ("slimpad.extract.degraded", "count"),
    ("slimpad.extract.p50_us", "us"),
    // The pad service (serve).
    ("slimserve.submit.CreateMark.p50_us", "us"),
    ("slimserve.submit.Extract.p50_us", "us"),
    ("slimserve.submit.Resolve.p50_us", "us"),
    ("slimserve.submit.Annotate.p50_us", "us"),
    ("slimserve.submit.Link.p50_us", "us"),
    ("slimserve.submit.Undo.p50_us", "us"),
    ("slimserve.submit.Inspect.p50_us", "us"),
    ("slimserve.acked", "count"),
    ("slimserve.commits", "count"),
    ("slimserve.compactions", "count"),
    ("slimserve.shed", "count"),
    ("slimserve.timed_out", "count"),
    ("slimserve.engine_refusals", "count"),
    ("slimserve.unaccounted", "count"),
    ("slimserve.ops_per_commit", "ratio"),
    // The restart breakdown of the pad each traced run leaves behind.
    ("slimio.sweep_stale_temp.ms", "ms"),
    ("slimio.load_sealed.ms", "ms"),
    ("xmlkit.parse.ms", "ms"),
    ("xmlkit.text.ms", "ms"),
    ("slimstore.load_xml.ms", "ms"),
    ("marks.load_xml.snapshot_ms", "ms"),
    ("xmlkit.drop.ms", "ms"),
    ("trim.wal.attach.ms", "ms"),
    ("marks.load_xml.sidecar_ms", "ms"),
    ("marks.to_xml_ms", "ms"),
    ("slimio.crc32.ms", "ms"),
    ("slimio.load_sealed.bytes", "B"),
    ("xmlkit.parse.mb_per_s", "MB/s"),
    ("trim.wal.attach.frames_replayed", "count"),
    ("trim.wal.attach.ops_replayed", "count"),
    ("restart.parts_ms", "ms"),
    ("restart.coverage", "ratio"),
    ("marks.xml_bytes", "B"),
    // Self time per layer in the timed loop, and the trace's own health.
    ("self_ms.gesture", "ms"),
    ("self_ms.slimpad", "ms"),
    ("self_ms.slimstore", "ms"),
    ("self_ms.marks", "ms"),
    ("self_ms.slimserve", "ms"),
    ("trace.verb_coverage", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

#[derive(Debug, Default)]
pub struct Outcome {
    /// Named correctness verdicts; the run is correct when all hold.
    pub verdicts: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric values by name (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced run).
    pub layer: BTreeMap<String, f64>,
    /// Counts that must repeat exactly for one seed (determinism).
    pub exact: BTreeMap<&'static str, u64>,
    /// Human-readable lines printed before the result line.
    pub info: Vec<String>,
}

impl Outcome {
    pub fn verdict(&mut self, name: impl Into<String>, ok: bool) {
        self.verdicts.push((name.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.verdicts.iter().all(|(_, ok)| *ok)
    }

    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Record a per-layer metric; its name must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    /// The result line: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run).
    pub fn result_json(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                metrics.push(metric(
                    name,
                    self.layer.get(name).copied().unwrap_or(0.0),
                    unit,
                ));
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self.e2e.get(name).copied().unwrap_or(f64::NAN);
                metrics.push(metric(name, value, unit));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity: a missing value is a null, which the
    // reader rejects, rather than a made-up number.
    let v = if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("list present");
        let end = start + doc[start..].find(']').expect("list closed");
        doc[start..end]
            .lines()
            .filter_map(|l| {
                let field = |f: &str| {
                    let at = l.find(&format!("\"{f}\": \""))? + f.len() + 5;
                    Some(l[at..at + l[at..].find('"')?].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }
}
