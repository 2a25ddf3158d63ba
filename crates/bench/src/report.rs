//! Experiment execution and JSON report persistence.
//!
//! [`run_experiment`] builds cells, fans them out, and renders them. The
//! resulting [`ExperimentRun`] carries the text output (byte-identical to
//! the pre-framework serial binaries) and the deterministic report body;
//! [`write_report`] stamps on the non-deterministic envelope (wall time,
//! worker count) and writes `<dir>/<name>.json`.

use std::io;
use std::path::{Path, PathBuf};

use silo_sim::SimConfig;
use silo_types::JsonValue;

use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec};
use crate::runner::run_cells;

/// Everything one experiment invocation produced.
pub struct ExperimentRun {
    /// Registry name of the experiment.
    pub name: &'static str,
    /// The rendered text tables, exactly as `evaluate` prints them.
    pub text: String,
    /// The deterministic report body: params, config fingerprint, per-cell
    /// raw stats, and the experiment's derived (normalized) values.
    /// Identical for identical `(spec, params)` regardless of `jobs`.
    pub body: JsonValue,
}

/// Why an experiment run failed: its render step panicked, which the CLI
/// maps to exit 4. A panicking cell propagates instead.
#[derive(Clone, Debug)]
pub enum ExperimentError {
    /// The render step panicked (on a store entry that decodes but lacks
    /// what the render reads, say).
    Render {
        /// The captured panic message.
        message: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Render { message } => write!(f, "render failed: {message}"),
        }
    }
}

/// Builds, runs (across `jobs` workers), and renders one experiment.
pub fn run_experiment(spec: &ExperimentSpec, params: &ExpParams, jobs: usize) -> ExperimentRun {
    let cells = spec.build(params);
    let finished = run_cells(cells, jobs);
    render_finished(spec, params, &finished)
}

/// Renders already-executed cells into an [`ExperimentRun`]. A panic in
/// the experiment's render function propagates; see
/// [`render_finished_checked`].
pub fn render_finished(
    spec: &ExperimentSpec,
    params: &ExpParams,
    finished: &[(CellLabel, CellOutcome)],
) -> ExperimentRun {
    let mut text = String::new();
    let derived = spec.render(params, finished, &mut text);
    ExperimentRun {
        name: spec.name,
        text,
        body: report_body(spec, params, finished, derived),
    }
}

/// [`render_finished`] with the render step guarded: a panic while
/// rendering comes back as [`ExperimentError::Render`] with its message,
/// which names the cell when an outcome accessor raised it.
pub fn render_finished_checked(
    spec: &ExperimentSpec,
    params: &ExpParams,
    finished: &[(CellLabel, CellOutcome)],
) -> Result<ExperimentRun, ExperimentError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        render_finished(spec, params, finished)
    }))
    .map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic>".to_string());
        ExperimentError::Render { message }
    })
}

fn cell_json(label: &CellLabel, outcome: &CellOutcome) -> JsonValue {
    let mut obj = JsonValue::object();
    if !label.scheme.is_empty() {
        obj = obj.field("scheme", label.scheme.as_str());
    }
    if !label.workload.is_empty() {
        obj = obj.field("workload", label.workload.as_str());
    }
    if label.cores > 0 {
        obj = obj.field("cores", label.cores);
    }
    if !label.param.is_empty() {
        obj = obj.field("param", label.param.as_str());
    }
    if !outcome.values.is_empty() {
        obj = obj.field(
            "values",
            JsonValue::Obj(
                outcome
                    .values
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Float(*v)))
                    .collect(),
            ),
        );
    }
    if let Some(stats) = &outcome.stats {
        obj = obj.field("stats", stats.to_json());
    }
    obj.build()
}

fn report_body(
    spec: &ExperimentSpec,
    params: &ExpParams,
    finished: &[(CellLabel, CellOutcome)],
    derived: JsonValue,
) -> JsonValue {
    JsonValue::object()
        .field("experiment", spec.name)
        .field("description", spec.description)
        .field(
            "params",
            JsonValue::object()
                .field("txs", params.txs)
                .field("seed", params.seed)
                .build(),
        )
        .field("config_fingerprint", SimConfig::table_ii(8).fingerprint())
        .field(
            "cells",
            JsonValue::Arr(finished.iter().map(|(l, o)| cell_json(l, o)).collect()),
        )
        .field("derived", derived)
        .build()
}

/// Writes `<dir>/<name>.json`: the deterministic body plus the run
/// envelope (worker count, wall-clock milliseconds). Creates `dir` as
/// needed and returns the report path.
pub fn write_report(
    run: &ExperimentRun,
    dir: &Path,
    jobs: usize,
    wall_ms: f64,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut fields = match &run.body {
        JsonValue::Obj(fields) => fields.clone(),
        other => vec![("body".to_string(), other.clone())],
    };
    fields.push(("jobs".to_string(), JsonValue::Uint(jobs as u64)));
    fields.push(("wall_ms".to_string(), JsonValue::Float(wall_ms)));
    let path = dir.join(format!("{}.json", run.name));
    std::fs::write(&path, format!("{}\n", JsonValue::Obj(fields)))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn runner_determinism_jobs_1_vs_8_byte_identical() {
        // The acceptance-criteria check: same spec + seed must render the
        // same bytes and the same report body at any worker count.
        let spec = registry::find("fig11").expect("fig11 registered");
        let params = ExpParams {
            txs: 60,
            ..ExpParams::defaults(&spec)
        };
        let serial = run_experiment(&spec, &params, 1);
        let parallel = run_experiment(&spec, &params, 8);
        assert_eq!(serial.text, parallel.text);
        assert_eq!(serial.body.to_string(), parallel.body.to_string());
        assert!(!serial.text.is_empty());
    }

    #[test]
    fn report_round_trips_and_carries_raw_stats() {
        let spec = registry::find("study_multi_mc").expect("registered");
        let params = ExpParams {
            txs: 40,
            ..ExpParams::defaults(&spec)
        };
        let run = run_experiment(&spec, &params, 4);
        let dir = std::env::temp_dir().join("silo-report-test");
        let path = write_report(&run, &dir, 4, 12.5).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let v = JsonValue::parse(&text).expect("well-formed JSON");
        assert_eq!(
            v.get("experiment").and_then(JsonValue::as_str),
            Some("study_multi_mc")
        );
        assert_eq!(v.get("jobs").and_then(JsonValue::as_f64), Some(4.0));
        let cells = v.get("cells").and_then(JsonValue::as_array).expect("cells");
        assert!(!cells.is_empty());
        let first = &cells[0];
        assert!(
            first.get("stats").and_then(|s| s.get("pm")).is_some(),
            "cells carry full raw stats"
        );
        assert!(v
            .get("config_fingerprint")
            .and_then(JsonValue::as_str)
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
