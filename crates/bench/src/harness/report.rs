//! The canonical `BenchReport` JSON schema — one shape for every perf
//! artifact the repo produces, so reports from different commits and hosts
//! can be compared mechanically.
//!
//! Top level:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "host": {"os": "...", "arch": "...", "cpus": 8},
//!   "commit": "abc123... | unknown",
//!   "config": {"mode": "quick|full|smoke", "reps": 5, "warmup": 1, "seed": 7},
//!   "scenarios": [
//!     {
//!       "name": "solve_step",
//!       "params": {"n": 12000, "distribution": "plummer", "s": 96, "gpus": 4},
//!       "metrics": [
//!         {"name": "wall_s", "unit": "s", "kind": "wall", "direction": "lower",
//!          "samples": [...], "median": .., "mad": .., "ci_lo": .., "ci_hi": ..}
//!       ],
//!       "snapshot": { ...structural introspection, see snapshot.rs... }
//!     }
//!   ]
//! }
//! ```
//!
//! `kind` tells the comparator how much noise to expect: `"wall"` metrics
//! are wall-clock measurements with host-dependent jitter, `"virtual"`
//! metrics come out of the deterministic simulators (identical input ⇒
//! identical value, on any host), so a virtual change is always a code or
//! structure change, never noise.

use super::stats::MetricStats;
use telemetry::json::{obj, Json};

/// Bumped whenever the report shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// How a metric was measured — drives the comparator's noise floor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Wall-clock time on the running host; jittery.
    Wall,
    /// Output of the deterministic virtual-node simulation; noise-free.
    Virtual,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Wall => "wall",
            MetricKind::Virtual => "virtual",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "wall" => Some(MetricKind::Wall),
            "virtual" => Some(MetricKind::Virtual),
            _ => None,
        }
    }
}

/// Which way is better for this metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Timings, imbalance: smaller is better.
    Lower,
    /// Speedups, efficiency: larger is better.
    Higher,
}

impl Direction {
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            _ => None,
        }
    }
}

/// One measured quantity of a scenario with its raw samples and robust
/// summary.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub kind: MetricKind,
    pub direction: Direction,
    /// Whether the comparator may fail a build on this metric. Derived or
    /// near-zero quantities (overhead fractions) are recorded for humans
    /// but never gate — their relative deltas are numerically meaningless.
    pub gate: bool,
    pub samples: Vec<f64>,
    pub stats: MetricStats,
}

impl Metric {
    /// A wall-clock metric summarized from its samples.
    pub fn wall(name: &str, unit: &str, samples: Vec<f64>, seed: u64) -> Self {
        let stats = super::stats::summarize(&samples, seed);
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            kind: MetricKind::Wall,
            direction: Direction::Lower,
            gate: true,
            samples,
            stats,
        }
    }

    /// A deterministic simulator output: a single sample with a point CI.
    pub fn virtual_point(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            kind: MetricKind::Virtual,
            direction: Direction::Lower,
            gate: true,
            samples: vec![value],
            stats: MetricStats {
                median: value,
                mad: 0.0,
                ci_lo: value,
                ci_hi: value,
            },
        }
    }

    /// Flip the preferred direction (for speedups, efficiencies).
    pub fn higher_is_better(mut self) -> Self {
        self.direction = Direction::Higher;
        self
    }

    /// Record for humans, never fail a build on it.
    pub fn informational(mut self) -> Self {
        self.gate = false;
        self
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("kind", Json::Str(self.kind.as_str().to_string())),
            ("direction", Json::Str(self.direction.as_str().to_string())),
            ("gate", Json::Bool(self.gate)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&s| Json::F64(s)).collect()),
            ),
            ("median", Json::F64(self.stats.median)),
            ("mad", Json::F64(self.stats.mad)),
            ("ci_lo", Json::F64(self.stats.ci_lo)),
            ("ci_hi", Json::F64(self.stats.ci_hi)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("metric missing string field \"{k}\""))
        };
        let num_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric missing number field \"{k}\""))
        };
        let kind_s = str_field("kind")?;
        let dir_s = str_field("direction")?;
        Ok(Metric {
            name: str_field("name")?,
            unit: str_field("unit")?,
            kind: MetricKind::parse(&kind_s)
                .ok_or_else(|| format!("unknown metric kind \"{kind_s}\""))?,
            direction: Direction::parse(&dir_s)
                .ok_or_else(|| format!("unknown metric direction \"{dir_s}\""))?,
            gate: v.get("gate").and_then(Json::as_bool).unwrap_or(true),
            samples: v
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or("metric missing \"samples\"")?
                .iter()
                .map(|s| s.as_f64().ok_or("non-numeric sample"))
                .collect::<Result<_, _>>()?,
            stats: MetricStats {
                median: num_field("median")?,
                mad: num_field("mad")?,
                ci_lo: num_field("ci_lo")?,
                ci_hi: num_field("ci_hi")?,
            },
        })
    }
}

/// One benchmark scenario: its identifying parameters, measured metrics,
/// and the structural introspection snapshot taken during the run.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: String,
    /// Identifying parameters (N, distribution, S, gpus, …). Two scenario
    /// results are comparable only when these match exactly.
    pub params: Json,
    pub metrics: Vec<Metric>,
    /// Structural introspection (tree shape, plan lists, GPU shares, cost
    /// coefficients, allocator table) — see [`super::snapshot`].
    pub snapshot: Json,
}

impl Scenario {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("params", self.params.clone()),
            (
                "metrics",
                Json::Arr(self.metrics.iter().map(Metric::to_json).collect()),
            ),
            ("snapshot", self.snapshot.clone()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Scenario {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("scenario missing \"name\"")?
                .to_string(),
            params: v.get("params").cloned().unwrap_or(Json::Obj(Vec::new())),
            metrics: v
                .get("metrics")
                .and_then(Json::as_arr)
                .ok_or("scenario missing \"metrics\"")?
                .iter()
                .map(Metric::from_json)
                .collect::<Result<_, _>>()?,
            snapshot: v.get("snapshot").cloned().unwrap_or(Json::Obj(Vec::new())),
        })
    }
}

/// The whole report: provenance, run configuration, scenarios. It is
/// written and read at [`SCHEMA_VERSION`] only.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// `{"os", "arch", "cpus"}` of the measuring host.
    pub host: Json,
    /// Git commit the measured binary was built from, or "unknown".
    pub commit: String,
    /// Suite configuration echo: `{"mode", "reps", "warmup", "seed"}`.
    pub config: Json,
    pub scenarios: Vec<Scenario>,
}

impl BenchReport {
    pub fn scenario(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Fingerprint of the current host.
    pub fn current_host() -> Json {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        obj(vec![
            ("os", Json::Str(std::env::consts::OS.to_string())),
            ("arch", Json::Str(std::env::consts::ARCH.to_string())),
            ("cpus", Json::F64(cpus as f64)),
        ])
    }

    /// HEAD commit read straight from `.git` (no subprocess): follows one
    /// level of `ref:` indirection, returns "unknown" outside a checkout.
    pub fn current_commit() -> String {
        let mut dir = std::env::current_dir().ok();
        while let Some(d) = dir {
            if d.join(".git").exists() {
                return commit_from_repo_root(&d).unwrap_or_else(|| "unknown".to_string());
            }
            dir = d.parent().map(|p| p.to_path_buf());
        }
        "unknown".to_string()
    }

    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("schema_version", Json::F64(SCHEMA_VERSION as f64)),
            ("host", self.host.clone()),
            ("commit", Json::Str(self.commit.clone())),
            ("config", self.config.clone()),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(Scenario::to_json).collect()),
            ),
        ])
    }

    /// Serialize; single line plus trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_value().to_json();
        s.push('\n');
        s
    }

    /// Parse a report. Unknown fields are ignored everywhere; a
    /// `schema_version` other than [`SCHEMA_VERSION`] is refused, as a
    /// checkpoint's is.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("report missing \"schema_version\"")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "report schema_version {version} unsupported (this build reads {SCHEMA_VERSION})"
            ));
        }
        Ok(BenchReport {
            host: v.get("host").cloned().unwrap_or(Json::Obj(Vec::new())),
            commit: v
                .get("commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            config: v.get("config").cloned().unwrap_or(Json::Obj(Vec::new())),
            scenarios: v
                .get("scenarios")
                .and_then(Json::as_arr)
                .ok_or("report missing \"scenarios\"")?
                .iter()
                .map(Scenario::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Resolve HEAD inside `root/.git`: a detached sha directly, a loose ref
/// file, or the packed-refs fallback. Packed-refs lines are matched
/// strictly — `"<sha> <full ref name>"` with a single separating space —
/// and peeled `^<sha>` annotations plus `#` headers are skipped, so a ref
/// whose name merely *ends with* the target (e.g. `refs/heads/do-main` vs
/// `main`) or a tag's peeled object can never be reported as HEAD.
fn commit_from_repo_root(root: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(root.join(".git").join(r)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
    for line in packed.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') || line.starts_with('^') {
            continue;
        }
        if let Some((sha, name)) = line.split_once(' ') {
            if name == r && !sha.is_empty() && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Some(sha.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        BenchReport {
            host: BenchReport::current_host(),
            commit: "deadbeef".to_string(),
            config: obj(vec![("mode", Json::Str("smoke".into()))]),
            scenarios: vec![Scenario {
                name: "solve_step".to_string(),
                params: obj(vec![("n", Json::F64(1000.0))]),
                metrics: vec![
                    Metric::wall("wall_s", "s", vec![0.5, 0.52, 0.49], 1),
                    Metric::virtual_point("virtual_compute_s", "s", 0.123),
                    Metric::wall("speedup", "x", vec![8.0, 8.1], 2).higher_is_better(),
                ],
                snapshot: obj(vec![("tree", Json::Obj(Vec::new()))]),
            }],
        }
    }

    #[test]
    fn report_round_trips() {
        let r = tiny_report();
        let text = r.to_json();
        assert!(Json::parse(text.trim_end()).is_ok());
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.commit, "deadbeef");
        let s = back.scenario("solve_step").unwrap();
        assert_eq!(s.metrics.len(), 3);
        let m = s.metric("wall_s").unwrap();
        assert_eq!(m.samples, vec![0.5, 0.52, 0.49]);
        assert_eq!(m.stats, r.scenarios[0].metrics[0].stats);
        assert_eq!(m.kind, MetricKind::Wall);
        assert_eq!(s.metric("speedup").unwrap().direction, Direction::Higher);
        assert_eq!(
            s.metric("virtual_compute_s").unwrap().kind,
            MetricKind::Virtual
        );
    }

    #[test]
    fn other_schema_version_is_refused() {
        let text = tiny_report()
            .to_json()
            .replace("\"schema_version\":1", "\"schema_version\":2");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(
            err.contains("schema_version 2") && err.contains("reads 1"),
            "{err}"
        );
    }

    #[test]
    fn round_trips_with_unknown_extra_fields() {
        // A grown v1 report: extra keys at every level must be ignored, and
        // everything this build understands must survive unchanged.
        let text = tiny_report()
            .to_json()
            .replace(
                "{\"schema_version\":1",
                "{\"schema_version\":1,\"flux_capacitance\":[1,2,3]",
            )
            .replace(
                "{\"name\":\"solve_step\"",
                "{\"name\":\"solve_step\",\"annotations\":{\"color\":\"teal\"}",
            )
            .replace("{\"name\":\"wall_s\"", "{\"name\":\"wall_s\",\"p99\":0.53");
        let r = BenchReport::from_json(&text).unwrap();
        assert_eq!(r.commit, "deadbeef");
        let m = r.scenario("solve_step").unwrap().metric("wall_s").unwrap();
        assert_eq!(m.samples, vec![0.5, 0.52, 0.49]);
        // Re-serializing drops the unknown fields but stays parseable.
        let again = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(again.scenarios[0].metrics.len(), 3);
    }

    #[test]
    fn current_commit_resolves_in_this_repo() {
        let c = BenchReport::current_commit();
        // In the repo checkout this is a 40-char sha; elsewhere "unknown".
        assert!(c == "unknown" || c.len() == 40, "commit = {c:?}");
    }

    /// Build a synthetic `.git` layout under a fresh temp dir.
    fn synthetic_git(tag: &str, head: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("afmm-report-git-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join(".git/refs/heads")).unwrap();
        std::fs::write(root.join(".git/HEAD"), head).unwrap();
        for (rel, contents) in files {
            let p = root.join(".git").join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, contents).unwrap();
        }
        root
    }

    const SHA_A: &str = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    const SHA_B: &str = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb";

    #[test]
    fn commit_loose_ref_wins_over_packed() {
        let root = synthetic_git(
            "loose",
            "ref: refs/heads/main\n",
            &[
                ("refs/heads/main", &format!("{SHA_A}\n")),
                ("packed-refs", &format!("{SHA_B} refs/heads/main\n")),
            ],
        );
        assert_eq!(commit_from_repo_root(&root).as_deref(), Some(SHA_A));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn commit_packed_refs_requires_exact_name_and_skips_peeled() {
        // `refs/heads/do-main` ends with "main" and the peeled `^sha` line
        // follows an annotated tag; neither may be reported as HEAD.
        let packed = format!(
            "# pack-refs with: peeled fully-peeled sorted \n\
             {SHA_B} refs/heads/do-main\n\
             {SHA_B} refs/tags/v1.0\n\
             ^{SHA_B}\n\
             {SHA_A} refs/heads/main\n"
        );
        let root = synthetic_git(
            "packed",
            "ref: refs/heads/main\n",
            &[("packed-refs", &packed)],
        );
        assert_eq!(commit_from_repo_root(&root).as_deref(), Some(SHA_A));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn commit_packed_refs_rejects_non_hex_and_missing_ref() {
        let packed = format!(
            "gggggggggggggggggggggggggggggggggggggggg refs/heads/main\n\
             {SHA_A} refs/heads/other\n"
        );
        let root = synthetic_git(
            "miss",
            "ref: refs/heads/main\n",
            &[("packed-refs", &packed)],
        );
        assert_eq!(commit_from_repo_root(&root), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn commit_detached_head_returns_sha() {
        let root = synthetic_git("detached", &format!("{SHA_A}\n"), &[]);
        assert_eq!(commit_from_repo_root(&root).as_deref(), Some(SHA_A));
        let _ = std::fs::remove_dir_all(&root);
    }
}
