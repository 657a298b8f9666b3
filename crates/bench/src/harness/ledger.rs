//! The perf ledger: persistent cross-run history with trend gating.
//!
//! A single `afmm-perf compare` answers "did *this* change regress
//! anything?", but a 15% creep spread over ten PRs never trips a 25%
//! pairwise gate. The ledger closes that hole longitudinally: every
//! `afmm-perf run` can [`Ledger::append`] one [`LedgerEntry`] — the gated
//! metric summaries, host fingerprint, commit, and the attribution
//! extracts (cost-model coefficients, prediction-audit stats, heap
//! footprint) — to an append-only JSONL file, keyed into series by
//! `(host_key, mode)` so numbers from different machines or suite
//! configurations never mix.
//!
//! On top of the file sit three consumers:
//!
//! * **history** ([`render_history`]) — per-metric series with robust
//!   median/MAD bands, outliers flagged;
//! * **trend** ([`trend_rows`]) — the offline change-point classifier
//!   ([`telemetry::classify_series`]) labels each gated series Step /
//!   Drift / Spike / Stable; a confirmed step in the *bad* direction on a
//!   gated metric is a regression verdict;
//! * **`compare --against-ledger K`** ([`synthesize_baseline`]) — gate a
//!   fresh report against the rolling median of the last K same-series
//!   entries instead of a single checked-in baseline, so one lucky or
//!   unlucky baseline run cannot skew the gate. With K=1 the synthesized
//!   baseline carries the stored stats verbatim and the comparison is
//!   identical to a plain `compare` against that run's report.
//!
//! Entries only ever append; the reader tolerates unknown fields and
//! newer `schema_version`s with warnings (old binaries must keep reading
//! ledgers grown by newer ones), and skips corrupt lines rather than
//! bricking the whole history.

use super::compare::format_value;
use super::report::{BenchReport, Direction, Metric, Scenario, SCHEMA_VERSION};
use super::stats::{median, MetricStats};
use std::io::Write as _;
use std::path::Path;
use telemetry::json::{obj, Json};

/// Bumped whenever the ledger line shape changes incompatibly.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// Compact series key for a host fingerprint: `"linux-x86_64-16c"`.
pub fn host_key(host: &Json) -> String {
    let os = host.get("os").and_then(Json::as_str).unwrap_or("unknown");
    let arch = host.get("arch").and_then(Json::as_str).unwrap_or("unknown");
    let cpus = host.get("cpus").and_then(Json::as_u64).unwrap_or(0);
    format!("{os}-{arch}-{cpus}c")
}

/// One appended run: provenance, per-scenario metric summaries (stats
/// only — raw samples stay in the full report artifact), and the
/// attribution extracts trend analysis wants next to a moved number.
#[derive(Clone, Debug)]
pub struct LedgerEntry {
    pub schema_version: u64,
    /// Seconds since the Unix epoch when the run was recorded.
    pub unix_s: u64,
    /// Host fingerprint object (`{"os","arch","cpus"}`).
    pub host: Json,
    /// [`host_key`] of `host`, stored so series grouping survives future
    /// fingerprint fields.
    pub host_key: String,
    pub commit: String,
    /// Suite mode (`full` / `quick` / `smoke`); part of the series key.
    pub mode: String,
    /// Scenario metric summaries. `Metric::samples` is empty after a
    /// ledger read — only the robust stats are persisted.
    pub scenarios: Vec<Scenario>,
    /// Cost-model coefficient table from the `solve_step` snapshot.
    pub cost_model: Json,
    /// Prediction-audit stats from the `balancer_convergence` snapshot.
    pub audit: Json,
    /// Heap-footprint summary from the `memory_profile` snapshot.
    pub mem: Json,
}

impl LedgerEntry {
    /// Distill a full report into a ledger entry. `unix_s` comes from the
    /// caller so tests (and replays) stay deterministic.
    pub fn from_report(report: &BenchReport, unix_s: u64) -> Self {
        let extract = |scenario: &str, key: &str| -> Json {
            report
                .scenario(scenario)
                .and_then(|s| s.snapshot.get(key))
                .cloned()
                .unwrap_or(Json::Null)
        };
        LedgerEntry {
            schema_version: LEDGER_SCHEMA_VERSION,
            unix_s,
            host: report.host.clone(),
            host_key: host_key(&report.host),
            commit: report.commit.clone(),
            mode: report
                .config
                .get("mode")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            scenarios: report
                .scenarios
                .iter()
                .map(|s| Scenario {
                    name: s.name.clone(),
                    params: s.params.clone(),
                    metrics: s.metrics.clone(),
                    snapshot: Json::Obj(Vec::new()),
                })
                .collect(),
            cost_model: extract("solve_step", "cost_model"),
            audit: extract("balancer_convergence", "audit"),
            mem: extract("memory_profile", "mem"),
        }
    }

    pub fn scenario(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// The series this entry belongs to.
    pub fn series_key(&self) -> (String, String) {
        (self.host_key.clone(), self.mode.clone())
    }

    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("schema_version", Json::F64(self.schema_version as f64)),
            ("unix_s", Json::F64(self.unix_s as f64)),
            ("host", self.host.clone()),
            ("host_key", Json::Str(self.host_key.clone())),
            ("commit", Json::Str(self.commit.clone())),
            ("mode", Json::Str(self.mode.clone())),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(scenario_to_json).collect()),
            ),
            ("cost_model", self.cost_model.clone()),
            ("audit", self.audit.clone()),
            ("mem", self.mem.clone()),
        ])
    }

    /// One JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Parse one ledger line, tolerating growth exactly like
    /// [`BenchReport::from_json_warn`]: unknown fields are ignored, a
    /// newer `schema_version` downgrades scenario parse errors to
    /// skip-with-warning.
    pub fn from_json_warn(line: &str) -> Result<(Self, Vec<String>), String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("ledger entry missing \"schema_version\"")?;
        let mut warnings = Vec::new();
        let newer = version > LEDGER_SCHEMA_VERSION;
        if newer {
            warnings.push(format!(
                "ledger schema_version {version} is newer than this build's \
                 {LEDGER_SCHEMA_VERSION}; parsing known fields only"
            ));
        }
        let mut scenarios = Vec::new();
        for sv in v
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("ledger entry missing \"scenarios\"")?
        {
            match scenario_from_json(sv) {
                Ok(sc) => scenarios.push(sc),
                Err(e) if newer => warnings.push(format!("skipping scenario: {e}")),
                Err(e) => return Err(e),
            }
        }
        let host = v.get("host").cloned().unwrap_or(Json::Obj(Vec::new()));
        let key = v
            .get("host_key")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| host_key(&host));
        Ok((
            LedgerEntry {
                schema_version: version,
                unix_s: v.get("unix_s").and_then(Json::as_u64).unwrap_or(0),
                host,
                host_key: key,
                commit: v
                    .get("commit")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                mode: v
                    .get("mode")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                scenarios,
                cost_model: v.get("cost_model").cloned().unwrap_or(Json::Null),
                audit: v.get("audit").cloned().unwrap_or(Json::Null),
                // Absent in pre-memory-observatory ledgers: read as Null.
                mem: v.get("mem").cloned().unwrap_or(Json::Null),
            },
            warnings,
        ))
    }
}

/// Ledger scenario encoding: metric stats without the raw samples.
fn scenario_to_json(s: &Scenario) -> Json {
    obj(vec![
        ("name", Json::Str(s.name.clone())),
        ("params", s.params.clone()),
        (
            "metrics",
            Json::Arr(s.metrics.iter().map(|m| m.to_json(false)).collect()),
        ),
    ])
}

fn scenario_from_json(v: &Json) -> Result<Scenario, String> {
    Ok(Scenario {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("ledger scenario missing \"name\"")?
            .to_string(),
        params: v.get("params").cloned().unwrap_or(Json::Obj(Vec::new())),
        metrics: v
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("ledger scenario missing \"metrics\"")?
            .iter()
            .map(|m| Metric::from_json(m, false))
            .collect::<Result<_, _>>()?,
        snapshot: Json::Obj(Vec::new()),
    })
}

/// An in-memory view of the append-only ledger file, in file order
/// (oldest first).
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub entries: Vec<LedgerEntry>,
}

impl Ledger {
    /// Read a ledger file. A missing file is an empty ledger (the first
    /// `record` creates it); an unreadable file is an error; corrupt or
    /// unparseable lines are skipped with a warning each, so one bad
    /// append never bricks the whole history.
    pub fn load(path: &Path) -> Result<(Ledger, Vec<String>), String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Ledger::default(), Vec::new()))
            }
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        let mut entries = Vec::new();
        let mut warnings = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match LedgerEntry::from_json_warn(line) {
                Ok((e, mut w)) => {
                    warnings.append(&mut w);
                    entries.push(e);
                }
                Err(e) => warnings.push(format!("skipping ledger line {}: {e}", i + 1)),
            }
        }
        Ok((Ledger { entries }, warnings))
    }

    /// Append one entry (creating the file and parent directory on first
    /// use). Append-only by construction: existing bytes are never
    /// rewritten.
    pub fn append(path: &Path, entry: &LedgerEntry) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        writeln!(f, "{}", entry.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Entries of one series, oldest first.
    pub fn series(&self, host_key: &str, mode: &str) -> Vec<&LedgerEntry> {
        self.entries
            .iter()
            .filter(|e| e.host_key == host_key && e.mode == mode)
            .collect()
    }

    /// Distinct `(host_key, mode)` series present, in first-seen order.
    pub fn series_keys(&self) -> Vec<(String, String)> {
        let mut keys: Vec<(String, String)> = Vec::new();
        for e in &self.entries {
            let k = e.series_key();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }
}

/// Build a baseline report from the last `k` entries of a series: per
/// metric, the rolling median of the stored medians (and of the MAD / CI
/// bounds). With `k == 1` the stored stats pass through verbatim, making
/// the comparison bit-identical to a plain compare against that run.
/// Returns `None` on an empty series.
pub fn synthesize_baseline(series: &[&LedgerEntry], k: usize) -> Option<BenchReport> {
    let k = k.max(1).min(series.len());
    if k == 0 {
        return None;
    }
    let window = &series[series.len() - k..];
    let last = window.last()?;
    let scenarios = last
        .scenarios
        .iter()
        .map(|sc| {
            let metrics = sc
                .metrics
                .iter()
                .map(|m| {
                    let mut meds = Vec::new();
                    let mut mads = Vec::new();
                    let mut los = Vec::new();
                    let mut his = Vec::new();
                    for e in window.iter() {
                        if let Some(om) = e
                            .scenario(&sc.name)
                            .filter(|s| s.params == sc.params)
                            .and_then(|s| s.metric(&m.name))
                        {
                            meds.push(om.stats.median);
                            mads.push(om.stats.mad);
                            los.push(om.stats.ci_lo);
                            his.push(om.stats.ci_hi);
                        }
                    }
                    Metric {
                        name: m.name.clone(),
                        unit: m.unit.clone(),
                        kind: m.kind,
                        direction: m.direction,
                        gate: m.gate,
                        samples: meds.clone(),
                        stats: MetricStats {
                            median: median(&meds),
                            mad: median(&mads),
                            ci_lo: median(&los),
                            ci_hi: median(&his),
                        },
                    }
                })
                .collect();
            Scenario {
                name: sc.name.clone(),
                params: sc.params.clone(),
                metrics,
                snapshot: Json::Obj(Vec::new()),
            }
        })
        .collect();
    Some(BenchReport {
        schema_version: SCHEMA_VERSION,
        host: last.host.clone(),
        commit: format!("ledger:last{k}"),
        config: obj(vec![("mode", Json::Str(last.mode.clone()))]),
        scenarios,
    })
}

/// `unix_s` → `"YYYY-MM-DD"` (proleptic Gregorian, UTC). Days-to-civil
/// conversion after Hinnant; enough calendar for a history listing.
pub fn utc_date(unix_s: u64) -> String {
    let days = (unix_s / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Per-metric series listing with robust median/MAD bands; values outside
/// the band are flagged `*`.
pub fn render_history(series: &[&LedgerEntry], host_key: &str, mode: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "series {host_key}/{mode} — {} entr{}\n",
        series.len(),
        if series.len() == 1 { "y" } else { "ies" }
    ));
    let Some(last) = series.last() else {
        out.push_str("  (empty)\n");
        return out;
    };
    for sc in &last.scenarios {
        for m in &sc.metrics {
            let rows: Vec<(usize, &LedgerEntry, f64)> = series
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    e.scenario(&sc.name)
                        .filter(|s| s.params == sc.params)
                        .and_then(|s| s.metric(&m.name))
                        .map(|om| (i, *e, om.stats.median))
                })
                .collect();
            if rows.is_empty() {
                continue;
            }
            let values: Vec<f64> = rows.iter().map(|r| r.2).collect();
            let med = median(&values);
            let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
            let band = 3.0 * 1.4826 * median(&deviations);
            out.push_str(&format!(
                "\n{}/{} [{}]{}  median {}  band ±{}\n",
                sc.name,
                m.name,
                m.unit,
                if m.gate { "" } else { " (info)" },
                format_value(med),
                format_value(band),
            ));
            for (i, e, v) in rows {
                let commit_short: String = e.commit.chars().take(9).collect();
                let flag = if band > 0.0 && (v - med).abs() > band {
                    " *"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "  {i:>3}  {}  {commit_short:<9}  {}{flag}\n",
                    utc_date(e.unix_s),
                    format_value(v),
                ));
            }
        }
    }
    out
}

/// One classified metric series.
#[derive(Clone, Debug)]
pub struct TrendRow {
    pub scenario: String,
    pub metric: String,
    pub unit: String,
    pub gate: bool,
    pub len: usize,
    pub report: telemetry::TrendReport,
    /// Confirmed step on a gated metric, moving in the bad direction.
    pub regression: bool,
}

/// Classify every metric series of `series` (latest entry's metric set,
/// values in chronological order) with [`telemetry::classify_series`].
pub fn trend_rows(series: &[&LedgerEntry], cfg: &telemetry::TrendConfig) -> Vec<TrendRow> {
    let Some(last) = series.last() else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for sc in &last.scenarios {
        for m in &sc.metrics {
            let values: Vec<f64> = series
                .iter()
                .filter_map(|e| {
                    e.scenario(&sc.name)
                        .filter(|s| s.params == sc.params)
                        .and_then(|s| s.metric(&m.name))
                        .map(|om| om.stats.median)
                })
                .collect();
            let report = telemetry::classify_series(&values, cfg);
            let bad_direction = match m.direction {
                Direction::Lower => report.score > 0.0,
                Direction::Higher => report.score < 0.0,
            };
            let regression = m.gate && report.kind == telemetry::TrendKind::Step && bad_direction;
            rows.push(TrendRow {
                scenario: sc.name.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                gate: m.gate,
                len: values.len(),
                report,
                regression,
            });
        }
    }
    rows
}

/// Human-readable trend table plus the verdict line.
pub fn render_trends(rows: &[TrendRow], host_key: &str, mode: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("trend {host_key}/{mode}\n"));
    for r in rows {
        let detail = match r.report.kind {
            telemetry::TrendKind::Stable => String::new(),
            telemetry::TrendKind::Insufficient => {
                format!("  ({} entries, need more history)", r.len)
            }
            _ => format!(
                "  at #{}  {} -> {}  score {:+.1}",
                r.report.at.map(|i| i as i64).unwrap_or(-1),
                format_value(r.report.baseline),
                format_value(r.report.level),
                r.report.score,
            ),
        };
        out.push_str(&format!(
            "  {:<10}{} {}/{} [{}]{}{}\n",
            r.report.kind.as_str(),
            if r.regression { " REGRESSED" } else { "" },
            r.scenario,
            r.metric,
            r.unit,
            if r.gate { "" } else { " (info)" },
            detail,
        ));
    }
    let regressions = rows.iter().filter(|r| r.regression).count();
    out.push_str(&format!(
        "\n{} gated step regression{}\n",
        regressions,
        if regressions == 1 { "" } else { "s" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(commit: &str, unix_s: u64, wall: f64) -> LedgerEntry {
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            host: obj(vec![
                ("os", Json::Str("linux".into())),
                ("arch", Json::Str("x86_64".into())),
                ("cpus", Json::F64(16.0)),
            ]),
            commit: commit.to_string(),
            config: obj(vec![("mode", Json::Str("quick".into()))]),
            scenarios: vec![Scenario {
                name: "solve_step".to_string(),
                params: obj(vec![("n", Json::F64(1000.0))]),
                metrics: vec![
                    Metric::wall("wall_s", "s", vec![wall, wall * 1.01, wall * 0.99], 7),
                    Metric::virtual_point("virtual_compute_s", "s", 0.5),
                ],
                snapshot: obj(vec![(
                    "cost_model",
                    obj(vec![("c_m2l", Json::F64(2.5e-9))]),
                )]),
            }],
        };
        LedgerEntry::from_report(&report, unix_s)
    }

    #[test]
    fn host_key_formats() {
        let e = entry("abc", 0, 1.0);
        assert_eq!(e.host_key, "linux-x86_64-16c");
        assert_eq!(e.mode, "quick");
    }

    #[test]
    fn entry_extracts_snapshot_parts() {
        let e = entry("abc", 0, 1.0);
        assert_eq!(
            e.cost_model.get("c_m2l").and_then(Json::as_f64),
            Some(2.5e-9)
        );
        assert_eq!(e.mem, Json::Null);
        // Scenario snapshots are not duplicated into the ledger.
        assert_eq!(e.scenarios[0].snapshot, Json::Obj(Vec::new()));
    }

    #[test]
    fn line_round_trips_byte_stable() {
        let e = entry("abc123", 1_754_611_200, 0.987654321);
        let line = e.to_json();
        let (back, warnings) = LedgerEntry::from_json_warn(&line).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(back.to_json(), line);
        assert!(back.scenarios[0].metrics[0].samples.is_empty());
        assert_eq!(
            back.scenarios[0].metrics[0].stats,
            e.scenarios[0].metrics[0].stats
        );
    }

    #[test]
    fn reader_tolerates_future_version_and_unknown_fields() {
        let line = entry("abc", 5, 1.0)
            .to_json()
            .replace("\"schema_version\":1", "\"schema_version\":7")
            .replace("\"commit\":", "\"hyperparams\":{\"x\":[1,2]},\"commit\":");
        let (e, warnings) = LedgerEntry::from_json_warn(&line).unwrap();
        assert_eq!(e.commit, "abc");
        assert!(
            warnings.iter().any(|w| w.contains("schema_version 7")),
            "{warnings:?}"
        );
    }

    #[test]
    fn load_skips_corrupt_lines_with_warning() {
        let dir = std::env::temp_dir().join(format!("afmm-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.jsonl");
        Ledger::append(&path, &entry("aaa", 1, 1.0)).unwrap();
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{{not json"))
            .unwrap();
        Ledger::append(&path, &entry("bbb", 2, 1.1)).unwrap();
        let (ledger, warnings) = Ledger::load(&path).unwrap();
        assert_eq!(ledger.entries.len(), 2);
        assert!(
            warnings.iter().any(|w| w.contains("line 2")),
            "{warnings:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_empty_ledger() {
        let (ledger, warnings) = Ledger::load(Path::new("/nonexistent/afmm/ledger.jsonl")).unwrap();
        assert!(ledger.entries.is_empty());
        assert!(warnings.is_empty());
    }

    #[test]
    fn series_filters_by_host_and_mode() {
        let mut other = entry("zzz", 3, 2.0);
        other.mode = "full".to_string();
        let ledger = Ledger {
            entries: vec![entry("aaa", 1, 1.0), other, entry("bbb", 2, 1.1)],
        };
        let s = ledger.series("linux-x86_64-16c", "quick");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].commit, "aaa");
        assert_eq!(ledger.series_keys().len(), 2);
    }

    #[test]
    fn k1_baseline_carries_stats_verbatim() {
        let e = entry("aaa", 1, 1.0);
        let series = [&e];
        let b = synthesize_baseline(&series, 1).unwrap();
        assert_eq!(
            b.scenarios[0].metric("wall_s").unwrap().stats,
            e.scenarios[0].metric("wall_s").unwrap().stats
        );
    }

    #[test]
    fn rolling_baseline_takes_median_of_medians() {
        let entries = [entry("a", 1, 1.0), entry("b", 2, 3.0), entry("c", 3, 2.0)];
        let series: Vec<&LedgerEntry> = entries.iter().collect();
        let b = synthesize_baseline(&series, 3).unwrap();
        let m = b.scenarios[0].metric("wall_s").unwrap();
        // medians of the three runs are ~1, ~3, ~2 → rolling median ~2.
        assert!((m.stats.median - 2.0).abs() < 0.1, "{}", m.stats.median);
    }

    #[test]
    fn utc_date_known_values() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_754_611_200), "2025-08-08");
        assert_eq!(utc_date(1_786_147_200), "2026-08-08");
    }

    #[test]
    fn history_flags_outliers() {
        let entries: Vec<LedgerEntry> = (0..6)
            .map(|i| {
                let w = if i == 4 { 5.0 } else { 1.0 + 0.01 * i as f64 };
                entry(&format!("c{i}"), i, w)
            })
            .collect();
        let series: Vec<&LedgerEntry> = entries.iter().collect();
        let text = render_history(&series, "linux-x86_64-16c", "quick");
        assert!(text.contains("solve_step/wall_s"), "{text}");
        assert!(text.contains('*'), "outlier unflagged:\n{text}");
    }

    #[test]
    fn trend_flags_gated_step_as_regression() {
        let entries: Vec<LedgerEntry> = (0..10)
            .map(|i| {
                let w = if i >= 8 { 2.0 } else { 1.0 };
                entry(&format!("c{i}"), i, w)
            })
            .collect();
        let series: Vec<&LedgerEntry> = entries.iter().collect();
        let rows = trend_rows(&series, &telemetry::TrendConfig::default());
        let wall = rows
            .iter()
            .find(|r| r.metric == "wall_s")
            .expect("wall_s row");
        assert_eq!(wall.report.kind, telemetry::TrendKind::Step);
        assert!(wall.regression);
        let text = render_trends(&rows, "linux-x86_64-16c", "quick");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("1 gated step regression"), "{text}");
    }

    #[test]
    fn trend_improvement_is_not_a_regression() {
        let entries: Vec<LedgerEntry> = (0..10)
            .map(|i| {
                let w = if i >= 8 { 0.5 } else { 1.0 };
                entry(&format!("c{i}"), i, w)
            })
            .collect();
        let series: Vec<&LedgerEntry> = entries.iter().collect();
        let rows = trend_rows(&series, &telemetry::TrendConfig::default());
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!(wall.report.kind, telemetry::TrendKind::Step);
        assert!(!wall.regression, "downward step on lower-is-better metric");
    }
}
