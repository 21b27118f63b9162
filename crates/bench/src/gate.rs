//! The bench gate: compares a fresh `experiments --json` document against
//! a committed baseline and fails on throughput regressions.
//!
//! Design notes, earned the hard way:
//!
//! * Individual table rows are noisy (±10% run-to-run on the quick
//!   configuration; the guardian-churn e19 row swings 40%), so the gate
//!   compares the **geometric mean of a metric column per table**, which
//!   is stable to a few percent.
//! * The fresh side may supply **several runs**; the gate takes the best
//!   (per metric). The committed baseline is a single run, so best-of-N
//!   against it cancels scheduler noise without hiding real regressions —
//!   a true 20% slowdown shifts the whole distribution.
//! * Only *regressions* fail. Improvements are reported but pass; the
//!   baseline is refreshed by committing a new BENCH_*.json.
//! * Baseline and fresh documents must agree on the `quick` flag: quick
//!   and full runs measure different working-set sizes and their
//!   throughputs are not comparable (quick e11 copy throughput sits ~25%
//!   below full).
//!
//! No serde in the workspace, so this module carries a small recursive-
//! descent JSON parser sufficient for the documents the `experiments`
//! binary emits.

use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------

/// A parsed JSON value (numbers as `f64`, objects in insertion order not
/// preserved — keyed lookups only, which is all the gate needs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                out.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut out = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos)?;
                out.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(out));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs never appear in our own output.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 passes through untouched.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map_err(|e| format!("bad number at byte {start}: {e}"))
}

// ---------------------------------------------------------------------
// Metric extraction
// ---------------------------------------------------------------------

/// Which way a metric is good.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are better (throughput).
    HigherIsBetter,
    /// Smaller numbers are better (latency).
    LowerIsBetter,
}

/// One gated metric: a column of a named table, aggregated by geometric
/// mean across rows.
#[derive(Clone, Debug)]
pub struct GateSpec {
    /// Table `name` key in the experiments document (e.g. `"e11"`).
    pub table: &'static str,
    /// Header of the metric column.
    pub column: &'static str,
    /// Which way is good.
    pub direction: Direction,
}

/// The default gate: e11 copy throughput, e17 serial-engine copy
/// throughput, e18 pause latency, and e19 VM eval latency. E17's
/// parallel columns are *not* gated — their values depend on the
/// runner's core count — but the 1-worker column exercises the
/// serial engine through the E17 workload mix and is host-shape
/// independent. E18's p50/p99 columns gate the incremental engine's
/// reason to exist: the per-table geomean spans the serial row and every
/// budget row, so a latency regression in either engine (or a budget
/// that stops slicing) fails. E19's `vm us/eval` column gates the
/// evaluator's speed: a dispatch-loop or inline-cache regression moves
/// it against the committed BENCH_e19.json baseline (the `oracle
/// us/eval` column beside it is context, not gated). E22's GC-work
/// geomean column is a *deterministic* proxy (words copied + guardian
/// entries visited — no wall clock), so its gate is noise-free: the
/// per-table geomean spans the static sweep and both autotuner rows, and
/// a controller change that worsens any configuration's policy outcome
/// shifts it.
pub fn default_specs() -> Vec<GateSpec> {
    vec![
        GateSpec {
            table: "e11",
            column: "copy Mw/s",
            direction: Direction::HigherIsBetter,
        },
        GateSpec {
            table: "e17",
            column: "copy Mw/s (1w)",
            direction: Direction::HigherIsBetter,
        },
        GateSpec {
            table: "e18",
            column: "pause p50 (us)",
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            table: "e18",
            column: "pause p99 (us)",
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            table: "e19",
            column: "vm us/eval",
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            table: "e21",
            column: "fleet kreq/s",
            direction: Direction::HigherIsBetter,
        },
        GateSpec {
            table: "e21",
            column: "worst zone p99 (us)",
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            table: "e22",
            column: "work geomean (kw)",
            direction: Direction::LowerIsBetter,
        },
    ]
}

/// Finds the table with `"name": name` (falling back to a title starting
/// with `"<NAME>:"` for documents that predate table names).
fn find_table<'a>(doc: &'a Json, name: &str) -> Result<&'a Json, String> {
    let tables = doc
        .get("tables")
        .and_then(Json::as_arr)
        .ok_or("document has no \"tables\" array")?;
    let upper = format!("{}:", name.to_uppercase());
    tables
        .iter()
        .find(|t| {
            t.get("name").and_then(Json::as_str) == Some(name)
                || t.get("title")
                    .and_then(Json::as_str)
                    .is_some_and(|s| s.starts_with(&upper))
        })
        .ok_or(format!("table {name:?} not found in document"))
}

/// Merges several experiment documents into one by concatenating their
/// `tables` arrays. The committed baselines live one experiment per file
/// (`BENCH_e11.json`, `BENCH_e19.json`), while `compare` wants a single
/// document covering every gated table. The `quick` flags must agree.
pub fn merge_docs(docs: &[Json]) -> Result<Json, String> {
    let first = docs.first().ok_or("no documents to merge")?;
    let quick = first.get("quick").cloned().unwrap_or(Json::Null);
    let mut tables = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        if d.get("quick").cloned().unwrap_or(Json::Null) != quick {
            return Err(format!(
                "quick-flag mismatch between merged documents 0 and {i}"
            ));
        }
        tables.extend_from_slice(
            d.get("tables")
                .and_then(Json::as_arr)
                .ok_or(format!("merged document {i} has no \"tables\" array"))?,
        );
    }
    let mut obj = BTreeMap::new();
    obj.insert("quick".to_string(), quick);
    obj.insert("tables".to_string(), Json::Arr(tables));
    Ok(Json::Obj(obj))
}

/// Extracts the geometric mean of `spec.column` across the table's rows.
/// Cells are formatted strings, so thousands separators are stripped.
pub fn metric_of(doc: &Json, spec: &GateSpec) -> Result<f64, String> {
    let table = find_table(doc, spec.table)?;
    let headers = table
        .get("headers")
        .and_then(Json::as_arr)
        .ok_or("table has no headers")?;
    let col = headers
        .iter()
        .position(|h| h.as_str() == Some(spec.column))
        .ok_or(format!(
            "column {:?} not found in table {:?}",
            spec.column, spec.table
        ))?;
    let rows = table
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("table has no rows")?;
    if rows.is_empty() {
        return Err(format!("table {:?} has no rows", spec.table));
    }
    let mut log_sum = 0.0;
    for (i, row) in rows.iter().enumerate() {
        let cell = row
            .as_arr()
            .and_then(|r| r.get(col))
            .and_then(Json::as_str)
            .ok_or(format!("table {:?} row {i}: bad cell", spec.table))?;
        let v: f64 = cell
            .replace(',', "")
            .parse()
            .map_err(|e| format!("table {:?} row {i} cell {cell:?}: {e}", spec.table))?;
        if v <= 0.0 {
            return Err(format!(
                "table {:?} row {i}: non-positive metric {v}",
                spec.table
            ));
        }
        log_sum += v.ln();
    }
    Ok((log_sum / rows.len() as f64).exp())
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// One metric's verdict.
#[derive(Clone, Debug)]
pub struct GateLine {
    /// `table/column`.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Best fresh value across the supplied runs.
    pub fresh: f64,
    /// Fresh relative to baseline in the *bad* direction: `0.20` means
    /// 20% worse, negative means improved.
    pub regression: f64,
    /// Whether the regression stays within tolerance.
    pub pass: bool,
}

impl std::fmt::Display for GateLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:4} {:<22} baseline {:>10.2}  fresh {:>10.2}  change {:>+6.1}%",
            if self.pass { "ok" } else { "FAIL" },
            self.metric,
            self.baseline,
            self.fresh,
            100.0 * self.regression
        )
    }
}

/// Compares baseline vs N fresh runs over `specs`. `tolerance` is the
/// maximum allowed relative regression (0.15 = fail beyond 15% worse).
///
/// # Errors
///
/// Malformed documents, missing tables/columns, or a `quick`-flag
/// mismatch between baseline and any fresh document.
pub fn compare(
    baseline: &Json,
    fresh_runs: &[Json],
    specs: &[GateSpec],
    tolerance: f64,
) -> Result<Vec<GateLine>, String> {
    if fresh_runs.is_empty() {
        return Err("no fresh runs supplied".to_string());
    }
    let base_quick = baseline.get("quick").and_then(Json::as_bool);
    for (i, f) in fresh_runs.iter().enumerate() {
        let fq = f.get("quick").and_then(Json::as_bool);
        if fq != base_quick {
            return Err(format!(
                "quick-flag mismatch: baseline {base_quick:?}, fresh run {i} {fq:?} — \
                 quick and full measurements are not comparable"
            ));
        }
    }
    let mut out = Vec::new();
    for spec in specs {
        let base = metric_of(baseline, spec)?;
        let mut best: Option<f64> = None;
        for f in fresh_runs {
            let v = metric_of(f, spec)?;
            best = Some(match (best, spec.direction) {
                (None, _) => v,
                (Some(b), Direction::HigherIsBetter) => b.max(v),
                (Some(b), Direction::LowerIsBetter) => b.min(v),
            });
        }
        let fresh = best.expect("at least one fresh run");
        let regression = match spec.direction {
            Direction::HigherIsBetter => (base - fresh) / base,
            Direction::LowerIsBetter => (fresh - base) / base,
        };
        out.push(GateLine {
            metric: format!("{}/{}", spec.table, spec.column),
            baseline: base,
            fresh,
            regression,
            pass: regression <= tolerance,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(quick: bool, mwps: &[f64], us: &[f64]) -> Json {
        let rows = |vals: &[f64]| {
            vals.iter()
                .map(|v| format!("[\"cfg\",\"{v:.1}\"]"))
                .collect::<Vec<_>>()
                .join(",")
        };
        // Two latency columns sharing the same values: the e18 table
        // carries both gated percentiles.
        let wide_rows = |vals: &[f64]| {
            vals.iter()
                .map(|v| format!("[\"cfg\",\"{v:.1}\",\"{v:.1}\"]"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let text = format!(
            "{{\"quick\":{quick},\"tables\":[\
             {{\"name\":\"e11\",\"title\":\"E11: x\",\"headers\":[\"configuration\",\"copy Mw/s\"],\
              \"rows\":[{mw}],\"notes\":[]}},\
             {{\"name\":\"e17\",\"title\":\"E17: z\",\"headers\":[\"configuration\",\"copy Mw/s (1w)\"],\
              \"rows\":[{mw}],\"notes\":[]}},\
             {{\"name\":\"e18\",\"title\":\"E18: w\",\"headers\":[\"pause budget\",\
              \"pause p50 (us)\",\"pause p99 (us)\"],\
              \"rows\":[{wus}],\"notes\":[]}},\
             {{\"name\":\"e19\",\"title\":\"E19: v\",\"headers\":[\"workload\",\"vm us/eval\"],\
              \"rows\":[{us}],\"notes\":[]}},\
             {{\"name\":\"e21\",\"title\":\"E21: f\",\"headers\":[\"engine\",\
              \"fleet kreq/s\",\"worst zone p99 (us)\"],\
              \"rows\":[{fleet}],\"notes\":[]}},\
             {{\"name\":\"e22\",\"title\":\"E22: g\",\"headers\":[\"config\",\
              \"work geomean (kw)\"],\
              \"rows\":[{us}],\"notes\":[]}}]}}",
            mw = rows(mwps),
            us = rows(us),
            wus = wide_rows(us),
            fleet = mwps
                .iter()
                .zip(us)
                .map(|(m, u)| format!("[\"cfg\",\"{m:.1}\",\"{u:.1}\"]"))
                .collect::<Vec<_>>()
                .join(",")
        );
        Json::parse(&text).expect("test doc parses")
    }

    #[test]
    fn parser_round_trips_experiment_shapes() {
        let j = Json::parse(r#"{"a":[1,2.5,-3e2],"b":"x\n\"y\"","c":true,"d":null}"#).unwrap();
        assert_eq!(j.get("b").and_then(Json::as_str), Some("x\n\"y\""));
        assert_eq!(
            j.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(j.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("d"), Some(&Json::Null));
        assert!(Json::parse("{\"a\":1} junk").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn thousands_separators_and_geomean() {
        let j = Json::parse(
            "{\"quick\":true,\"tables\":[{\"name\":\"e11\",\"headers\":[\"k\",\"copy Mw/s\"],\
             \"rows\":[[\"a\",\"1,000\"],[\"b\",\"10\"]],\"notes\":[]}]}",
        )
        .unwrap();
        let spec = &default_specs()[0];
        let m = metric_of(&j, spec).unwrap();
        assert!(
            (m - 100.0).abs() < 1e-9,
            "geomean of 1000 and 10 is 100, got {m}"
        );
    }

    #[test]
    fn identical_runs_pass() {
        let base = doc(true, &[60.0, 61.0], &[900.0, 400.0]);
        let lines = compare(&base, std::slice::from_ref(&base), &default_specs(), 0.15).unwrap();
        assert!(lines.iter().all(|l| l.pass), "{lines:?}");
        assert!(lines.iter().all(|l| l.regression.abs() < 1e-9));
    }

    #[test]
    fn injected_20_percent_regression_fails_at_15_tolerance() {
        let base = doc(true, &[60.0, 61.0], &[900.0, 400.0]);
        // Throughput down 20%, latency up 20%.
        let slow = doc(true, &[48.0, 48.8], &[1080.0, 480.0]);
        let lines = compare(&base, &[slow], &default_specs(), 0.15).unwrap();
        assert!(lines.iter().all(|l| !l.pass), "{lines:?}");
        assert!(lines.iter().all(|l| (l.regression - 0.20).abs() < 1e-6));
    }

    #[test]
    fn improvements_and_small_noise_pass() {
        let base = doc(true, &[60.0, 61.0], &[900.0, 400.0]);
        let faster = doc(true, &[80.0, 80.0], &[500.0, 300.0]);
        let noisy = doc(true, &[55.0, 56.5], &[960.0, 430.0]); // ~8% worse
        for fresh in [faster, noisy] {
            let lines = compare(&base, &[fresh], &default_specs(), 0.15).unwrap();
            assert!(lines.iter().all(|l| l.pass), "{lines:?}");
        }
    }

    #[test]
    fn best_of_n_takes_the_best_fresh_run() {
        let base = doc(true, &[60.0, 60.0], &[900.0, 400.0]);
        let bad = doc(true, &[40.0, 40.0], &[2000.0, 900.0]);
        let good = doc(true, &[59.0, 59.0], &[910.0, 405.0]);
        let lines = compare(&base, &[bad, good], &default_specs(), 0.15).unwrap();
        assert!(
            lines.iter().all(|l| l.pass),
            "best-of-2 must pass: {lines:?}"
        );
    }

    #[test]
    fn merged_single_table_baselines_gate_like_one_document() {
        // Split the baseline the way the committed files are: one table
        // per document.
        let both = doc(true, &[60.0], &[900.0]);
        let e11_only = Json::parse(
            "{\"quick\":true,\"tables\":[{\"name\":\"e11\",\"headers\":[\"k\",\"copy Mw/s\"],\
             \"rows\":[[\"a\",\"60.0\"]],\"notes\":[]}]}",
        )
        .unwrap();
        let e17_only = Json::parse(
            "{\"quick\":true,\"tables\":[{\"name\":\"e17\",\"headers\":[\"k\",\"copy Mw/s (1w)\"],\
             \"rows\":[[\"a\",\"60.0\"]],\"notes\":[]}]}",
        )
        .unwrap();
        let e18_only = Json::parse(
            "{\"quick\":true,\"tables\":[{\"name\":\"e18\",\
             \"headers\":[\"k\",\"pause p50 (us)\",\"pause p99 (us)\"],\
             \"rows\":[[\"a\",\"900.0\",\"900.0\"]],\"notes\":[]}]}",
        )
        .unwrap();
        let e19_only = Json::parse(
            "{\"quick\":true,\"tables\":[{\"name\":\"e19\",\"headers\":[\"k\",\"vm us/eval\"],\
             \"rows\":[[\"a\",\"900.0\"]],\"notes\":[]}]}",
        )
        .unwrap();
        let e21_only = Json::parse(
            "{\"quick\":true,\"tables\":[{\"name\":\"e21\",\
             \"headers\":[\"k\",\"fleet kreq/s\",\"worst zone p99 (us)\"],\
             \"rows\":[[\"a\",\"60.0\",\"900.0\"]],\"notes\":[]}]}",
        )
        .unwrap();
        let e22_only = Json::parse(
            "{\"quick\":true,\"tables\":[{\"name\":\"e22\",\
             \"headers\":[\"k\",\"work geomean (kw)\"],\
             \"rows\":[[\"a\",\"900.0\"]],\"notes\":[]}]}",
        )
        .unwrap();
        let merged = merge_docs(&[
            e11_only,
            e17_only,
            e18_only,
            e19_only.clone(),
            e21_only,
            e22_only,
        ])
        .unwrap();
        let lines = compare(&merged, &[both], &default_specs(), 0.15).unwrap();
        assert!(lines.iter().all(|l| l.pass && l.regression.abs() < 1e-9));
        let err = merge_docs(&[merged, doc(false, &[1.0], &[1.0])]).unwrap_err();
        assert!(err.contains("quick-flag mismatch"), "{err}");
        assert!(merge_docs(&[e19_only]).is_ok());
    }

    #[test]
    fn quick_flag_mismatch_is_an_error() {
        let base = doc(false, &[60.0], &[900.0]);
        let fresh = doc(true, &[60.0], &[900.0]);
        let err = compare(&base, &[fresh], &default_specs(), 0.15).unwrap_err();
        assert!(err.contains("quick-flag mismatch"), "{err}");
    }
}
