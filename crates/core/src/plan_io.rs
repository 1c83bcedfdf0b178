//! Plan serialization: save and reload [`IterationPlan`]s as JSON.
//!
//! Enables deterministic replay workflows — plan on one machine, inspect or
//! simulate elsewhere — and the CLI's `plan --out` / `step --plan` flags.
//! The workspace deliberately carries no JSON dependency, so this module
//! includes a small recursive-descent JSON parser (strings, numbers,
//! arrays, objects, literals) sufficient for the documented schema. Its
//! recursion is bounded by [`MAX_JSON_DEPTH`], so hostile nesting is a
//! typed error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::plan::{AttnMode, IterationPlan, PlanOptions, SeqPlacement, Zone};
use crate::validate::{report, structural_violations, PlanViolation};

/// Errors from plan (de)serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanIoError {
    /// The JSON text is malformed.
    Parse {
        /// Byte offset of the error.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON is valid but not a plan (missing/mistyped fields).
    Schema(String),
    /// The document is a well-formed plan that violates plan invariants
    /// (zero lengths, duplicate ranks, bogus micro-batch counts, …).
    Invalid(Vec<PlanViolation>),
    /// Arrays and objects nest deeper than [`MAX_JSON_DEPTH`] levels. The
    /// parser recurses once per level, so it stops here rather than
    /// overflow the stack on hostile input.
    TooDeep {
        /// Byte offset of the bracket that opened one level too many.
        offset: usize,
    },
}

impl std::fmt::Display for PlanIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanIoError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            PlanIoError::Schema(m) => write!(f, "plan schema error: {m}"),
            PlanIoError::Invalid(violations) => {
                write!(f, "invalid plan: {}", report(violations))
            }
            PlanIoError::TooDeep { offset } => write!(
                f,
                "JSON nests deeper than {MAX_JSON_DEPTH} levels at byte {offset}"
            ),
        }
    }
}

impl std::error::Error for PlanIoError {}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. Plans,
/// traces and serve messages nest only a few levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// Schema version written by [`plan_to_json`]. Documents absent in the wild
/// predate versioning and are treated as version 1.
pub const PLAN_SCHEMA_VERSION: u64 = 1;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64; plan fields are small integers).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (order-insensitive).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on an object; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(o) => o.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Renders the value back to compact JSON text (inverse of [`parse_json`]
/// up to number formatting). Shared by plan serialization and the serving
/// protocol, which builds responses as [`Json`] trees.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => write!(f, "\"{}\"", escape(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`PlanIoError::Parse`] with the byte offset of the first error,
/// and [`PlanIoError::TooDeep`] for nesting past [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, PlanIoError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> PlanIoError {
        PlanIoError::Parse {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), PlanIoError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, PlanIoError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, PlanIoError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, PlanIoError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, PlanIoError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Parses one array or object a level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, PlanIoError>,
    ) -> Result<Json, PlanIoError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(PlanIoError::TooDeep { offset: self.pos });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, PlanIoError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, PlanIoError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn zone_name(z: Zone) -> &'static str {
    match z {
        Zone::Local => "local",
        Zone::IntraNode => "intra_node",
        Zone::InterNode => "inter_node",
    }
}

fn mode_name(m: AttnMode) -> &'static str {
    match m {
        AttnMode::Ring => "ring",
        AttnMode::AllGather => "all_gather",
        AttnMode::Ulysses => "ulysses",
        AttnMode::DoubleRing => "double_ring",
    }
}

/// Serializes a plan to JSON.
pub fn plan_to_json(plan: &IterationPlan) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"schema_version\":{PLAN_SCHEMA_VERSION},");
    let _ = write!(out, "\"scheduler\":\"{}\",", escape(&plan.scheduler));
    let _ = write!(
        out,
        "\"options\":{{\"routing\":{},\"remapping\":{},\"speed_aware_remap\":{}}},",
        plan.options.routing, plan.options.remapping, plan.options.speed_aware_remap
    );
    let _ = write!(out, "\"micro_batches\":{},", plan.micro_batches);
    let _ = write!(out, "\"redundant_attn_frac\":{},", plan.redundant_attn_frac);
    out.push_str("\"placements\":[");
    for (i, p) in plan.placements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ranks: Vec<String> = p.ranks.iter().map(|r| r.to_string()).collect();
        let _ = write!(
            out,
            "{{\"seq_index\":{},\"len\":{},\"zone\":\"{}\",\"mode\":\"{}\",\"micro_batch\":{},\"ranks\":[{}]",
            p.seq_index,
            p.len,
            zone_name(p.zone),
            mode_name(p.mode),
            p.micro_batch,
            ranks.join(",")
        );
        // Speed weights are written only when declared, so homogeneous
        // plans serialize byte-identically to pre-weights documents.
        if !p.weights.is_empty() {
            let ws: Vec<String> = p.weights.iter().map(|w| w.to_string()).collect();
            let _ = write!(out, ",\"weights\":[{}]", ws.join(","));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, PlanIoError> {
    obj.get(key)
        .ok_or_else(|| PlanIoError::Schema(format!("missing field '{key}'")))
}

fn as_u64(v: &Json, key: &str) -> Result<u64, PlanIoError> {
    match v {
        Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(PlanIoError::Schema(format!(
            "field '{key}' must be a non-negative integer"
        ))),
    }
}

/// Parses a plan from JSON produced by [`plan_to_json`].
///
/// The document is audited with
/// [`structural_violations`](crate::validate::structural_violations) before
/// it is returned: a plan that parses but breaks structural invariants
/// (zero-length placements, duplicate ranks, `micro_batches` of 0, a
/// non-finite `redundant_attn_frac`, …) is rejected with
/// [`PlanIoError::Invalid`] so hostile documents never reach the analyzer
/// or the executor.
///
/// # Errors
///
/// Returns [`PlanIoError`] on malformed JSON, schema mismatch, or a
/// structurally invalid plan.
pub fn plan_from_json(text: &str) -> Result<IterationPlan, PlanIoError> {
    let Json::Object(root) = parse_json(text)? else {
        return Err(PlanIoError::Schema("root must be an object".into()));
    };
    // Absent ⇒ v1 (pre-versioning documents); anything else must match.
    if let Some(v) = root.get("schema_version") {
        match v.as_u64() {
            Some(PLAN_SCHEMA_VERSION) => {}
            Some(other) => {
                return Err(PlanIoError::Schema(format!(
                    "unsupported schema_version {other} (this build reads version {PLAN_SCHEMA_VERSION})"
                )))
            }
            None => {
                return Err(PlanIoError::Schema(
                    "'schema_version' must be a non-negative integer".into(),
                ))
            }
        }
    }
    let scheduler = match get(&root, "scheduler")? {
        Json::String(s) => s.clone(),
        _ => return Err(PlanIoError::Schema("'scheduler' must be a string".into())),
    };
    let options = match get(&root, "options")? {
        Json::Object(o) => PlanOptions {
            routing: matches!(get(o, "routing")?, Json::Bool(true)),
            remapping: matches!(get(o, "remapping")?, Json::Bool(true)),
            // Absent in pre-heterogeneity documents ⇒ false.
            speed_aware_remap: matches!(o.get("speed_aware_remap"), Some(Json::Bool(true))),
        },
        _ => return Err(PlanIoError::Schema("'options' must be an object".into())),
    };
    let micro_batches = as_u64(get(&root, "micro_batches")?, "micro_batches")? as usize;
    let redundant_attn_frac = match get(&root, "redundant_attn_frac")? {
        Json::Number(n) => *n,
        _ => {
            return Err(PlanIoError::Schema(
                "'redundant_attn_frac' must be a number".into(),
            ))
        }
    };
    let Json::Array(raw) = get(&root, "placements")? else {
        return Err(PlanIoError::Schema("'placements' must be an array".into()));
    };
    let mut placements = Vec::with_capacity(raw.len());
    for item in raw {
        let Json::Object(o) = item else {
            return Err(PlanIoError::Schema("placement must be an object".into()));
        };
        let zone = match get(o, "zone")? {
            Json::String(s) => match s.as_str() {
                "local" => Zone::Local,
                "intra_node" => Zone::IntraNode,
                "inter_node" => Zone::InterNode,
                other => {
                    return Err(PlanIoError::Schema(format!("unknown zone '{other}'")));
                }
            },
            _ => return Err(PlanIoError::Schema("'zone' must be a string".into())),
        };
        let mode = match get(o, "mode")? {
            Json::String(s) => match s.as_str() {
                "ring" => AttnMode::Ring,
                "all_gather" => AttnMode::AllGather,
                "ulysses" => AttnMode::Ulysses,
                "double_ring" => AttnMode::DoubleRing,
                other => {
                    return Err(PlanIoError::Schema(format!("unknown mode '{other}'")));
                }
            },
            _ => return Err(PlanIoError::Schema("'mode' must be a string".into())),
        };
        let Json::Array(rank_vals) = get(o, "ranks")? else {
            return Err(PlanIoError::Schema("'ranks' must be an array".into()));
        };
        let mut ranks = Vec::with_capacity(rank_vals.len());
        for r in rank_vals {
            ranks.push(as_u64(r, "ranks")? as usize);
        }
        // Optional: absent ⇒ homogeneous (pre-weights documents).
        let weights = match o.get("weights") {
            None => Vec::new(),
            Some(Json::Array(ws)) => {
                let mut v = Vec::with_capacity(ws.len());
                for w in ws {
                    let n = as_u64(w, "weights")?;
                    v.push(u32::try_from(n).map_err(|_| {
                        PlanIoError::Schema("'weights' entries must fit a 32-bit integer".into())
                    })?);
                }
                v
            }
            Some(_) => return Err(PlanIoError::Schema("'weights' must be an array".into())),
        };
        placements.push(SeqPlacement {
            seq_index: as_u64(get(o, "seq_index")?, "seq_index")? as usize,
            len: as_u64(get(o, "len")?, "len")?,
            zone,
            ranks,
            mode,
            micro_batch: as_u64(get(o, "micro_batch")?, "micro_batch")? as usize,
            weights,
        });
    }
    let plan = IterationPlan {
        scheduler,
        placements,
        options,
        micro_batches,
        redundant_attn_frac,
    };
    let violations = structural_violations(&plan);
    if violations.is_empty() {
        Ok(plan)
    } else {
        Err(PlanIoError::Invalid(violations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> IterationPlan {
        IterationPlan {
            scheduler: "Zeppelin \"quoted\"\n".into(),
            placements: vec![
                SeqPlacement {
                    seq_index: 0,
                    len: 40_000,
                    zone: Zone::InterNode,
                    ranks: (0..16).collect(),
                    mode: AttnMode::Ring,
                    micro_batch: 0,
                    weights: (0..16).map(|i| 512 + i * 64).collect(),
                },
                SeqPlacement {
                    seq_index: 1,
                    len: 500,
                    zone: Zone::Local,
                    ranks: vec![3],
                    mode: AttnMode::Ulysses,
                    micro_batch: 1,
                    weights: Vec::new(),
                },
            ],
            options: PlanOptions {
                routing: true,
                remapping: false,
                speed_aware_remap: true,
            },
            micro_batches: 2,
            redundant_attn_frac: 0.125,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let plan = sample_plan();
        let json = plan_to_json(&plan);
        let back = plan_from_json(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn parser_handles_whitespace_and_ordering() {
        let text = r#"
        {
          "placements": [],
          "micro_batches": 1,
          "redundant_attn_frac": 0,
          "options": { "remapping": true, "routing": false },
          "scheduler": "x"
        }
        "#;
        let plan = plan_from_json(text).unwrap();
        assert_eq!(plan.scheduler, "x");
        assert!(plan.options.remapping && !plan.options.routing);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = plan_from_json("{\"scheduler\": }").unwrap_err();
        assert!(matches!(err, PlanIoError::Parse { .. }), "{err}");
        let err = plan_from_json("[1,2]").unwrap_err();
        assert!(matches!(err, PlanIoError::Schema(_)));
        let err = plan_from_json("{\"a\":1} trailing").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn schema_errors_name_the_field() {
        let json = plan_to_json(&sample_plan()).replace("\"len\"", "\"zen\"");
        let err = plan_from_json(&json).unwrap_err();
        assert!(err.to_string().contains("len"), "{err}");
        // Negative numbers are rejected for unsigned fields.
        let json = plan_to_json(&sample_plan()).replace("\"len\":40000", "\"len\":-1");
        assert!(plan_from_json(&json).is_err());
        // Unknown enum tags are rejected.
        let json = plan_to_json(&sample_plan()).replace("\"ring\"", "\"mesh\"");
        assert!(plan_from_json(&json).is_err());
    }

    #[test]
    fn structurally_bogus_plans_are_rejected_at_parse_time() {
        let json = plan_to_json(&sample_plan());
        for (needle, mutated) in [
            ("'len' 0", json.replace("\"len\":500", "\"len\":0")),
            (
                "'micro_batches' is 0",
                json.replace("\"micro_batches\":2", "\"micro_batches\":0"),
            ),
            (
                "repeats rank",
                json.replace("\"ranks\":[3]", "\"ranks\":[3,3]"),
            ),
            (
                "redundant_attn_frac",
                json.replace(
                    "\"redundant_attn_frac\":0.125",
                    "\"redundant_attn_frac\":1e999",
                ),
            ),
            (
                "empty 'ranks'",
                json.replace("\"ranks\":[3]", "\"ranks\":[]"),
            ),
        ] {
            let err = plan_from_json(&mutated).unwrap_err();
            assert!(matches!(err, PlanIoError::Invalid(_)), "{needle}: {err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn weights_are_optional_and_validated() {
        let json = plan_to_json(&sample_plan());
        assert!(json.contains("\"weights\":[512,"), "{json}");
        assert!(json.contains("\"speed_aware_remap\":true"), "{json}");
        // Dropping the weights array parses as a homogeneous placement.
        let start = json.find(",\"weights\":[").unwrap();
        let end = json[start + 1..].find(']').unwrap() + start + 2;
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        let plan = plan_from_json(&stripped).unwrap();
        assert!(plan.placements.iter().all(|p| p.weights.is_empty()));
        // A weight count that disagrees with the rank group is rejected
        // at parse time with a field-named report.
        let hostile = json.replace("\"weights\":[512,", "\"weights\":[0,512,");
        let err = plan_from_json(&hostile).unwrap_err();
        assert!(matches!(err, PlanIoError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("speed weights"), "{err}");
        // Oversized entries are a schema error, not a silent truncation.
        let hostile = json.replace("\"weights\":[512,", "\"weights\":[4294967296,");
        let err = plan_from_json(&hostile).unwrap_err();
        assert!(err.to_string().contains("32-bit"), "{err}");
    }

    #[test]
    fn generic_json_values_parse() {
        let v = parse_json(r#"{"a":[1,-2.5,true,false,null,"sA"],"b":{}}"#).unwrap();
        let Json::Object(o) = v else { panic!() };
        let Json::Array(a) = &o["a"] else { panic!() };
        assert_eq!(a.len(), 6);
        assert_eq!(a[1], Json::Number(-2.5));
        assert_eq!(a[5], Json::String("sA".into()));
        assert_eq!(o["b"], Json::Object(Default::default()));
    }

    #[test]
    fn schema_version_is_written_and_checked() {
        let json = plan_to_json(&sample_plan());
        assert!(json.contains("\"schema_version\":1"), "{json}");
        // Absent ⇒ v1: stripping the field still parses.
        let legacy = json.replace("\"schema_version\":1,", "");
        assert_eq!(plan_from_json(&legacy).unwrap(), sample_plan());
        // A future version is a typed schema error naming the version.
        let future = json.replace("\"schema_version\":1", "\"schema_version\":99");
        let err = plan_from_json(&future).unwrap_err();
        assert!(matches!(err, PlanIoError::Schema(_)));
        assert!(err.to_string().contains("99"), "{err}");
        // A mistyped version is rejected, not silently ignored.
        let bad = json.replace("\"schema_version\":1", "\"schema_version\":\"one\"");
        assert!(matches!(plan_from_json(&bad), Err(PlanIoError::Schema(_))));
    }

    #[test]
    fn json_accessors_and_rendering_round_trip() {
        let v = parse_json(r#"{"a":[1,2.5,"s\"x"],"b":{"c":true},"n":null}"#).unwrap();
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        // Display renders text that parses back to the same tree.
        let rendered = v.to_string();
        assert_eq!(parse_json(&rendered).unwrap(), v);
        // Plans rendered through the Json tree match the parsed original.
        let plan_text = plan_to_json(&sample_plan());
        let tree = parse_json(&plan_text).unwrap();
        assert_eq!(parse_json(&tree.to_string()).unwrap(), tree);
    }

    #[test]
    fn unterminated_inputs_fail_cleanly() {
        for bad in ["{", "[", "\"abc", "{\"a\"", "{\"a\":1,", "tr", "1e", "[1,]"] {
            assert!(parse_json(bad).is_err(), "should reject {bad:?}");
        }
    }
}
