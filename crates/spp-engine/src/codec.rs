//! The one JSON codec of the batch documents.
//!
//! The `spp-shard-report` and `spp-merged-report` files and the
//! `spp-work-*` wire documents share their shape: a `format` tag and a
//! `version` first, string arrays on one line, and (where present) a
//! `cells` array of [`CellRow`]s last. Each of those pieces is written
//! and parsed here exactly once, so the documents cannot drift apart.

use std::fmt::Write as _;

use spp_core::json::{self, Json, JsonValue};

use crate::batch::CellStatus;
use crate::sharding::CellRow;
use crate::work::WorkError;

/// Which version line a document carries: report files and the work wire
/// are versioned independently.
#[derive(Clone, Copy)]
pub(crate) enum Family {
    /// `spp-shard-report` and `spp-merged-report` files.
    Report,
    /// `spp-work-lease`, `-complete` and `-status` documents.
    Wire,
}

impl Family {
    fn version(self) -> u64 {
        match self {
            Family::Report => 1,
            Family::Wire => 1,
        }
    }

    /// Reject a document from another version instead of misreading it.
    fn check(self, found: u64) -> Result<(), String> {
        if found == self.version() {
            return Ok(());
        }
        Err(match self {
            Family::Report => "unsupported report version".to_string(),
            Family::Wire => format!(
                "unsupported wire version {found} (this binary speaks {})",
                self.version()
            ),
        })
    }
}

/// Open a document: the brace, the `format` tag and the `version` line.
pub(crate) fn begin(format: &str, family: Family) -> String {
    format!(
        "{{\n  \"format\": \"{format}\",\n  \"version\": {},\n",
        family.version()
    )
}

/// Write one `"name": ["a", "b"],` line.
pub(crate) fn write_strings<S: AsRef<str>>(
    out: &mut String,
    name: &str,
    items: impl IntoIterator<Item = S>,
) {
    let quoted: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", json::escape(s.as_ref())))
        .collect();
    let _ = writeln!(out, "  \"{name}\": [{}],", quoted.join(", "));
}

/// Close a document with its `cells` array, one row per line with
/// `{:.17e}` floats so a parse loses no precision.
pub(crate) fn end_with_cells(mut out: String, cells: &[CellRow]) -> String {
    out.push_str("  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let _ = write!(
            out,
            "\n    {{\"job\": {}, \"label\": \"{}\", \"solver\": \"{}\", \"status\": \"{}\", \"makespan\": {:.17e}, \"lb\": {:.17e}}}{sep}",
            c.job,
            json::escape(&c.label),
            json::escape(&c.solver),
            c.status.as_str(),
            c.makespan,
            c.combined_lb
        );
    }
    out.push_str(if cells.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

/// A parsed document whose `format` tag and `version` were checked.
/// Accessors name the document in every error (`shard report: field
/// shard (line 4): …`). Unknown fields are tolerated: these documents are
/// machine output, unlike hand-written instance files.
pub(crate) struct Doc {
    doc: JsonValue,
    context: &'static str,
}

impl Doc {
    /// Parse `text` as a `format` document of `family`; `context` names
    /// it in errors.
    pub(crate) fn open(
        text: &str,
        context: &'static str,
        format: &str,
        family: Family,
    ) -> Result<Doc, WorkError> {
        let doc = Doc {
            doc: json::parse(text)
                .map_err(|e| WorkError::protocol(context, format!("invalid JSON: {e}")))?,
            context,
        };
        if doc.str("format")? != format {
            return Err(doc.bad(format!("format tag is not {format:?}")));
        }
        family.check(doc.u64("version")?).map_err(|e| doc.bad(e))?;
        Ok(doc)
    }

    fn bad(&self, err: impl std::fmt::Display) -> WorkError {
        WorkError::protocol(self.context, err)
    }

    fn field(&self, name: &str) -> Result<&JsonValue, WorkError> {
        let obj = json::as_obj(&self.doc, "$").map_err(|e| self.bad(e))?;
        json::get_field(obj, &self.doc, name).map_err(|e| self.bad(e))
    }

    pub(crate) fn str(&self, name: &str) -> Result<&str, WorkError> {
        json::as_str(self.field(name)?, name).map_err(|e| self.bad(e))
    }

    pub(crate) fn u64(&self, name: &str) -> Result<u64, WorkError> {
        json::as_u64(self.field(name)?, name).map_err(|e| self.bad(e))
    }

    pub(crate) fn num(&self, name: &str) -> Result<f64, WorkError> {
        json::as_num(self.field(name)?, name).map_err(|e| self.bad(e))
    }

    pub(crate) fn bool(&self, name: &str) -> Result<bool, WorkError> {
        as_bool(self.field(name)?, name).map_err(|e| self.bad(e))
    }

    /// An optional integer field; `default` when absent.
    pub(crate) fn u64_or(&self, name: &str, default: u64) -> Result<u64, WorkError> {
        match self.field(name) {
            Ok(v) => json::as_u64(v, name).map_err(|e| self.bad(e)),
            Err(_) => Ok(default),
        }
    }

    /// An optional bool field; `default` when absent.
    pub(crate) fn bool_or(&self, name: &str, default: bool) -> Result<bool, WorkError> {
        match self.field(name) {
            Ok(v) => as_bool(v, name).map_err(|e| self.bad(e)),
            Err(_) => Ok(default),
        }
    }

    /// A string-array field.
    pub(crate) fn strings(&self, name: &str) -> Result<Vec<String>, WorkError> {
        json::as_arr(self.field(name)?, name)
            .map_err(|e| self.bad(e))?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                json::as_str(v, &format!("{name}[{i}]"))
                    .map(str::to_string)
                    .map_err(|e| self.bad(e))
            })
            .collect()
    }

    /// The `cells` array.
    pub(crate) fn cells(&self) -> Result<Vec<CellRow>, WorkError> {
        json::as_arr(self.field("cells")?, "cells")
            .map_err(|e| self.bad(e))?
            .iter()
            .enumerate()
            .map(|(i, v)| cell_parse(v, &format!("cells[{i}]")).map_err(|e| self.bad(e)))
            .collect()
    }
}

fn as_bool(v: &JsonValue, name: &str) -> Result<bool, String> {
    match v.json {
        Json::Bool(b) => Ok(b),
        _ => Err(format!(
            "{name}: expected bool, found {}",
            v.json.type_name()
        )),
    }
}

/// One row of a `cells` array; `ctx` names it in errors (`cells[3]`).
fn cell_parse(cv: &JsonValue, ctx: &str) -> Result<CellRow, String> {
    let schema = |e: json::FileFormatError| e.to_string();
    let path = |name: &str| format!("{ctx}.{name}");
    let cobj = json::as_obj(cv, ctx).map_err(schema)?;
    let cfield = |name: &str| json::get_field(cobj, cv, name).map_err(schema);
    let status_str = json::as_str(cfield("status")?, &path("status")).map_err(schema)?;
    let status = CellStatus::parse(status_str)
        .ok_or_else(|| format!("{ctx}: unknown status {status_str:?}"))?;
    Ok(CellRow {
        job: json::as_u64(cfield("job")?, &path("job")).map_err(schema)? as usize,
        label: json::as_str(cfield("label")?, &path("label"))
            .map_err(schema)?
            .into(),
        solver: json::as_str(cfield("solver")?, &path("solver"))
            .map_err(schema)?
            .into(),
        status,
        makespan: json::as_num(cfield("makespan")?, &path("makespan")).map_err(schema)?,
        combined_lb: json::as_num(cfield("lb")?, &path("lb")).map_err(schema)?,
    })
}
