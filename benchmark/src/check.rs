//! Output checks. A statement's reference is what the naive plan gives on
//! one thread, on the same catalog and view setting; timed results must
//! reproduce it byte for byte.

use assess_core::exec::AssessRunner;
use assess_core::plan::Strategy;
use assess_core::AssessedCube;
use assess_serve::ServerConfig;
use serde::{Serialize, Value};

use crate::json;
use crate::rig::Rig;

/// What a result must reproduce, small enough to keep for every statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub cells: usize,
    pub csv_len: usize,
    pub csv_hash: u64,
}

/// FNV-1a, 64 bit.
fn hash(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

impl Reference {
    pub fn of(cube: &AssessedCube) -> Reference {
        let csv = cube.to_csv();
        Reference { cells: cube.len(), csv_len: csv.len(), csv_hash: hash(csv.as_bytes()) }
    }
}

/// The fields of a `run` response that describe the result, serialized;
/// what a served body must equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    pub cells: u64,
    pub labels: String,
    pub rows: String,
    pub truncated: bool,
}

impl Body {
    /// The body the server builds for `cube` under its default row limit.
    pub fn of(cube: &AssessedCube) -> Body {
        let limit = ServerConfig::default().default_row_limit;
        let labels = Value::Object(
            cube.label_histogram()
                .into_iter()
                .map(|(label, count)| (label, Value::Number(count as f64)))
                .collect(),
        );
        let rows =
            Value::Array((0..cube.len().min(limit)).map(|r| cube.cell(r).to_value()).collect());
        Body {
            cells: cube.len() as u64,
            labels: json::to_string(&labels),
            rows: json::to_string(&rows),
            truncated: cube.len() > limit,
        }
    }

    /// The same fields of a received response; `None` when it is not an
    /// `ok` cells-format `run` response.
    pub fn from_response(response: &Value) -> Option<Body> {
        if !crate::rig::is_ok(response) {
            return None;
        }
        Some(Body {
            cells: response.get("cells")?.as_f64()? as u64,
            labels: json::to_string(response.get("labels")?),
            rows: json::to_string(response.get("rows")?),
            truncated: response.get("truncated")?.as_bool()?,
        })
    }
}

/// Computes references on one thread with the naive plan.
pub struct Referee {
    runner: AssessRunner,
}

impl Referee {
    pub fn new(rig: &Rig) -> Referee {
        Referee { runner: AssessRunner::new(rig.runner.engine().clone().with_thread_cap(1)) }
    }

    pub fn cube(&self, text: &str) -> Result<AssessedCube, String> {
        let statement = assess_sql::parse(text).map_err(|e| format!("reference parse: {e}"))?;
        self.runner
            .run(&statement, Strategy::Naive)
            .map(|(cube, _)| cube)
            .map_err(|e| format!("reference run of `{text}`: {e}"))
    }

    pub fn reference(&self, text: &str) -> Result<Reference, String> {
        self.cube(text).map(|cube| Reference::of(&cube))
    }

    pub fn body(&self, text: &str) -> Result<Body, String> {
        self.cube(text).map(|cube| Body::of(&cube))
    }
}
