//! The correctness gate: an in-process [`Engine`] built from the same
//! seeded rows and config as the server, and reply comparison.

use pfe_engine::wire::{answer_to_json, query_from_json};
use pfe_engine::{Engine, EngineConfig, Json};

use crate::gen::D;

/// Every engine in the benchmark: library defaults with 2 shards.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        ..Default::default()
    }
}

/// The wire `start` request matching [`engine_config`].
pub const START: &str = r#"{"op":"start","d":12,"q":2,"shards":2}"#;

/// A reply with the fields that legitimately differ between two correct
/// answers removed: the cache outcome, the planner group size (a batch
/// shares one compute among queries with equal keys), and the trace
/// echo. `None` if not JSON.
pub fn canonical(reply: &[u8]) -> Option<String> {
    let mut json = Json::parse(std::str::from_utf8(reply).ok()?).ok()?;
    if let Json::Obj(m) = &mut json {
        m.remove("cached");
        m.remove("group_size");
        m.remove("trace_id");
    }
    Some(json.to_string())
}

pub fn is_ok(reply: &[u8]) -> bool {
    let s = String::from_utf8_lossy(reply);
    s.contains("\"ok\":true")
}

/// The epoch a statistic reply was answered at.
pub fn epoch_of(reply: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(reply).ok()?;
    let rest = s.split("\"epoch\":").nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

pub struct Reference {
    pub engine: Engine,
}

impl Reference {
    pub fn new() -> Result<Self, String> {
        let engine = Engine::start(D, 2, engine_config()).map_err(|e| e.to_string())?;
        Ok(Self { engine })
    }

    /// Push rows exactly as the server's `ingest` op does: dense, in order.
    pub fn push(&self, rows: &[u64]) -> Result<(), String> {
        let flat: Vec<u16> = rows
            .iter()
            .flat_map(|&r| (0..D).map(move |j| (r >> j & 1) as u16))
            .collect();
        self.engine
            .push_dense_batch(&flat)
            .map_err(|e| e.to_string())
    }

    /// Publish a snapshot; returns its epoch.
    pub fn refresh(&self) -> Result<u64, String> {
        self.engine
            .refresh()
            .map(|s| s.epoch())
            .map_err(|e| e.to_string())
    }

    /// The reply the server should send for `line`, as a JSON object.
    pub fn answer(&self, line: &str) -> Result<Json, String> {
        let req = Json::parse(line).map_err(|e| e.to_string())?;
        let query = query_from_json(&req)?;
        let answer = self.engine.query(&query).map_err(|e| e.to_string())?;
        Ok(answer_to_json(&answer, 2))
    }

    /// The exact reply bytes for `line` with `"cached":false` and with
    /// `"cached":true`.
    pub fn expected_pair(&self, line: &str) -> Result<(Vec<u8>, Vec<u8>), String> {
        let mut json = self.answer(line)?;
        let mut variant = |cached: bool| {
            if let Json::Obj(m) = &mut json {
                m.insert("cached".into(), Json::Bool(cached));
            }
            json.to_string().into_bytes()
        };
        Ok((variant(false), variant(true)))
    }

    /// The canonical expected reply for `line`.
    pub fn expected(&self, line: &str) -> Result<String, String> {
        let json = self.answer(line)?;
        canonical(json.to_string().as_bytes()).ok_or_else(|| "unparsable answer".into())
    }
}

/// Failure accounting for one run: every request or CLI call attempted,
/// those that failed or were refused, and those answered wrongly.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.first_error.get_or_insert_with(|| msg.into());
    }

    pub fn wrong(&mut self, msg: impl Into<String>) {
        self.wrong += 1;
        self.first_error.get_or_insert_with(|| msg.into());
    }

    /// Check one statistic reply against its expected bytes.
    pub fn check(&mut self, reply: &[u8], expected: &(Vec<u8>, Vec<u8>)) {
        self.attempted += 1;
        if reply == expected.0.as_slice() || reply == expected.1.as_slice() {
            return;
        }
        if !is_ok(reply) {
            self.fail(String::from_utf8_lossy(reply).into_owned());
        } else if canonical(reply) != canonical(&expected.0) {
            self.wrong(format!(
                "reply {} != expected {}",
                String::from_utf8_lossy(reply),
                String::from_utf8_lossy(&expected.0)
            ));
        }
    }

    /// Compare canonical replies.
    pub fn compare(&mut self, what: &str, got: &[u8], want: &str) {
        self.attempted += 1;
        if !is_ok(got) {
            self.fail(format!("{what}: {}", String::from_utf8_lossy(got)));
        } else if canonical(got).as_deref() != Some(want) {
            self.wrong(format!(
                "{what}: {} != {want}",
                String::from_utf8_lossy(got)
            ));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64
    }
}
