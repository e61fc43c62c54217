//! Sweep checkpoint journal: a line-oriented log of finished trials.
//!
//! The journal is written incrementally while a quarantined sweep runs
//! (one line per finished trial, flushed immediately) so a killed sweep
//! can be resumed with `--resume`: already-journaled trials are loaded
//! back verbatim and only the remainder is executed. Because per-trial
//! seeds are derived — never sequential — the resumed run is
//! bit-identical to an uninterrupted one regardless of where the
//! original was interrupted or how many workers either run used.
//!
//! File format (a write-ahead [`journal`](crate::journal) with this
//! header and these records):
//!
//! ```text
//! {"sdem_checkpoint":1,"grid_seed":"0x…","points":P,"replications":R}
//! {"trial":7,"ok":"<domain-encoded result>"}
//! {"trial":9,"fault":{…quarantine record…}}
//! ```
//!
//! A torn tail from a hard kill is skipped on resume; its trial reruns.

use std::path::{Path, PathBuf};

use sdem_obs::json::{self, Value};

use crate::fault::{usize_at, QuarantineRecord, SweepError, TrialFailure};
use crate::journal::Journal;
use crate::Slot;

/// Magic first-line key identifying a sweep checkpoint file.
const HEADER_KEY: &str = "sdem_checkpoint";
/// Checkpoint format version this build reads and writes.
const FORMAT_VERSION: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    grid_seed: u64,
    points: usize,
    replications: usize,
}

impl Header {
    fn to_line(self) -> String {
        format!(
            "{{\"{HEADER_KEY}\":{FORMAT_VERSION},\"grid_seed\":\"{:#018x}\",\"points\":{},\"replications\":{}}}",
            self.grid_seed, self.points, self.replications
        )
    }

    fn from_json(doc: &Value) -> Option<Self> {
        if doc.get(HEADER_KEY).and_then(Value::as_u64)? != FORMAT_VERSION {
            return None;
        }
        Some(Self {
            grid_seed: doc.get("grid_seed").and_then(Value::as_hex_u64)?,
            points: usize_at(doc, "points")?,
            replications: usize_at(doc, "replications")?,
        })
    }
}

/// One journaled trial: its index and its outcome, a successful result
/// still in its journaled encoding.
fn entry_from_json(doc: &Value) -> Option<(usize, Result<String, TrialFailure>)> {
    let trial = usize_at(doc, "trial")?;
    if let Some(encoded) = doc.get("ok").and_then(Value::as_str) {
        return Some((trial, Ok(encoded.to_string())));
    }
    let record = QuarantineRecord::from_json(doc.get("fault")?)?;
    let failure = TrialFailure::new(record.kind, record.detail)
        .with_seed(record.seed)
        .with_config(record.config);
    Some((trial, Err(failure)))
}

/// Incremental journal of finished sweep trials, for checkpoint/resume.
///
/// Create a fresh journal with [`CheckpointJournal::new`] (truncates any
/// existing file when the sweep starts) or load a previous run's journal
/// with [`CheckpointJournal::resume`]. Pass it to
/// `SweepRunner::try_run_checkpointed_with_state`, which journals every
/// newly finished trial and skips the preloaded ones.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    /// The interrupted run's header, when resumed.
    resumed: Option<Header>,
    entries: Vec<(usize, Result<String, TrialFailure>)>,
    /// Open once the sweep starts (fresh) or once loaded (resumed).
    journal: Option<Journal>,
}

impl CheckpointJournal {
    /// A fresh journal at `path`. The file is created (truncating any
    /// previous contents) when the sweep starts.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            resumed: None,
            entries: Vec::new(),
            journal: None,
        }
    }

    /// Loads the journal of an interrupted sweep from `path`.
    ///
    /// Unparsable lines (torn tails from a hard kill) are skipped — the
    /// corresponding trials rerun. Fails if the file cannot be read or
    /// does not start with a checkpoint header.
    pub fn resume(path: impl Into<PathBuf>) -> Result<Self, SweepError> {
        let path = path.into();
        let mut entries = Vec::new();
        let (journal, header) = Journal::resume(
            &path,
            |doc| {
                Header::from_json(doc)
                    .ok_or_else(|| "missing or unreadable checkpoint header".to_string())
            },
            |doc| entries.extend(entry_from_json(doc)),
        )?;
        Ok(Self {
            path,
            resumed: Some(header),
            entries,
            journal: Some(journal),
        })
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of finished trials loaded from the journal on resume.
    pub fn preloaded(&self) -> usize {
        self.entries.len()
    }

    /// Validates the journal against the sweep's dimensions and converts
    /// loaded entries into preloaded slots; a fresh journal is created
    /// with its header instead.
    pub(crate) fn prepare<T>(
        &mut self,
        grid_seed: u64,
        points: usize,
        replications: usize,
        decode: &(impl Fn(&str) -> Option<T> + ?Sized),
    ) -> Result<Vec<(usize, Slot<T>)>, SweepError> {
        let header = Header {
            grid_seed,
            points,
            replications,
        };
        let Some(stored) = self.resumed else {
            self.journal = Some(Journal::create(&self.path, &header.to_line())?);
            return Ok(Vec::new());
        };
        if stored != header {
            return Err(SweepError::CheckpointMismatch {
                detail: format!(
                    "checkpoint recorded grid_seed {:#x}, {} points × {} reps; \
                     this sweep has grid_seed {:#x}, {} points × {} reps",
                    stored.grid_seed,
                    stored.points,
                    stored.replications,
                    header.grid_seed,
                    header.points,
                    header.replications
                ),
            });
        }
        let path = &self.path;
        self.entries
            .drain(..)
            .map(|(trial, entry)| match entry {
                Ok(encoded) => decode(&encoded)
                    .map(|value| (trial, Slot::Done(value)))
                    .ok_or_else(|| SweepError::Checkpoint {
                        path: path.display().to_string(),
                        detail: format!("trial {trial}: undecodable journaled result"),
                    }),
                Err(failure) => Ok((trial, Slot::Fault(failure))),
            })
            .collect()
    }

    /// Journals a successful trial; IO errors surface at the end
    /// through [`Self::take_error`].
    pub(crate) fn append_ok(&self, trial: usize, encoded: &str) {
        self.append(&format!(
            "{{\"trial\":{trial},\"ok\":{}}}",
            json::quote(encoded)
        ));
    }

    /// Journals a quarantined trial.
    pub(crate) fn append_fault(&self, trial: usize, record: &QuarantineRecord) {
        self.append(&format!(
            "{{\"trial\":{trial},\"fault\":{}}}",
            record.to_json_line()
        ));
    }

    fn append(&self, line: &str) {
        if let Some(journal) = &self.journal {
            journal.append(line);
        }
    }

    /// First journaling IO error hit during the sweep, if any.
    pub(crate) fn take_error(&self) -> Option<SweepError> {
        self.journal.as_ref()?.take_error().map(SweepError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_from_line(line: &str) -> Option<(usize, Result<String, TrialFailure>)> {
        entry_from_json(&json::parse(line).ok()?)
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            grid_seed: 0xF17_A000,
            points: 3,
            replications: 5,
        };
        let parse = |line: &str| Header::from_json(&json::parse(line).unwrap());
        assert_eq!(parse(&h.to_line()), Some(h));
        assert_eq!(parse("{\"trial\":1,\"ok\":\"x\"}"), None);
    }

    #[test]
    fn entries_round_trip_and_torn_lines_are_skipped() {
        let ok = "{\"trial\":4,\"ok\":\"dead beef\"}";
        assert_eq!(entry_from_line(ok), Some((4, Ok("dead beef".into()))));
        let record = QuarantineRecord {
            trial_index: 9,
            point: 1,
            replicate: 4,
            grid_seed: 3,
            seed: 11,
            kind: "solver-panic".into(),
            detail: "boom".into(),
            config: "--x 1".into(),
        };
        let fault = format!("{{\"trial\":9,\"fault\":{}}}", record.to_json_line());
        let failure = TrialFailure::new("solver-panic", "boom")
            .with_seed(11)
            .with_config("--x 1");
        assert_eq!(entry_from_line(&fault), Some((9, Err(failure))));
        assert_eq!(entry_from_line("{\"trial\":9,\"ok\":\"tor"), None);
        assert_eq!(entry_from_line(""), None);
        // Torn prefixes of the record never parse.
        for cut in 0..fault.len() {
            assert_eq!(entry_from_line(&fault[..cut]), None, "torn prefix {cut}");
        }
    }
}
