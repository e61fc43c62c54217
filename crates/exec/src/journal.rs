//! The one write-ahead JSONL journal, shared by the sweep checkpoint
//! ([`crate::CheckpointJournal`]) and `sdem-serve`'s replay journal.
//!
//! A journal is a header line naming the run, then one JSON record per
//! line, flushed as it is written. A hard kill can tear the last record;
//! [`Journal::resume`] skips every line that does not parse, so a torn
//! record simply reruns. Append IO errors are latched, not raised, and
//! reported by [`Journal::take_error`]. Callers own the header and record
//! codecs, read with [`sdem_obs::json::parse`] and written with
//! [`sdem_obs::json::quote`].

use core::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use sdem_obs::json::{self, Value};
use sdem_types::ErrorKind;

/// A journal could not be created, read, resumed or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// Path of the journal file.
    pub path: String,
    /// What went wrong.
    pub detail: String,
}

impl JournalError {
    fn new(path: &Path, detail: String) -> Self {
        Self {
            path: path.display().to_string(),
            detail,
        }
    }

    /// Every journal failure is a `checkpoint-error`.
    pub const fn kind(&self) -> ErrorKind {
        ErrorKind::CheckpointError
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal {}: {}", self.path, self.detail)
    }
}

impl std::error::Error for JournalError {}

/// An open, append-only journal file (see the [module docs](self)).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// The file and the first append IO error, behind one lock.
    file: Mutex<(BufWriter<File>, Option<String>)>,
}

impl Journal {
    fn open(path: PathBuf, file: BufWriter<File>) -> Self {
        Self {
            path,
            file: Mutex::new((file, None)),
        }
    }

    /// Creates a fresh journal at `path` (truncating any previous file)
    /// whose first line is `header`, flushed.
    pub fn create(path: impl Into<PathBuf>, header: &str) -> Result<Self, JournalError> {
        let path = path.into();
        let err = |detail: String| JournalError::new(&path, detail);
        let mut file = File::create(&path)
            .map(BufWriter::new)
            .map_err(|e| err(format!("cannot create: {e}")))?;
        writeln!(file, "{header}")
            .and_then(|()| file.flush())
            .map_err(|e| err(format!("cannot write header: {e}")))?;
        Ok(Self::open(path, file))
    }

    /// Loads an interrupted run's journal and reopens it for appending.
    ///
    /// `header` decodes the first line, or says why this run cannot
    /// resume it. Every later line that parses is handed to `record` in
    /// file order; the rest (torn tails) are skipped. Fails if the file
    /// cannot be opened or read, is empty, or `header` rejects it.
    pub fn resume<H>(
        path: impl Into<PathBuf>,
        header: impl FnOnce(&Value) -> Result<H, String>,
        mut record: impl FnMut(&Value),
    ) -> Result<(Self, H), JournalError> {
        let path = path.into();
        let err = |detail: String| JournalError::new(&path, detail);
        let file = File::open(&path).map_err(|e| err(format!("cannot open: {e}")))?;
        let mut docs = BufReader::new(file).split(b'\n').map(|line| {
            let line = line.map_err(|e| err(format!("cannot read: {e}")))?;
            Ok(String::from_utf8(line)
                .ok()
                .and_then(|text| json::parse(&text).ok()))
        });
        let first = docs.next().ok_or_else(|| err("file is empty".into()))??;
        let first = first.ok_or_else(|| err("missing or unreadable header".into()))?;
        let header = header(&first).map_err(err)?;
        for doc in docs {
            if let Some(doc) = doc? {
                record(&doc);
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| err(format!("cannot reopen for append: {e}")))?;
        Ok((Self::open(path, BufWriter::new(file)), header))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record line and flushes it; an IO error is latched
    /// for [`Self::take_error`] and the run keeps going.
    pub fn append(&self, record: &str) {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let (writer, latch) = &mut *file;
        if let Err(e) = writeln!(writer, "{record}").and_then(|()| writer.flush()) {
            latch.get_or_insert_with(|| e.to_string());
        }
    }

    /// Takes the first latched append IO error, if any.
    pub fn take_error(&self) -> Option<JournalError> {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let latched = file.1.take()?;
        Some(JournalError::new(
            &self.path,
            format!("write failed: {latched}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdem-exec-journal-{name}-{}", std::process::id()))
    }

    /// Resumes a test journal (header `{"run":…}`), collecting each
    /// record's `n`.
    fn records(path: &Path) -> Result<Vec<u64>, JournalError> {
        let header = |doc: &Value| match doc.get("run") {
            Some(_) => Ok(()),
            None => Err("not a test journal".to_string()),
        };
        let mut records = Vec::new();
        Journal::resume(path, header, |doc| {
            records.extend(doc.get("n").and_then(Value::as_u64));
        })?;
        Ok(records)
    }

    #[test]
    fn torn_and_hostile_lines_are_skipped() {
        let path = temp_path("torn");
        let deep = "[".repeat(200_000);
        let mut bytes = format!("{{\"run\":1}}\n{{\"n\":1}}\n{deep}\n").into_bytes();
        // A record torn inside a multi-byte character is not UTF-8.
        bytes.extend_from_slice(b"{\"n\":2,\"s\":\"\xc3\n{\"n\":3}\n{\"n\":4");
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(records(&path).unwrap(), vec![1, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_files_are_checkpoint_errors() {
        let missing = records(&temp_path("never-created")).unwrap_err();
        assert_eq!(missing.kind(), ErrorKind::CheckpointError);
        assert!(missing.detail.starts_with("cannot open"), "{missing}");

        let path = temp_path("bad");
        for (text, detail) in [
            ("", "file is empty"),
            ("not a journal\n", "missing or unreadable header"),
            ("{\"other\":1}\n", "not a test journal"),
        ] {
            std::fs::write(&path, text).unwrap();
            let e = records(&path).unwrap_err();
            assert_eq!(e.detail, detail);
            assert_eq!(
                e.to_string(),
                format!("journal {}: {detail}", path.display())
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
