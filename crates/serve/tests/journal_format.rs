//! Pins the on-disk bytes of both write-ahead journals.
//!
//! The fixtures below are journals exactly as earlier releases wrote
//! them. Each test checks both directions: writing the same records
//! today produces the same bytes, and resuming the fixture loads the
//! same entries. A journal written by one build must stay resumable by
//! the next.

use std::collections::BTreeMap;
use std::path::PathBuf;

use sdem_exec::{CheckpointJournal, QuarantinedOutcome, SweepRunner, TrialCtx, TrialFailure};
use sdem_serve::{JournalHeader, ReplayJournal};

/// A sweep checkpoint: header, one `ok` record, one `fault` record whose
/// detail holds quotes, `\n`, `\t` and a control character.
const CHECKPOINT: &str = concat!(
    r#"{"sdem_checkpoint":1,"grid_seed":"0x0000000000005eed","points":1,"replications":2}"#,
    "\n",
    r#"{"trial":0,"ok":"bddc1d515b1bb203"}"#,
    "\n",
    r#"{"trial":1,"fault":{"trial":1,"point":0,"replicate":1,"grid_seed":"0x0000000000005eed","#,
    r#""seed":"0x9c86f4d36d202932","kind":"solver-panic","#,
    r#""detail":"said \"no\"\nthen\tleft\u0001","config":"--tasks 3 --note \"q\""}}"#,
    "\n",
);

/// A replay journal: header, then two `seq` records holding escaped quotes.
const REPLAY: &str = concat!(
    r#"{"sdem_replay":1,"trace":"seed=0x7ace,sets=4,tasks=6,poisson=0.25,shapes=32","#,
    r#""chaos":"seed=0x0dd5,panics=2","events":2}"#,
    "\n",
    r#"{"seq":0,"line":"{\"v\":1,\"id\":0,\"ok\":true,\"note\":\"with \\\"quotes\\\"\"}"}"#,
    "\n",
    r#"{"seq":1,"line":"{\"v\":1,\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad-request\","#,
    r#"\"detail\":\"a \\\\ b \\\"c\\\"\"}}"}"#,
    "\n",
);

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdem-journal-format-{name}-{}", std::process::id()))
}

fn trial(point: &u64, ctx: &TrialCtx, _: &mut ()) -> Result<u64, TrialFailure> {
    match ctx.trial_index() {
        0 => Ok(point ^ ctx.seed(0)),
        _ => Err(
            TrialFailure::new("solver-panic", "said \"no\"\nthen\tleft\u{1}")
                .with_seed(ctx.seed(2))
                .with_config("--tasks 3 --note \"q\""),
        ),
    }
}

fn checkpointed(journal: &mut CheckpointJournal) -> QuarantinedOutcome<u64> {
    SweepRunner::new()
        .with_threads(1)
        .try_run_checkpointed_with_state(
            &[7u64],
            2,
            0x5eed,
            || (),
            trial,
            |v: &u64| format!("{v:016x}"),
            |s: &str| u64::from_str_radix(s, 16).ok(),
            journal,
        )
        .expect("no fatal error")
}

#[test]
fn checkpoint_bytes_and_entries_match_the_pinned_fixture() {
    let path = temp_path("checkpoint");
    let fresh = checkpointed(&mut CheckpointJournal::new(&path));
    let written = std::fs::read_to_string(&path).expect("journal written");
    assert_eq!(written, CHECKPOINT, "checkpoint bytes drifted");

    std::fs::write(&path, CHECKPOINT).expect("write fixture");
    let mut journal = CheckpointJournal::resume(&path).expect("fixture resumes");
    assert_eq!(journal.preloaded(), 2);
    let resumed = checkpointed(&mut journal);
    assert_eq!(resumed.per_point, fresh.per_point);
    assert_eq!(resumed.quarantine, fresh.quarantine);
    assert_eq!(resumed.quarantine[0].detail, "said \"no\"\nthen\tleft\u{1}");
    assert_eq!(
        std::fs::read_to_string(&path).expect("journal kept"),
        CHECKPOINT,
        "a fully preloaded resume appends nothing"
    );
    std::fs::remove_file(&path).ok();
}

fn replay_header() -> JournalHeader {
    JournalHeader {
        trace: "seed=0x7ace,sets=4,tasks=6,poisson=0.25,shapes=32".into(),
        chaos: "seed=0x0dd5,panics=2".into(),
        events: 2,
    }
}

fn replay_lines() -> BTreeMap<u64, String> {
    BTreeMap::from([
        (
            0,
            "{\"v\":1,\"id\":0,\"ok\":true,\"note\":\"with \\\"quotes\\\"\"}".to_string(),
        ),
        (
            1,
            "{\"v\":1,\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad-request\",\
             \"detail\":\"a \\\\ b \\\"c\\\"\"}}"
                .to_string(),
        ),
    ])
}

#[test]
fn replay_bytes_and_entries_match_the_pinned_fixture() {
    let path = temp_path("replay");
    let journal = ReplayJournal::create(&path, replay_header()).expect("create");
    for (seq, line) in replay_lines() {
        journal.append(seq, &line);
    }
    assert!(journal.take_error().is_none());
    drop(journal);
    let written = std::fs::read_to_string(&path).expect("journal written");
    assert_eq!(written, REPLAY, "replay journal bytes drifted");

    std::fs::write(&path, REPLAY).expect("write fixture");
    let mut journal = ReplayJournal::resume(&path, &replay_header()).expect("fixture resumes");
    assert_eq!(journal.header(), &replay_header());
    assert_eq!(journal.take_entries(), replay_lines());
    std::fs::remove_file(&path).ok();
}
