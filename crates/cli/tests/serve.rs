//! Process-level tests of the `sdem-cli serve` daemon and the taxonomy
//! exit codes: spawn the real binary, speak the JSONL protocol over its
//! stdin/stdout, kill it (by closing stdin) and restart it.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sdem-cli");

fn run_daemon(args: &[&str], input: &str) -> (String, i32) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdem-cli");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    // Dropping stdin closes the pipe: EOF is the shutdown signal.
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

fn batch() -> String {
    let mut lines = Vec::new();
    for id in 0..24_u64 {
        let tasks = match id % 4 {
            0 => "[[0,0,40,8e6],[1,0,70,1.2e7]]",
            1 => "[[1,0,70,1.2e7],[0,0,40,8e6]]", // permutation of shape 0
            2 => "[[0,0,50,4e6],[1,10,80,6e6],[2,10,90,2e6]]",
            _ => "[[0,0,60,5e6]]",
        };
        lines.push(format!(
            "{{\"v\":1,\"id\":{id},\"scheme\":\"auto\",\"tasks\":{tasks}}}"
        ));
    }
    lines.push("this is not json".to_string());
    lines.push("{\"v\":99,\"id\":24,\"tasks\":[[0,0,60,5e6]]}".to_string());
    lines.join("\n") + "\n"
}

#[test]
fn daemon_drains_at_eof_and_restarts_byte_identically() {
    let input = batch();
    let (first, code) = run_daemon(&["serve", "--workers", "2"], &input);
    assert_eq!(code, 0, "clean drain must exit 0");
    assert_eq!(
        first.lines().count(),
        26,
        "every line answered exactly once:\n{first}"
    );
    assert!(first.contains("\"kind\":\"bad-request\""), "{first}");
    assert!(first.contains("\"ok\":true"), "{first}");

    // Kill-and-restart smoke: a fresh daemon (different worker count)
    // answers the same batch with the same bytes.
    let (second, code) = run_daemon(&["serve", "--workers", "5"], &input);
    assert_eq!(code, 0);
    assert_eq!(first, second, "responses must not depend on worker count");
}

#[test]
fn serve_metrics_exports_request_counters() {
    let dir = std::env::temp_dir().join("sdem-cli-serve-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_metrics.json");
    let mp = path.to_str().unwrap();
    let (_, code) = run_daemon(&["serve", "--workers", "1", "--metrics", mp], &batch());
    assert_eq!(code, 0);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"requests_admitted\": 24"), "{text}");
    assert!(text.contains("\"requests_rejected\": 2"), "{text}");
    assert!(text.contains("\"cache_hits\""), "{text}");
    assert!(text.contains("serve/request_ns"), "{text}");

    // The exported file passes the stats validator.
    let status = Command::new(BIN)
        .args(["stats", "--input", mp, "--check"])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    std::fs::remove_file(&path).ok();
}

fn run_replay(args: &[&str]) -> (String, i32) {
    let out = Command::new(BIN)
        .arg("replay")
        .args(args)
        .stderr(Stdio::null())
        .output()
        .expect("spawn sdem-cli replay");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn replay_resumes_from_its_journal_byte_identically() {
    let dir = std::env::temp_dir().join("sdem-cli-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("replay.journal");
    let jp = journal.to_str().unwrap();
    let trace = "seed=0x7e57,sets=2,tasks=3,poisson=0.3,shapes=8";

    let (clean, code) = run_replay(&["--trace", trace, "--events", "16", "--workers", "1"]);
    assert_eq!(code, 0);
    assert_eq!(clean.lines().count(), 16, "every seq answered:\n{clean}");

    // A journaled run "crashes" (halts) mid-stream…
    std::fs::remove_file(&journal).ok();
    let (partial, code) = run_replay(&[
        "--trace",
        trace,
        "--events",
        "16",
        "--workers",
        "2",
        "--journal",
        jp,
        "--halt-after",
        "6",
    ]);
    assert_eq!(code, 0);
    assert!(clean.starts_with(&partial), "partial output is a prefix");

    // …and a resumed run at yet another worker count replays the rest.
    let (resumed, code) = run_replay(&[
        "--trace",
        trace,
        "--events",
        "16",
        "--workers",
        "4",
        "--resume",
        jp,
    ]);
    assert_eq!(code, 0);
    assert_eq!(
        resumed, clean,
        "resume must be byte-identical to a clean run"
    );

    // --journal and --resume together is a usage error (exit 2).
    let (_, code) = run_replay(&[
        "--trace",
        trace,
        "--events",
        "16",
        "--journal",
        jp,
        "--resume",
        jp,
    ]);
    assert_eq!(code, 2);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn replay_chaos_counters_export_and_validate() {
    let dir = std::env::temp_dir().join("sdem-cli-replay-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay_metrics.json");
    let mp = path.to_str().unwrap();
    let (out, code) = run_replay(&[
        "--events",
        "24",
        "--workers",
        "2",
        "--chaos",
        "seed=0x0dd5,panics=2,poison=1,queue-full=1,latency=2",
        "--metrics",
        mp,
    ]);
    assert_eq!(code, 0, "daemon must survive injected panics");
    assert_eq!(out.lines().count(), 24, "every seq answered once:\n{out}");
    assert!(out.contains("\"kind\":\"worker-panic\""), "{out}");
    assert!(out.contains("\"degraded\":true"), "{out}");

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"serve/worker_restarts\": 2"), "{text}");
    assert!(text.contains("\"serve/degraded_responses\": 1"), "{text}");
    let status = Command::new(BIN)
        .args(["stats", "--input", mp, "--check"])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "exported metrics must pass stats --check");
    std::fs::remove_file(&path).ok();
}

#[test]
fn exit_codes_follow_the_error_taxonomy() {
    // Usage mistakes exit 2.
    let status = Command::new(BIN)
        .arg("frobnicate")
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2));

    // A scheme rejection exits with the scheme-error code (4).
    let dir = std::env::temp_dir().join("sdem-cli-serve-exit");
    std::fs::create_dir_all(&dir).unwrap();
    let tasks = dir.join("staggered.txt");
    let tp = tasks.to_str().unwrap();
    let status = Command::new(BIN)
        .args([
            "generate",
            "--kind",
            "synthetic",
            "--tasks",
            "6",
            "--seed",
            "2",
            "--out",
            tp,
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let status = Command::new(BIN)
        .args([
            "schedule",
            "--input",
            tp,
            "--scheme",
            "cr-alpha-nonzero",
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(4), "scheme-error must exit 4");
    std::fs::remove_file(&tasks).ok();
}

#[test]
fn fallback_with_a_baseline_scheme_is_a_bad_request_listing_every_sdem_scheme() {
    let dir = std::env::temp_dir().join(format!("sdem-cli-fallback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tasks = dir.join("tasks.txt");
    let tp = tasks.to_str().unwrap();
    let status = Command::new(BIN)
        .args([
            "generate",
            "--kind",
            "agreeable",
            "--tasks",
            "4",
            "--seed",
            "7",
        ])
        .args(["--out", tp])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let out = Command::new(BIN)
        .args(["schedule", "--input", tp, "--scheme", "mbkp", "--fallback"])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "bad-request must exit 3: {stderr}"
    );
    assert!(stderr.contains("error[bad-request]"), "{stderr}");
    assert!(stderr.contains("bounded-auto"), "{stderr}");
    assert!(stderr.contains("dag-federated"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_metrics_count_agreeable_blocks_and_bounded_exact_nodes() {
    let dir = std::env::temp_dir().join("sdem-cli-serve-solver-counters");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_metrics.json");
    let mp = path.to_str().unwrap();
    // Twelve agreeable tasks with staggered windows (the DP prunes most
    // candidate blocks) and one bounded-exact request (the B&B counts it).
    let agreeable: Vec<String> = (0..12)
        .map(|i| format!("[{i},{},{},5e6]", 30 * i, 30 * i + 50))
        .collect();
    let input = format!(
        "{{\"v\":1,\"id\":0,\"scheme\":\"agreeable\",\"tasks\":[{}]}}\n\
         {{\"v\":1,\"id\":1,\"scheme\":\"bounded-exact\",\"cores\":2,\
         \"tasks\":[[0,0,80,4e6],[1,0,80,3e6],[2,0,80,2e6],[3,0,80,1e6]]}}\n",
        agreeable.join(",")
    );
    let (out, code) = run_daemon(&["serve", "--workers", "1", "--metrics", mp], &input);
    assert_eq!(code, 0);
    assert_eq!(out.matches("\"ok\":true").count(), 2, "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    let counter = |name: &str| -> u64 {
        let key = format!("\"{name}\": ");
        let at = text
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing:\n{text}"));
        let digits: String = text[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    assert!(counter("agreeable/blocks_solved") > 0, "{text}");
    assert!(counter("agreeable/blocks_pruned") > 0, "{text}");
    assert!(counter("bounded/nodes_expanded") > 0, "{text}");

    let out = Command::new(BIN)
        .args(["stats", "--input", mp, "--check"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let summary = String::from_utf8(out.stdout).unwrap();
    assert!(
        summary.contains("counter agreeable/blocks_pruned"),
        "{summary}"
    );
    assert!(summary.contains("check: OK"), "{summary}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bounded_exact_refusals_keep_their_bytes() {
    // `bounded-exact` is served by the branch-and-bound but keeps the
    // enumerator's limit and error order; its refusals are pinned to the
    // exact bytes the enumerator-backed daemon wrote.
    let request = |id: u64, n: usize, cores: usize| {
        let tasks: Vec<String> = (0..n).map(|k| format!("[{k},0.0,80.0,1e6]")).collect();
        format!(
            "{{\"v\":1,\"id\":{id},\"scheme\":\"bounded-exact\",\"cores\":{cores},\"tasks\":[{}]}}\n",
            tasks.join(",")
        )
    };
    let input = request(0, 15, 4) + &request(1, 3, 0) + &request(2, 15, 0);
    let (out, code) = run_daemon(&["serve", "--workers", "1"], &input);
    assert_eq!(code, 0);
    assert_eq!(
        out,
        "{\"v\":1,\"id\":0,\"ok\":false,\"error\":{\"kind\":\"scheme-error\",\
         \"detail\":\"exact bounded-core solver handles at most 14 tasks, got 15\"}}\n\
         {\"v\":1,\"id\":1,\"ok\":false,\"error\":{\"kind\":\"bad-request\",\
         \"detail\":\"`cores` must be a positive integer\"}}\n\
         {\"v\":1,\"id\":2,\"ok\":false,\"error\":{\"kind\":\"bad-request\",\
         \"detail\":\"`cores` must be a positive integer\"}}\n"
    );
}

#[test]
fn deeply_nested_line_is_a_bad_request_and_the_next_is_answered() {
    let input = format!(
        "{}\n{{\"v\":1,\"id\":7,\"scheme\":\"auto\",\"tasks\":[[0,0,60,5e6]]}}\n",
        "[".repeat(200_000)
    );
    let (out, code) = run_daemon(&["serve", "--workers", "1"], &input);
    assert_eq!(code, 0, "the daemon must survive hostile nesting");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "every line answered exactly once:\n{out}");
    assert!(lines[0].contains("\"id\":null"), "{}", lines[0]);
    assert!(
        lines[0].contains("\"kind\":\"bad-request\""),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"id\":7"), "{}", lines[1]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
}

fn exit_code(args: &[&str]) -> i32 {
    Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn sdem-cli")
        .code()
        .unwrap_or(-1)
}

#[test]
fn journal_failures_exit_with_checkpoint_error_for_sweep_and_replay() {
    let dir = std::env::temp_dir().join(format!("sdem-cli-journal-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("missing.jsonl");
    let mp = missing.to_str().unwrap();
    let sweep = [
        "sweep", "--figure", "fig7a", "--tasks", "6", "--trials", "2",
    ];
    let replay = ["replay", "--events", "8", "--workers", "1"];

    // A journal that does not exist.
    assert_eq!(exit_code(&[&sweep[..], &["--resume", mp]].concat()), 15);
    assert_eq!(exit_code(&[&replay[..], &["--resume", mp]].concat()), 15);

    // A journal written by a different run (header mismatch).
    let ckpt = dir.join("ckpt.jsonl");
    let cp = ckpt.to_str().unwrap();
    let halted = [&sweep[..], &["--checkpoint", cp, "--halt-after", "3"]].concat();
    assert_eq!(exit_code(&halted), 0);
    let other_sweep = [
        "sweep", "--figure", "fig7a", "--tasks", "6", "--trials", "3",
    ];
    assert_eq!(
        exit_code(&[&other_sweep[..], &["--resume", cp]].concat()),
        15
    );

    let journal = dir.join("replay.journal");
    let jp = journal.to_str().unwrap();
    let halted = [&replay[..], &["--journal", jp, "--halt-after", "3"]].concat();
    assert_eq!(exit_code(&halted), 0);
    let other_replay = ["replay", "--events", "9", "--workers", "1"];
    assert_eq!(
        exit_code(&[&other_replay[..], &["--resume", jp]].concat()),
        15
    );

    std::fs::remove_dir_all(&dir).ok();
}
