//! End-to-end tests of the `classfuzz` binary, spawned as a subprocess via
//! the `CARGO_BIN_EXE_*` path Cargo provides to integration tests.

use std::path::PathBuf;
use std::process::{Command, Output};

fn classfuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_classfuzz"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("classfuzz-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_prints_usage() {
    let out = classfuzz(&["help"]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("usage: classfuzz"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = classfuzz(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn mistyped_flag_fails_and_names_it() {
    let out = classfuzz(&["fuzz", "--seeds", "3", "--iteration", "5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--iteration"), "{stderr}");
    assert!(stderr.contains("usage: classfuzz"), "{stderr}");
}

#[test]
fn fuzz_rejects_a_positional() {
    let out = classfuzz(&["fuzz", "--seeds", "3", "--iterations", "5", "stray.class"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stray.class"), "{stderr}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = classfuzz(&["disasm", "/no/such/file.class"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn seeds_then_disasm_run_diff_jimple() {
    let dir = temp_dir("seeds");
    let out = classfuzz(&["seeds", "--out", dir.to_str().unwrap(), "--count", "5"]);
    assert!(
        out.status.success(),
        "seeds failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut classfiles: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    classfiles.sort();
    assert_eq!(classfiles.len(), 5);
    let first = classfiles[0].to_str().unwrap();

    let out = classfuzz(&["disasm", first]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("major version: 51"));

    let out = classfuzz(&["jimple", first]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("class "));

    let out = classfuzz(&["run", first, "--vm", "gij"]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("GIJ"));

    let out = classfuzz(&["diff", first]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("encoded: "));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_writes_triggers_and_reduce_minimizes_one() {
    let dir = temp_dir("fuzz");
    let out = classfuzz(&[
        "fuzz",
        "--seeds",
        "20",
        "--iterations",
        "250",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "fuzz failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let triggers: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "class"))
        .collect();
    assert!(
        !triggers.is_empty(),
        "a 250-iteration campaign should find triggers"
    );

    // Every written trigger must re-trigger when replayed through `diff`.
    let first = triggers[0].to_str().unwrap();
    let out = classfuzz(&["diff", first]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("[DISCREPANCY]"));

    // Reduce it; the output file must still trigger the same discrepancy.
    let reduced = dir.join("reduced.class");
    let out = classfuzz(&["reduce", first, "--out", reduced.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "reduce failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = classfuzz(&["diff", reduced.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("[DISCREPANCY]"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_exec_diff_reports_execution_verdicts() {
    let dir = temp_dir("execdiff");
    let out = classfuzz(&[
        "fuzz",
        "--seeds",
        "12",
        "--iterations",
        "150",
        "--exec-diff",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "fuzz --exec-diff failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The execution-differencing summary prints even when no divergence is
    // found; finding one is covered deterministically at the library level
    // (tests/exec_diff.rs).
    assert!(
        stdout_of(&out).contains("diverge only at execution"),
        "missing exec summary: {}",
        stdout_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reduce_refuses_non_triggering_input() {
    let dir = temp_dir("noreduce");
    classfuzz(&["seeds", "--out", dir.to_str().unwrap(), "--count", "1"]);
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let out = classfuzz(&["reduce", file.to_str().unwrap()]);
    // Seed #0 is a valid class: no discrepancy and no crash, reduce must
    // decline.
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("triggers neither a discrepancy (startup or execution) nor a VM crash"));
    let _ = std::fs::remove_dir_all(&dir);
}
