//! End-to-end test of the `fairkm` CLI binary: write a CSV, cluster it,
//! parse the assignments back.

use fairkm_data::write_csv;
use fairkm_synth::planted::{PlantedConfig, PlantedGenerator};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fairkm"))
}

fn sample_csv(dir: &std::path::Path) -> std::path::PathBuf {
    let data = PlantedGenerator::new(PlantedConfig {
        n_rows: 120,
        seed: 3,
        ..Default::default()
    })
    .generate()
    .dataset;
    let path = dir.join("planted.csv");
    let mut buf = Vec::new();
    write_csv(&data, &mut buf).unwrap();
    std::fs::write(&path, buf).unwrap();
    path
}

#[test]
fn cluster_subcommand_produces_assignments() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_a");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let output = cli()
        .args([
            "cluster",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "4",
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("row,cluster"));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 120);
    for (i, line) in rows.iter().enumerate() {
        let (row, cluster) = line.split_once(',').expect("two columns");
        assert_eq!(row.parse::<usize>().unwrap(), i);
        assert!(cluster.parse::<usize>().unwrap() < 4);
    }
    // Metrics land on stderr, computed on the views the fit ran on.
    let stderr = String::from_utf8(output.stderr).unwrap();
    let metrics = "\
clustering objective (CO) = 13.2090, silhouette (SH) = 0.8662
fairness (lower = fairer):
  s_0                      AE = 0.6868  AW = 0.7672  ME = 0.9030  MW = 1.2231
  s_1                      AE = 0.6425  AW = 0.7381  ME = 0.8823  MW = 1.2147
  mean                     AE = 0.6646  AW = 0.7526  ME = 0.8927  MW = 1.2189
";
    assert!(stderr.ends_with(metrics), "stderr: {stderr}");
}

#[test]
fn output_flag_writes_file_and_is_deterministic() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_b");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let out1 = dir.join("a1.csv");
    let out2 = dir.join("a2.csv");
    for out in [&out1, &out2] {
        let status = cli()
            .args([
                "cluster",
                "--input",
                input.to_str().unwrap(),
                "--k",
                "3",
                "--seed",
                "11",
                "--lambda",
                "5000",
                "--output",
                out.to_str().unwrap(),
            ])
            .status()
            .unwrap();
        assert!(status.success());
    }
    let a = std::fs::read_to_string(&out1).unwrap();
    let b = std::fs::read_to_string(&out2).unwrap();
    assert_eq!(a, b);
}

#[test]
fn stream_subcommand_replays_a_csv_as_batches() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_stream");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let out = dir.join("live.csv");
    let output = cli()
        .args([
            "stream",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "3",
            "--seed",
            "5",
            "--bootstrap",
            "60",
            "--batch",
            "16",
            "--retain",
            "90",
            "--output",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("bootstrap: 60 rows"), "stderr: {stderr}");
    assert!(stderr.contains("stream done"), "stderr: {stderr}");
    // 120 rows, bootstrap 60, stream 60, retained at most 90 live.
    let live = std::fs::read_to_string(&out).unwrap();
    let mut lines = live.lines();
    assert_eq!(lines.next(), Some("row,cluster"));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 90);
    for line in &rows {
        let (row, cluster) = line.split_once(',').expect("two columns");
        assert!(row.parse::<usize>().unwrap() < 120);
        assert!(cluster.parse::<usize>().unwrap() < 3);
    }
    // Determinism: the same invocation reproduces the same live set.
    let rerun = cli()
        .args([
            "stream",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "3",
            "--seed",
            "5",
            "--bootstrap",
            "60",
            "--batch",
            "16",
            "--retain",
            "90",
        ])
        .output()
        .unwrap();
    assert!(rerun.status.success());
    assert_eq!(String::from_utf8_lossy(&rerun.stdout), live);
}

/// Planted workload with a **binary** sensitive attribute (fairlet
/// decomposition is defined for binary colors only).
fn binary_csv(dir: &std::path::Path) -> std::path::PathBuf {
    let data = PlantedGenerator::new(PlantedConfig {
        n_rows: 80,
        cardinality: 2,
        seed: 9,
        ..Default::default()
    })
    .generate()
    .dataset;
    let path = dir.join("planted_binary.csv");
    let mut buf = Vec::new();
    write_csv(&data, &mut buf).unwrap();
    std::fs::write(&path, buf).unwrap();
    path
}

#[test]
fn objective_flag_selects_the_fairness_objective() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_objective");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let mut outputs = Vec::new();
    for objective in ["representativity", "bounded", "utilitarian", "egalitarian"] {
        let run = || {
            let output = cli()
                .args([
                    "cluster",
                    "--input",
                    input.to_str().unwrap(),
                    "--k",
                    "3",
                    "--seed",
                    "7",
                    "--objective",
                    objective,
                ])
                .output()
                .unwrap();
            assert!(
                output.status.success(),
                "--objective {objective} stderr: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(
                String::from_utf8_lossy(&output.stderr)
                    .contains(&format!("objective = {objective}")),
                "stderr must name the active objective"
            );
            String::from_utf8(output.stdout).unwrap()
        };
        let first = run();
        assert_eq!(
            first,
            run(),
            "--objective {objective} must be deterministic"
        );
        assert_eq!(first.lines().count(), 121);
        outputs.push(first);
    }
    // Explicit bounds reach the bounded objective.
    let bounded = cli()
        .args([
            "cluster",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "3",
            "--seed",
            "7",
            "--objective",
            "bounded",
            "--bounds",
            "0.5,2.0",
        ])
        .output()
        .unwrap();
    assert!(
        bounded.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&bounded.stderr)
    );
}

#[test]
fn invalid_objective_arguments_are_rejected() {
    // Parse-level rejections (never reach the input file).
    for args in [
        ["--objective", "fairness"].as_slice(),
        ["--bounds", "0.8"].as_slice(),
        ["--bounds", "lo,hi"].as_slice(),
        // --bounds without the bounded objective
        ["--bounds", "0.8,1.25"].as_slice(),
        // --objective is a FairKM flag
        ["--objective", "utilitarian", "--algorithm", "kmeans"].as_slice(),
    ] {
        let output = cli()
            .args(["cluster", "--input", "x.csv"])
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?} should be rejected");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("usage"),
            "{args:?} should print usage"
        );
    }

    // Invalid multipliers parse fine but are rejected by the core config
    // validation (lower must not exceed 1 ≤ upper), on a real input.
    let dir = std::env::temp_dir().join("fairkm_cli_test_bad_bounds");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let output = cli()
        .args([
            "cluster",
            "--input",
            input.to_str().unwrap(),
            "--objective",
            "bounded",
            "--bounds",
            "1.5,0.5",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("bounded-representation"),
        "core validation message expected"
    );
}

#[test]
fn stream_monitors_the_active_objective() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_stream_objective");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let run = || {
        let output = cli()
            .args([
                "stream",
                "--input",
                input.to_str().unwrap(),
                "--k",
                "3",
                "--seed",
                "5",
                "--bootstrap",
                "60",
                "--batch",
                "16",
                "--objective",
                "bounded",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr).to_string();
        assert!(output.status.success(), "stderr: {stderr}");
        (String::from_utf8(output.stdout).unwrap(), stderr)
    };
    let (stdout, stderr) = run();
    assert!(
        stderr.contains("fairness objective = bounded"),
        "stderr: {stderr}"
    );
    // Monitor lines report the active objective's own metric next to AE.
    assert!(stderr.contains("bounded = "), "stderr: {stderr}");
    assert_eq!(run().0, stdout, "bounded streaming must be deterministic");
}

#[test]
fn fairlet_algorithm_runs_on_binary_data_and_is_deterministic() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_fairlet");
    std::fs::create_dir_all(&dir).unwrap();
    let input = binary_csv(&dir);
    let run = || {
        let output = cli()
            .args([
                "cluster",
                "--input",
                input.to_str().unwrap(),
                "--k",
                "3",
                "--seed",
                "11",
                "--algorithm",
                "fairlet",
                "--fairlet-t",
                "3",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr).to_string();
        assert!(output.status.success(), "stderr: {stderr}");
        (String::from_utf8(output.stdout).unwrap(), stderr)
    };
    let (stdout, stderr) = run();
    assert!(stderr.contains("fairlet:"), "stderr: {stderr}");
    assert!(stderr.contains("balance >= 1/3"), "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 81);
    assert_eq!(run().0, stdout, "fixed seed must reproduce assignments");

    // Non-binary sensitive data is rejected with the baseline's error.
    let ternary = sample_csv(&dir);
    let output = cli()
        .args([
            "cluster",
            "--input",
            ternary.to_str().unwrap(),
            "--algorithm",
            "fairlet",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
}

#[test]
fn bad_arguments_fail_with_usage() {
    let output = cli().args(["cluster"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));

    let output = cli().args(["fit"]).output().unwrap();
    assert!(!output.status.success());

    let output = cli()
        .args(["cluster", "--input", "/nonexistent/file.csv"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot open"));
}

#[test]
fn kmeans_algorithm_flag_works() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_c");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let output = cli()
        .args([
            "cluster",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "4",
            "--algorithm",
            "kmeans",
            "--normalization",
            "minmax",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert_eq!(String::from_utf8_lossy(&output.stdout).lines().count(), 121);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let metrics = "clustering objective (CO) = 1.2495, silhouette (SH) = 0.8701\n";
    assert!(stderr.contains(metrics), "stderr: {stderr}");
}

#[test]
fn threads_and_minibatch_flags_are_thread_count_invariant() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_d");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let run = |threads: &str| {
        let output = cli()
            .args([
                "cluster",
                "--input",
                input.to_str().unwrap(),
                "--k",
                "3",
                "--seed",
                "5",
                "--minibatch",
                "auto",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    // Same seed, different worker counts: assignments must match exactly.
    assert_eq!(run("1"), run("4"));
}

#[test]
fn invalid_threads_and_minibatch_values_are_rejected() {
    for args in [
        ["--threads", "0"],
        ["--threads", "many"],
        ["--minibatch", "0"],
        ["--minibatch", "sometimes"],
    ] {
        let output = cli()
            .args(["cluster", "--input", "x.csv", args[0], args[1]])
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?} should be rejected");
        assert!(String::from_utf8_lossy(&output.stderr).contains(args[0]));
    }
}

#[test]
fn shard_subcommand_verifies_bitwise_agreement() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_shard");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let output = cli()
        .args([
            "shard",
            "--input",
            input.to_str().unwrap(),
            "--shards",
            "3",
            "--block",
            "16",
            "--k",
            "4",
            "--seed",
            "7",
            "--bootstrap",
            "60",
            "--batch",
            "20",
            "--retain",
            "90",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("shard replay done"), "stderr: {stderr}");
    assert!(
        stderr.contains(
            "objective = bitwise, trace = bitwise, assignments = bitwise, replicas = agree"
        ),
        "agreement line missing: {stderr}"
    );
    // live assignments land on stdout
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert_eq!(stdout.lines().next(), Some("row,cluster"));
    assert_eq!(stdout.lines().count(), 91, "header + 90 retained live rows");
}

#[test]
fn shard_subcommand_requires_shard_count() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_shard_err");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let output = cli()
        .args(["shard", "--input", input.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("--shards is required"), "stderr: {stderr}");
}

/// A shard replay is volatile and unmonitored: the durability and
/// monitor flags of `stream` are refused by name instead of ignored, and
/// no state directory is created.
#[test]
fn shard_subcommand_rejects_stream_only_flags() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_shard_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let state_dir = dir.join("state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let state = state_dir.to_str().unwrap();
    for extra in [
        &["--state-dir", state][..],
        &["--state-dir", state, "--snapshot-every", "2"],
        &["--state-dir", state, "--resume"],
        &["--monitor-window", "4"],
        &["--monitor-every", "3"],
    ] {
        let output = cli()
            .args(["shard", "--input", input.to_str().unwrap(), "--shards", "2"])
            .args(["--k", "4", "--bootstrap", "60", "--batch", "20"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(!output.status.success(), "{extra:?} should be rejected");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains(&format!("{} is not supported", extra[0])),
            "{extra:?}: {stderr}"
        );
        assert!(!state_dir.exists(), "{extra:?} created the state dir");
    }
}

/// Write the planted dataset twice: the full 120 rows and a 72-row
/// prefix. 72 = bootstrap 40 + two full batches of 16, so the partial
/// run's batch boundaries line up exactly with the full run's and the
/// resumed continuation takes the same re-optimization decisions.
fn durable_csv_pair(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    let data = PlantedGenerator::new(PlantedConfig {
        n_rows: 120,
        seed: 3,
        ..Default::default()
    })
    .generate()
    .dataset;
    let full = dir.join("full.csv");
    let mut buf = Vec::new();
    write_csv(&data, &mut buf).unwrap();
    std::fs::write(&full, buf).unwrap();
    let idx: Vec<usize> = (0..72).collect();
    let head = data.select_rows(&idx).unwrap();
    let partial = dir.join("partial.csv");
    let mut buf = Vec::new();
    write_csv(&head, &mut buf).unwrap();
    std::fs::write(&partial, buf).unwrap();
    (full, partial)
}

fn stream_args<'a>(input: &'a str, state: &'a str) -> Vec<&'a str> {
    vec![
        "stream",
        "--input",
        input,
        "--k",
        "3",
        "--seed",
        "7",
        "--bootstrap",
        "40",
        "--batch",
        "16",
        "--state-dir",
        state,
        "--snapshot-every",
        "4",
    ]
}

#[test]
fn durable_stream_resume_reproduces_the_uninterrupted_run() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_durable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (full, partial) = durable_csv_pair(&dir);
    let (full, partial) = (full.to_str().unwrap(), partial.to_str().unwrap());
    let state_full = dir.join("state_full");
    let state_part = dir.join("state_part");
    let out_full = dir.join("out_full.csv");
    let out_resumed = dir.join("out_resumed.csv");

    // Uninterrupted durable run over all 120 rows.
    let mut args = stream_args(full, state_full.to_str().unwrap());
    args.extend(["--output", out_full.to_str().unwrap()]);
    let output = cli().args(&args).output().unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("state sealed: snapshot seq"));

    // "Crashed" run: same stream, but the input ends after 72 rows.
    let output = cli()
        .args(stream_args(partial, state_part.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Resume against the full input; the state dir pins the engine
    // config, so --k/--seed/--bootstrap are not repeated.
    let output = cli()
        .args([
            "stream",
            "--input",
            full,
            "--resume",
            "--state-dir",
            state_part.to_str().unwrap(),
            "--batch",
            "16",
            "--output",
            out_resumed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("recovered: snapshot seq"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("resume: 72 rows already processed"),
        "stderr: {stderr}"
    );

    let a = std::fs::read(&out_full).unwrap();
    let b = std::fs::read(&out_resumed).unwrap();
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "resumed assignments diverged from the uninterrupted run"
    );
}

#[test]
fn restore_subcommand_verifies_and_survives_a_corrupt_snapshot() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_restore");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (full, _) = durable_csv_pair(&dir);
    let state = dir.join("state");
    let out_stream = dir.join("out_stream.csv");
    let out_restored = dir.join("out_restored.csv");

    let mut args = stream_args(full.to_str().unwrap(), state.to_str().unwrap());
    args.extend(["--output", out_stream.to_str().unwrap()]);
    let output = cli().args(&args).output().unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Clean state: verify passes file by file and the recovered
    // assignments equal what the stream wrote.
    let output = cli()
        .args([
            "restore",
            "--state-dir",
            state.to_str().unwrap(),
            "--verify",
            "--output",
            out_restored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("verify: recoverable to sequence"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("restored:"), "stderr: {stderr}");
    assert_eq!(
        std::fs::read(&out_stream).unwrap(),
        std::fs::read(&out_restored).unwrap()
    );

    // Flip a byte in the newest snapshot: verify flags it, recovery
    // falls back to the previous snapshot + journal replay, and the
    // assignments still come back identical.
    let newest = std::fs::read_dir(&state)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().into_string().unwrap())
        .filter(|f| f.starts_with("snap-"))
        .max()
        .unwrap();
    let snap_path = state.join(&newest);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap_path, bytes).unwrap();

    let output = cli()
        .args([
            "restore",
            "--state-dir",
            state.to_str().unwrap(),
            "--verify",
            "--output",
            out_restored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("recovered: skipped corrupt snapshot {newest}")),
        "stderr: {stderr}"
    );
    assert_eq!(
        std::fs::read(&out_stream).unwrap(),
        std::fs::read(&out_restored).unwrap(),
        "snapshot-fallback recovery changed the assignments"
    );
}

#[test]
fn snapshot_subcommand_bounds_the_next_replay_to_zero() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (full, _) = durable_csv_pair(&dir);
    let state = dir.join("state");

    let output = cli()
        .args(stream_args(full.to_str().unwrap(), state.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let output = cli()
        .args(["snapshot", "--state-dir", state.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("snapshot: seq"));

    // After an explicit snapshot the next recovery replays nothing.
    let output = cli()
        .args(["restore", "--state-dir", state.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("0 journal entries replayed"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn state_dir_misuse_is_rejected_with_clear_errors() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_state_errors");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (full, _) = durable_csv_pair(&dir);
    let full = full.to_str().unwrap();
    let state = dir.join("state");

    // --resume without --state-dir.
    let output = cli()
        .args(["stream", "--input", full, "--resume"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--resume requires --state-dir"));

    // restore from a directory that holds no stream.
    let empty = dir.join("empty");
    let output = cli()
        .args(["restore", "--state-dir", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("no decodable snapshot"));

    // A fresh stream refuses to clobber an existing state directory.
    let output = cli()
        .args(stream_args(full, state.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(output.status.success());
    let output = cli()
        .args(stream_args(full, state.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("state directory already holds a stream"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn durable_failures_exit_with_stable_codes() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_exit_codes");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (full, _) = durable_csv_pair(&dir);
    let full = full.to_str().unwrap();
    let state = dir.join("state");

    // Exit 5: create refuses to clobber an existing state directory, and
    // the message tells the operator what to do instead.
    let output = cli()
        .args(stream_args(full, state.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(output.status.success());
    let output = cli()
        .args(stream_args(full, state.to_str().unwrap()))
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("hint:"), "stderr: {stderr}");
    assert!(stderr.contains("--resume"), "stderr: {stderr}");

    // `serve` bootstrapping onto the same directory fails identically.
    let tenant = format!("t={}", state.display());
    let output = cli()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--tenant",
            &tenant,
            "--input",
            full,
        ])
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Exit 6: recovery from a directory that holds no stream at all.
    let empty = dir.join("empty");
    let output = cli()
        .args(["restore", "--state-dir", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(6),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--verify"),
        "the unrecoverable hint should point at restore --verify"
    );

    // Exit 6 too for a directory written by an older fairkm: its frames
    // and checksums verify, so the hint names the format instead.
    let old = dir.join("old_format");
    let backend = fairkm::store::FsBackend::open(&old).unwrap();
    let (mut store, _) = fairkm::store::DurableStore::open(backend).unwrap();
    store
        .snapshot(include_bytes!("fixtures/stream_snapshot_untagged.bin"))
        .unwrap();
    drop(store);
    let output = cli()
        .args(["restore", "--state-dir", old.to_str().unwrap(), "--verify"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(6), "stderr: {stderr}");
    assert!(
        stderr.contains("recoverable to sequence"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("unsupported format version"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("older fairkm"), "stderr: {stderr}");

    // Plain flag mistakes stay on the generic exit code 1.
    let output = cli()
        .args(["stream", "--input", full, "--resume"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
}

/// A spawned `fairkm serve` that is SIGKILLed when the test ends (or
/// explicitly, to simulate a crash). Holds the child's stderr pipe open
/// for its whole lifetime — closing it would make the server's own
/// startup logging fail (and the server logs nothing per-request, so the
/// unread remainder can never fill the pipe buffer).
struct ServerProc {
    child: std::process::Child,
    _stderr: Option<std::io::BufReader<std::process::ChildStderr>>,
}

impl ServerProc {
    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// Spawn `fairkm serve` with the given args and wait for its
/// `listening on ADDR` line, returning the bound address.
fn spawn_server(args: &[&str]) -> (ServerProc, String) {
    use std::io::BufRead;
    let mut child = cli()
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let stderr = child.stderr.take().unwrap();
    let mut server = ServerProc {
        child,
        _stderr: None,
    };
    let mut reader = std::io::BufReader::new(stderr);
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            server.kill_now();
            panic!("server exited before listening; stderr so far:\n{seen}");
        }
        seen.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            let addr = rest.to_string();
            server._stderr = Some(reader);
            return (server, addr);
        }
    }
}

fn client_run(addr: &str, tenant: &str, rest: &[&str]) -> std::process::Output {
    cli()
        .args(["client", "--addr", addr, "--tenant", tenant])
        .args(rest)
        .output()
        .expect("binary runs")
}

#[test]
fn serve_and_client_round_trip_and_recover_after_sigkill() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (full, partial) = durable_csv_pair(&dir);
    let (full, partial) = (full.to_str().unwrap(), partial.to_str().unwrap());
    let tenant_a = format!("a={}", dir.join("tenant_a").display());
    let tenant_b = format!("b={}", dir.join("tenant_b").display());

    // Two tenants bootstrapped from the same 72-row CSV: twins.
    let (mut server, addr) = spawn_server(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--tenant",
        &tenant_a,
        "--tenant",
        &tenant_b,
        "--input",
        partial,
        "--k",
        "3",
        "--seed",
        "7",
        "--snapshot-every",
        "4",
    ]);

    // Journal-then-ack writes into both tenants over HTTP.
    for tenant in ["a", "b"] {
        let output = client_run(&addr, tenant, &["ingest", "--input", full]);
        assert!(
            output.status.success(),
            "ingest {tenant}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            String::from_utf8_lossy(&output.stdout).contains("objective_bits"),
            "ingest ack must carry the objective bits"
        );
    }

    // Lock-free reads against the published view.
    let assign_before = client_run(&addr, "a", &["assign", "--input", partial]);
    assert!(
        assign_before.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&assign_before.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&assign_before.stdout)
            .lines()
            .count(),
        72,
        "one assignment line per probe row"
    );

    let stats_of = |addr: &str, tenant: &str| -> String {
        let output = client_run(addr, tenant, &["stats"]);
        assert!(
            output.status.success(),
            "stats {tenant}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    let before_a = stats_of(&addr, "a");
    let before_b = stats_of(&addr, "b");
    assert!(before_a.contains("wedged 0"), "stats: {before_a}");
    assert_eq!(before_a, before_b, "twin tenants must agree bitwise");

    // Crash: SIGKILL mid-flight, no shutdown handshake. Every acked write
    // was journaled first, so nothing acked may be lost.
    server.kill_now();

    let (_server2, addr2) = spawn_server(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--tenant",
        &tenant_a,
        "--tenant",
        &tenant_b,
        "--resume",
    ]);
    assert_eq!(
        stats_of(&addr2, "a"),
        before_a,
        "tenant a diverged across SIGKILL + --resume"
    );
    assert_eq!(
        stats_of(&addr2, "b"),
        before_b,
        "tenant b diverged across SIGKILL + --resume"
    );
    let assign_after = client_run(&addr2, "a", &["assign", "--input", partial]);
    assert!(assign_after.status.success());
    assert_eq!(
        assign_after.stdout, assign_before.stdout,
        "recovered read path must answer bitwise-identically"
    );

    // The recovered tenants accept new mutations.
    let output = client_run(&addr2, "a", &["evict-oldest", "--count", "1"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("evicted 1"));
    let output = client_run(&addr2, "a", &["snapshot"]);
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("seq "));
}

#[test]
fn help_prints_the_usage_and_exit_codes_on_stdout() {
    for flag in ["--help", "help"] {
        let output = cli().arg(flag).output().unwrap();
        assert_eq!(output.status.code(), Some(0), "{flag}");
        assert!(output.stderr.is_empty(), "{flag}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.starts_with("usage: fairkm cluster"), "{stdout}");
        for code in ["0", "1", "3", "4", "5", "6"] {
            assert!(
                stdout.contains(&format!("\n  {code}  ")),
                "exit code {code}: {stdout}"
            );
        }
    }
}

/// Flags a subcommand used to accept and then ignore or silently rewrite
/// are refused as argument errors, before any file or directory is opened.
#[test]
fn ignored_or_rewritten_flags_are_refused() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_refused");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let input = input.to_str().unwrap();
    let state = dir.join("state");
    let tenant = format!("t={}", state.display());
    let state_dir = state.to_str().unwrap();
    // An unbindable listen address: were the flag accepted, `serve` would
    // bootstrap its tenant and then fail instead of serving forever.
    let serve = ["serve", "--listen", "127.0.0.1:99999", "--tenant", &tenant];
    let stream = [
        "stream",
        "--input",
        input,
        "--state-dir",
        state_dir,
        "--resume",
    ];
    // A closed port: were the flag accepted, the client would fail to
    // connect instead.
    let client = ["client", "--addr", "127.0.0.1:9", "--tenant", "t"];
    let resumed = "is ignored by --resume: the engine configuration comes from the state directory";
    let cases: [(Vec<&str>, String); 21] = [
        (
            [&serve[..], &["--input", input, "--output", "x.csv"]].concat(),
            "--output is not supported by `fairkm serve`".to_string(),
        ),
        (
            vec!["snapshot", "--state-dir", state_dir, "--output", "x.csv"],
            "--output is not supported by `fairkm snapshot`".to_string(),
        ),
        (
            vec![
                "cluster",
                "--input",
                input,
                "--algorithm",
                "kmeans",
                "--lambda",
                "5",
            ],
            "--lambda only applies to --algorithm fairkm".to_string(),
        ),
        (
            vec![
                "cluster",
                "--input",
                input,
                "--algorithm",
                "kmeans",
                "--max-iters",
                "2",
            ],
            "--max-iters only applies to --algorithm fairkm".to_string(),
        ),
        (
            vec![
                "cluster",
                "--input",
                input,
                "--algorithm",
                "fairlet",
                "--max-iters",
                "2",
            ],
            "--max-iters only applies to --algorithm fairkm".to_string(),
        ),
        (
            vec!["cluster", "--input", input, "--fairlet-t", "5"],
            "--fairlet-t only applies to --algorithm fairlet".to_string(),
        ),
        (
            vec![
                "cluster",
                "--input",
                input,
                "--algorithm",
                "kmeans",
                "--fairlet-t",
                "5",
            ],
            "--fairlet-t only applies to --algorithm fairlet".to_string(),
        ),
        (
            vec![
                "stream",
                "--input",
                input,
                "--state-dir",
                state_dir,
                "--monitor-window",
                "0",
            ],
            "--monitor-window needs a positive integer".to_string(),
        ),
        (
            [&serve[..], &["--input", input, "--max-pending", "0"]].concat(),
            "--max-pending needs a positive integer".to_string(),
        ),
        (
            [&stream[..], &["--k", "3"]].concat(),
            format!("--k {resumed}"),
        ),
        (
            [&stream[..], &["--objective", "utilitarian"]].concat(),
            format!("--objective {resumed}"),
        ),
        (
            [&stream[..], &["--seed", "4"]].concat(),
            format!("--seed {resumed}"),
        ),
        (
            [&stream[..], &["--drift", "0.5"]].concat(),
            format!("--drift {resumed}"),
        ),
        (
            [&stream[..], &["--reopt-passes", "2"]].concat(),
            format!("--reopt-passes {resumed}"),
        ),
        (
            [&stream[..], &["--bootstrap", "40"]].concat(),
            format!("--bootstrap {resumed}"),
        ),
        (
            [&serve[..], &["--resume", "--lambda", "3"]].concat(),
            format!("--lambda {resumed}"),
        ),
        (
            [&serve[..], &["--resume", "--seed", "4"]].concat(),
            format!("--seed {resumed}"),
        ),
        (
            vec!["stream", "--input", input, "--snapshot-every", "3"],
            "--snapshot-every needs --state-dir".to_string(),
        ),
        (
            [&client[..], &["stats", "--count", "2"]].concat(),
            "--count only applies to evict-oldest".to_string(),
        ),
        (
            [&client[..], &["snapshot", "--input", input]].concat(),
            "--input only applies to assign and ingest".to_string(),
        ),
        (
            [&client[..], &["evict-oldest", "--input", input]].concat(),
            "--input only applies to assign and ingest".to_string(),
        ),
    ];

    for (args, message) in cases {
        let output = cli().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} wrote assignments");
        assert!(!state.exists(), "{args:?} created the state dir");
    }
}

/// Runtime failures keep exit code 1 but print no usage text: it would
/// only bury the message.
#[test]
fn runtime_failures_print_no_usage() {
    let output = cli()
        .args(["cluster", "--input", "/nonexistent.csv"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot open"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn client_reports_a_refused_connection_once() {
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().port()
    };
    let output = client_run(
        &format!("127.0.0.1:{port}"),
        "t",
        &["stats", "--retries", "0"],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.matches("request failed:").count(), 1, "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

/// The subcommands and the flags each lists in `fairkm --help`.
fn usage_surface() -> std::collections::BTreeMap<String, Vec<String>> {
    let help = cli().arg("--help").output().unwrap().stdout;
    let help = String::from_utf8(help).unwrap();
    let mut surface = std::collections::BTreeMap::new();
    let mut command: Option<String> = None;
    for line in help.lines() {
        let mut words = line.split_whitespace().peekable();
        if words.peek() == Some(&"usage:") {
            words.next();
        }
        if words.peek() == Some(&"fairkm") {
            words.next();
            command = words.next().map(str::to_string);
        } else if !line.starts_with(' ') {
            command = None;
        }
        if let Some(command) = &command {
            let flags: &mut Vec<String> = surface.entry(command.clone()).or_default();
            for word in words.map(|w| w.trim_matches(['[', ']'])) {
                if word.starts_with("--") {
                    flags.push(word.to_string());
                }
            }
        }
    }
    surface
}

/// Every subcommand refuses, by name and before it opens any file or
/// directory, each flag `fairkm --help` lists only for other subcommands.
/// The surface itself is pinned, so taking a flag on is a deliberate change.
#[test]
fn every_subcommand_refuses_the_flags_it_does_not_take() {
    let dir = std::env::temp_dir().join("fairkm_cli_test_surface");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = sample_csv(&dir);
    let input = input.to_str().unwrap();
    let state = dir.join("state");
    let state_dir = state.to_str().unwrap();
    let tenant = format!("t={state_dir}");

    let surface = usage_surface();
    let pinned = [
        (
            "client",
            "--tenant --addr --input --seed --count --retries --backoff-ms --timeout-ms",
        ),
        (
            "cluster",
            "--input --output --threads --seed --k --lambda --normalization --objective \
             --bounds --algorithm --fairlet-t --max-iters --minibatch",
        ),
        ("restore", "--state-dir --output --threads --verify"),
        (
            "serve",
            "--listen --tenant --input --threads --seed --k --lambda --normalization \
             --objective --bounds --drift --reopt-passes --snapshot-every --resume --workers \
             --queue --max-pending --read-timeout-ms --write-timeout-ms",
        ),
        (
            "shard",
            "--input --shards --output --threads --seed --k --lambda --normalization \
             --objective --bounds --bootstrap --batch --retain --drift --reopt-passes --block",
        ),
        ("snapshot", "--state-dir --threads"),
        (
            "stream",
            "--input --output --threads --seed --k --lambda --normalization --objective \
             --bounds --bootstrap --batch --retain --drift --reopt-passes --monitor-window \
             --monitor-every --state-dir --snapshot-every --resume",
        ),
    ];
    let sorted = |flags: Vec<&str>| {
        let mut flags = flags;
        flags.sort_unstable();
        flags.join(" ")
    };
    let listed: Vec<(&str, String)> = surface
        .iter()
        .map(|(command, flags)| {
            (
                command.as_str(),
                sorted(flags.iter().map(String::as_str).collect()),
            )
        })
        .collect();
    let pinned: Vec<(&str, String)> = pinned
        .iter()
        .map(|(command, flags)| (*command, sorted(flags.split_whitespace().collect())))
        .collect();
    assert_eq!(
        listed, pinned,
        "the flag surface in `fairkm --help` changed"
    );

    // A complete command line per subcommand, so that a flag it wrongly
    // took would let it go on to open its input or state directory. The
    // listen address cannot be bound, so a wrongly started `serve` exits.
    let base = |command: &str| -> Vec<&str> {
        match command {
            "cluster" => vec!["--input", input],
            "stream" => vec!["--input", input, "--state-dir", state_dir],
            "shard" => vec!["--input", input, "--shards", "2"],
            "snapshot" | "restore" => vec!["--state-dir", state_dir],
            "serve" => vec![
                "--listen",
                "127.0.0.1:99999",
                "--tenant",
                &tenant,
                "--input",
                input,
            ],
            "client" => vec![
                "--addr",
                "127.0.0.1:1",
                "--tenant",
                "t",
                "stats",
                "--retries",
                "0",
            ],
            other => panic!("no command line for `{other}`"),
        }
    };
    let mut refused = 0;
    for (command, flags) in &surface {
        let foreign: std::collections::BTreeSet<&String> = surface
            .values()
            .flatten()
            .filter(|flag| !flags.contains(flag))
            .collect();
        for flag in foreign {
            let output = cli()
                .arg(command)
                .args(base(command))
                .args([flag.as_str(), "1"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{command} {flag}: {stderr}");
            assert!(
                stderr.contains(&format!(
                    "error: {flag} is not supported by `fairkm {command}`"
                )),
                "{command} {flag}: {stderr}"
            );
            assert!(!state.exists(), "{command} {flag} created the state dir");
            refused += 1;
        }
    }
    assert!(refused > 100, "only {refused} refusals checked");
}
