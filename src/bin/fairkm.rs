//! `fairkm` — command-line fair clustering over CSV files.
//!
//! ```text
//! fairkm cluster --input data.csv [--k 5] [--lambda heuristic|<number>]
//!                [--algorithm fairkm|kmeans|fairlet] [--fairlet-t N]
//!                [--objective representativity|bounded|utilitarian|egalitarian]
//!                [--bounds LO,HI] [--normalization zscore|minmax|none]
//!                [--seed 0] [--max-iters 30] [--threads N] [--minibatch SIZE|auto]
//!                [--output assignments.csv]
//! fairkm stream  --input data.csv [--k 5] [--lambda heuristic|<number>]
//!                [--objective representativity|bounded|utilitarian|egalitarian]
//!                [--bounds LO,HI] [--normalization zscore|minmax|none]
//!                [--seed 0] [--threads N]
//!                [--bootstrap N] [--batch N] [--drift T] [--reopt-passes N]
//!                [--retain N] [--monitor-window N] [--monitor-every N] [--output assignments.csv]
//!                [--state-dir DIR [--snapshot-every N] [--resume]]
//! fairkm shard   --input data.csv --shards S [--block B] [stream flags…]
//!                (no --state-dir, --snapshot-every, --resume or --monitor-*)
//! fairkm snapshot --state-dir DIR [--threads N]
//! fairkm restore  --state-dir DIR [--verify] [--threads N] [--output assignments.csv]
//! fairkm serve   --listen ADDR --tenant NAME=DIR… (--resume | --input data.csv)
//!                [--workers N] [--queue N] [--max-pending N]
//!                [--read-timeout-ms N] [--write-timeout-ms N] [--snapshot-every N]
//! fairkm client  --addr ADDR --tenant NAME assign|ingest|evict-oldest|stats|snapshot
//!                [--input data.csv] [--count N] [--retries N] [--backoff-ms N]
//! ```
//!
//! `cluster` is the one-shot batch fit. `stream` replays the same CSV as a
//! live stream: the first `--bootstrap` rows (default: a quarter of the
//! file) fit the initial model and freeze the encoder + fairness
//! reference, the rest arrive in `--batch`-sized batches through
//! frozen-prototype assignment with drift-triggered re-optimization
//! (`--drift`, `--reopt-passes`), and `--retain N` keeps a sliding window
//! of at most `N` live points by evicting the oldest. Per-batch fairness
//! over the live partition is tracked by a windowed monitor
//! (`--monitor-window`). Both commands are bitwise-deterministic per seed
//! for any `--threads` value.
//!
//! With `--state-dir DIR`, `stream` is **crash-safe**: every batch is
//! journaled to a checksummed write-ahead log under `DIR` (fsync before
//! the batch is reported), and every `--snapshot-every` operations a
//! fresh snapshot bounds replay. After a crash, rerun the same command
//! with `--resume`: the engine recovers from the newest verifying
//! snapshot plus the WAL suffix and continues from exactly the row it
//! left off at — the finished state is bitwise identical to a run that
//! never crashed. On `--resume` the engine configuration comes from the
//! durable snapshot; config flags on the command line are ignored
//! (`--threads` still selects the worker pool, which never changes
//! result bits). `snapshot` forces a fresh snapshot now; `restore`
//! recovers a state directory (optionally `--verify`-ing every file's
//! checksums first) and writes the recovered live assignments.
//!
//! `shard` replays the same workload as `stream` through the
//! coordinator/shard protocol (`fairkm-shard`) at `--shards S`, runs the
//! single-node engine next to it, and reports whether the two finished
//! states are **bitwise identical** (objective, trace, assignments) and
//! whether every shard replica agrees with the coordinator — a live
//! demonstration of the deterministic-merge contract.
//!
//! `serve` hosts every `--tenant NAME=DIR` as an independent durable
//! stream behind one hardened HTTP/1.1 endpoint (`fairkm-serve`): reads
//! are lock-free against the last acked snapshot, writes are
//! journal-then-ack, overload is shed with typed 429/503 + `Retry-After`,
//! and a SIGKILL at any instant loses no acked write — restart with
//! `--resume`. `client` drives that endpoint with seeded retry/backoff.
//! Durable-state failures exit with stable codes (see `fairkm --help`):
//! 3 = wedged, 4 = committed-but-unsnapshotted, 5 = state dir not empty,
//! 6 = unrecoverable.
//!
//! The input CSV must use the self-describing header produced by
//! `fairkm_data::write_csv`: each header cell is `role:kind:name` with
//! `role ∈ {n, s, aux}` and `kind ∈ {num, cat}` — e.g.
//! `n:num:age,s:cat:gender,aux:cat:income`. Assignments are written as a
//! two-column CSV (`row,cluster`); quality and fairness metrics go to
//! stderr so the assignment stream stays pipeable.

use fairkm::core::persist::{DurableStream, PersistError};
use fairkm::core::{StreamingConfig, StreamingFairKm};
use fairkm::metrics::WindowedFairnessMonitor;
use fairkm::prelude::*;
use fairkm::serve::{Client, ClientConfig, ClientError, Registry, ServerConfig};
use fairkm::store::{DurableStore, FsBackend};
use fairkm_core::FairKmError;
use fairkm_data::wire::WireError;
use fairkm_data::{read_csv, Dataset, Normalization, Partition, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: fairkm cluster --input data.csv [--k N] [--lambda heuristic|NUM]
                      [--algorithm fairkm|kmeans|fairlet] [--fairlet-t N]
                      [--objective representativity|bounded|utilitarian|egalitarian]
                      [--bounds LO,HI] [--normalization zscore|minmax|none]
                      [--seed N] [--max-iters N] [--threads N] [--minibatch SIZE|auto]
                      [--output out.csv]
       fairkm stream  --input data.csv [--k N] [--lambda heuristic|NUM]
                      [--objective representativity|bounded|utilitarian|egalitarian]
                      [--bounds LO,HI] [--normalization zscore|minmax|none]
                      [--seed N] [--threads N]
                      [--bootstrap N] [--batch N] [--drift T] [--reopt-passes N]
                      [--retain N] [--monitor-window N] [--monitor-every N] [--output out.csv]
                      [--state-dir DIR [--snapshot-every N] [--resume]]
       fairkm shard   --input data.csv --shards S [--block B] [stream flags…]
                      (no --state-dir, --snapshot-every, --resume or --monitor-*)
       fairkm snapshot --state-dir DIR [--threads N]
       fairkm restore  --state-dir DIR [--verify] [--threads N] [--output out.csv]
       fairkm serve   --listen ADDR --tenant NAME=DIR [--tenant NAME2=DIR2…]
                      (--resume | --input data.csv [bootstrap flags])
                      [--workers N] [--queue N] [--max-pending N]
                      [--read-timeout-ms N] [--write-timeout-ms N]
                      [--snapshot-every N] [--drift T] [--reopt-passes N]
       fairkm client  --addr ADDR --tenant NAME assign|ingest|evict-oldest|stats|snapshot
                      [--input data.csv] [--count N]
                      [--retries N] [--backoff-ms N] [--timeout-ms N] [--seed N]

input header cells must be role:kind:name (role: n|s|aux, kind: num|cat).

durable-state failures exit with stable codes scripts can dispatch on:
  3  journal write failed (stream wedged) — acked state is safe on disk; reopen with --resume
  4  operation committed, only the snapshot after it failed — do NOT retry the op
  5  state directory already holds a stream — pass --resume or pick an empty directory
  6  state directory unrecoverable (no verifying snapshot / corrupt journal / older format)";

/// Flags shared verbatim by `cluster` and `stream`, parsed in one place so
/// the two subcommands can never drift apart on them.
struct CommonOptions {
    input: String,
    output: Option<String>,
    k: usize,
    lambda: Lambda,
    normalization: Normalization,
    seed: u64,
    threads: Option<usize>,
    objective: ObjectiveKind,
    /// Explicit `--bounds LO,HI` multipliers, folded into the objective by
    /// [`Self::require_input`] (so flag order doesn't matter).
    bounds: Option<(f64, f64)>,
}

impl CommonOptions {
    fn new() -> Self {
        Self {
            input: String::new(),
            output: None,
            k: 5,
            lambda: Lambda::Heuristic,
            normalization: Normalization::ZScore,
            seed: 0,
            threads: None,
            objective: ObjectiveKind::Representativity,
            bounds: None,
        }
    }

    /// Consume `flag` (pulling its value from `it`) if it is one of the
    /// shared flags; `Ok(false)` hands it back to the subcommand parser.
    fn try_parse(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--input" => self.input = value()?,
            "--output" => self.output = Some(value()?),
            "--k" => self.k = value()?.parse().map_err(|_| "--k needs an integer")?,
            "--seed" => self.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--threads" => {
                let t: usize = value()?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer")?;
                if t == 0 {
                    return Err("--threads needs a positive integer".into());
                }
                self.threads = Some(t);
            }
            "--lambda" => {
                let v = value()?;
                self.lambda = if v == "heuristic" {
                    Lambda::Heuristic
                } else {
                    Lambda::Fixed(
                        v.parse()
                            .map_err(|_| "--lambda needs a number or `heuristic`")?,
                    )
                };
            }
            "--normalization" => {
                self.normalization = match value()?.as_str() {
                    "zscore" => Normalization::ZScore,
                    "minmax" => Normalization::MinMax,
                    "none" => Normalization::None,
                    other => return Err(format!("unknown normalization `{other}`")),
                }
            }
            "--objective" => {
                self.objective = match value()?.as_str() {
                    "representativity" => ObjectiveKind::Representativity,
                    "bounded" => ObjectiveKind::bounded(),
                    "utilitarian" => ObjectiveKind::Utilitarian,
                    "egalitarian" => ObjectiveKind::Egalitarian,
                    other => return Err(format!("unknown objective `{other}`")),
                }
            }
            "--bounds" => {
                let v = value()?;
                let (lo, hi) = v
                    .split_once(',')
                    .ok_or("--bounds needs LO,HI (e.g. 0.8,1.25)")?;
                let lower: f64 = lo
                    .trim()
                    .parse()
                    .map_err(|_| "--bounds needs two numbers LO,HI")?;
                let upper: f64 = hi
                    .trim()
                    .parse()
                    .map_err(|_| "--bounds needs two numbers LO,HI")?;
                self.bounds = Some((lower, upper));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn require_input(mut self) -> Result<Self, String> {
        if self.input.is_empty() {
            return Err("--input is required".into());
        }
        if let Some((lower, upper)) = self.bounds {
            match self.objective {
                ObjectiveKind::BoundedRepresentation { .. } => {
                    self.objective = ObjectiveKind::BoundedRepresentation { lower, upper };
                }
                _ => return Err("--bounds only applies to --objective bounded".into()),
            }
        }
        Ok(self)
    }

    /// Evaluator context matching the fit's worker choice: explicit
    /// `--threads`, else auto-resolution (env var, then available
    /// parallelism).
    fn eval_context(&self) -> EvalContext {
        match self.threads {
            Some(threads) => EvalContext::new().with_threads(threads),
            None => EvalContext::new(),
        }
    }
}

struct Options {
    common: CommonOptions,
    algorithm: Algorithm,
    max_iters: usize,
    minibatch: Option<Minibatch>,
    fairlet_t: usize,
}

enum Minibatch {
    Auto,
    Size(usize),
}

#[derive(PartialEq)]
enum Algorithm {
    FairKm,
    KMeans,
    Fairlet,
}

/// The `--objective` spelling of a kind, for log lines.
fn objective_label(kind: ObjectiveKind) -> &'static str {
    match kind {
        ObjectiveKind::Representativity => "representativity",
        ObjectiveKind::BoundedRepresentation { .. } => "bounded",
        ObjectiveKind::Utilitarian => "utilitarian",
        ObjectiveKind::Egalitarian => "egalitarian",
    }
}

/// Exit code for a wedged stream (a journal append or sync failed, so the
/// in-memory engine is ahead of the durable log).
const EXIT_WEDGED: u8 = 3;
/// Exit code for "the operation committed durably; only the snapshot after
/// it failed" — the one failure that must NOT be retried.
const EXIT_SNAPSHOT_DEFERRED: u8 = 4;
/// Exit code for `create` refusing to clobber an existing state directory.
const EXIT_STATE_DIR_NOT_EMPTY: u8 = 5;
/// Exit code for an unrecoverable state directory (no verifying snapshot,
/// or a journal entry the engine refuses to replay).
const EXIT_UNRECOVERABLE: u8 = 6;

/// A CLI failure: an actionable message plus a stable process exit code.
/// Generic failures (bad flags, unreadable input, engine rejections) keep
/// code 1; durable-state failures get the distinct codes above so retry
/// scripts can tell "safe to rerun" from "already committed" apart.
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            code: 1,
            message: message.to_string(),
        }
    }
}

/// Map a durable-layer failure onto its stable exit code, with a hint
/// telling the operator what is — and is not — safe to do next.
fn persist_cli(context: &str, e: PersistError) -> CliError {
    let (code, hint) = match &e {
        PersistError::Wedged | PersistError::Store(_) => (
            EXIT_WEDGED,
            "everything acked so far is safe on disk; reopen with --resume \
             (or run `fairkm restore`) once storage recovers",
        ),
        PersistError::SnapshotAfterCommit { .. } => (
            EXIT_SNAPSHOT_DEFERRED,
            "the operation IS committed — do not retry it; run \
             `fairkm snapshot --state-dir DIR` to retry only the snapshot",
        ),
        PersistError::StateDirNotEmpty => (
            EXIT_STATE_DIR_NOT_EMPTY,
            "pass --resume to continue the existing stream, or point \
             --state-dir at an empty directory",
        ),
        PersistError::Wire(WireError::UnsupportedVersion { .. }) => (
            EXIT_UNRECOVERABLE,
            "the state directory was written by an older fairkm whose snapshot \
             format this build does not read; recreate it from the source data \
             (`--verify` checks only frames and checksums, so it passes here)",
        ),
        PersistError::NoSnapshot | PersistError::Replay { .. } | PersistError::Wire(_) => (
            EXIT_UNRECOVERABLE,
            "the state directory cannot be recovered as-is; run \
             `fairkm restore --state-dir DIR --verify` to see which files \
             are damaged",
        ),
        PersistError::Model(_) => (
            1,
            "the engine rejected the operation; nothing was journaled and \
             the durable state is unchanged",
        ),
    };
    CliError {
        code,
        message: format!("{context}: {e}\n  hint: {hint}"),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            if e.code == 1 {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.code)
        }
    }
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("cluster") => run_cluster(&args[1..]),
        Some("stream") => run_stream(&args[1..]),
        Some("shard") => run_shard(&args[1..]),
        Some("snapshot") => run_snapshot(&args[1..]),
        Some("restore") => run_restore(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("client") => run_client(&args[1..]),
        _ => Err("the supported commands are `cluster`, `stream`, `shard`, \
             `snapshot`, `restore`, `serve`, and `client`"
            .into()),
    }
}

fn load(input: &str) -> Result<Dataset, String> {
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    read_csv(file).map_err(|e| format!("cannot parse {input}: {e}"))
}

fn run_cluster(args: &[String]) -> Result<(), CliError> {
    let opts = parse(args)?;

    let dataset = load(&opts.common.input)?;
    eprintln!(
        "loaded {} rows, {} attributes from {}",
        dataset.n_rows(),
        dataset.schema().len(),
        opts.common.input
    );

    let partition = match opts.algorithm {
        Algorithm::FairKm => {
            let mut config = FairKmConfig::new(opts.common.k)
                .with_lambda(opts.common.lambda)
                .with_seed(opts.common.seed)
                .with_max_iters(opts.max_iters)
                .with_normalization(opts.common.normalization)
                .with_objective(opts.common.objective);
            if let Some(threads) = opts.common.threads {
                config = config.with_threads(threads);
            }
            let model = match opts.minibatch {
                None => FairKm::new(config).fit(&dataset),
                Some(Minibatch::Auto) => MiniBatchFairKm::auto(config).fit(&dataset),
                Some(Minibatch::Size(batch)) => MiniBatchFairKm::new(config, batch).fit(&dataset),
            }
            .map_err(|e: FairKmError| e.to_string())?;
            eprintln!(
                "FairKM: objective = {}, lambda = {:.1}, iterations = {}, moves = {}, converged = {}",
                objective_label(opts.common.objective),
                model.lambda(),
                model.iterations(),
                model.moves(),
                model.converged()
            );
            model.partition().clone()
        }
        Algorithm::Fairlet => {
            let matrix = dataset
                .task_matrix(opts.common.normalization)
                .map_err(|e| e.to_string())?;
            let space = dataset.sensitive_space().map_err(|e| e.to_string())?;
            let attr = space
                .categorical()
                .first()
                .ok_or("fairlet needs a categorical sensitive attribute")?;
            let (partition, decomposition) =
                FairletDecomposer::new(FairletConfig::new(opts.fairlet_t))
                    .cluster(
                        &matrix,
                        attr,
                        KMeansConfig::new(opts.common.k).with_seed(opts.common.seed),
                    )
                    .map_err(|e| e.to_string())?;
            eprintln!(
                "fairlet: {} fairlets over `{}`, decomposition cost = {:.4}, balance >= 1/{}",
                decomposition.fairlets.len(),
                attr.name(),
                decomposition.cost,
                opts.fairlet_t
            );
            partition
        }
        Algorithm::KMeans => {
            let matrix = dataset
                .task_matrix(opts.common.normalization)
                .map_err(|e| e.to_string())?;
            KMeans::new(KMeansConfig::new(opts.common.k).with_seed(opts.common.seed))
                .fit(&matrix)
                .map_err(|e| e.to_string())?
                .partition
        }
    };

    report_metrics(&dataset, &partition, &opts)?;
    let pairs = partition
        .assignments()
        .iter()
        .enumerate()
        .map(|(row, &cluster)| (row, cluster));
    write_assignment_pairs(pairs, opts.common.output.as_deref(), "assignments")
}

struct StreamOptions {
    common: CommonOptions,
    bootstrap: Option<usize>,
    batch: usize,
    drift: f64,
    reopt_passes: usize,
    retain: Option<usize>,
    monitor_window: usize,
    monitor_every: usize,
    state_dir: Option<String>,
    snapshot_every: u64,
    resume: bool,
}

/// Default of `--snapshot-every` for `stream` and `serve`: operations
/// between durable snapshots.
const SNAPSHOT_EVERY: u64 = 8;

/// The value after `flag`, parsed as a positive integer.
fn positive(flag: &str, value: Option<&String>) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer")),
    }
}

/// The value after `flag`, parsed as an integer.
fn integer<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs an integer"))
}

/// The value after `--drift`: a finite, non-negative relative threshold.
fn drift(value: Option<&String>) -> Result<f64, String> {
    let value = value.ok_or("--drift needs a value")?;
    match value.parse::<f64>() {
        Ok(d) if d.is_finite() && d >= 0.0 => Ok(d),
        Ok(_) => Err("--drift needs a non-negative number".into()),
        Err(_) => Err("--drift needs a number".into()),
    }
}

fn parse_stream(args: &[String]) -> Result<StreamOptions, String> {
    // Only the drift and re-optimization defaults are read.
    let stream = StreamingConfig::new(1);
    let mut opts = StreamOptions {
        common: CommonOptions::new(),
        bootstrap: None,
        batch: 64,
        drift: stream.drift_threshold,
        reopt_passes: stream.reopt_passes,
        retain: None,
        monitor_window: 8,
        monitor_every: 1,
        state_dir: None,
        snapshot_every: SNAPSHOT_EVERY,
        resume: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if opts.common.try_parse(flag, &mut it)? {
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bootstrap" => opts.bootstrap = Some(integer(flag, it.next())?),
            "--batch" => opts.batch = positive(flag, it.next())?,
            "--drift" => opts.drift = drift(it.next())?,
            "--reopt-passes" => opts.reopt_passes = integer(flag, it.next())?,
            "--retain" => opts.retain = Some(integer(flag, it.next())?),
            "--monitor-window" => opts.monitor_window = integer(flag, it.next())?,
            "--monitor-every" => opts.monitor_every = positive(flag, it.next())?,
            "--state-dir" => opts.state_dir = Some(value()?),
            "--snapshot-every" => opts.snapshot_every = positive(flag, it.next())? as u64,
            "--resume" => opts.resume = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.state_dir.is_none() && opts.resume {
        return Err("--resume requires --state-dir".into());
    }
    opts.common = opts.common.require_input()?;
    Ok(opts)
}

/// The `stream` engine behind either durability mode: mutations funnel
/// through [`DurableStream`] when `--state-dir` is set (journal + fsync
/// before each batch is reported) and go straight to the in-memory
/// engine otherwise. Reads always come from the wrapped stream.
enum StreamEngine {
    Volatile(Box<StreamingFairKm>),
    Durable(Box<DurableStream<FsBackend>>),
}

impl StreamEngine {
    fn stream(&self) -> &StreamingFairKm {
        match self {
            StreamEngine::Volatile(s) => s,
            StreamEngine::Durable(d) => d.stream(),
        }
    }

    fn ingest(&mut self, rows: &[Vec<Value>]) -> Result<fairkm::core::IngestReport, CliError> {
        match self {
            StreamEngine::Volatile(s) => s.ingest(rows).map_err(|e| e.to_string().into()),
            StreamEngine::Durable(d) => d
                .ingest(rows)
                .map_err(|e| persist_cli("stream batch failed", e)),
        }
    }

    fn evict_oldest(&mut self, count: usize) -> Result<fairkm::core::EvictReport, CliError> {
        match self {
            StreamEngine::Volatile(s) => s.evict_oldest(count).map_err(|e| e.to_string().into()),
            StreamEngine::Durable(d) => d
                .evict_oldest(count)
                .map_err(|e| persist_cli("stream eviction failed", e)),
        }
    }

    /// Deferred cadence-snapshot failure from the last mutation, if any:
    /// the op itself is committed, only the snapshot after it failed.
    fn take_snapshot_failure(&mut self) -> Option<PersistError> {
        match self {
            StreamEngine::Volatile(_) => None,
            StreamEngine::Durable(d) => d.take_snapshot_failure(),
        }
    }
}

fn report_recovery(report: &fairkm::core::persist::RecoveryReport) {
    eprintln!(
        "recovered: snapshot seq {}, {} journal entries replayed",
        report.snapshot_seq, report.replayed
    );
    if let Some(offset) = report.truncated_tail {
        eprintln!("recovered: truncated a torn journal tail at byte {offset}");
    }
    for skipped in &report.skipped_snapshots {
        eprintln!("recovered: skipped corrupt snapshot {skipped}");
    }
    for skipped in &report.skipped_segments {
        eprintln!("recovered: skipped defective pre-snapshot segment {skipped}");
    }
}

/// The bootstrap row count and engine configuration a fresh `stream` or
/// `shard` replay of `n` rows starts from. The default bootstrap is a
/// quarter of the file, at least 8 points per cluster, clamped to the file
/// (the core rejects k > bootstrap rows itself).
fn stream_setup(opts: &StreamOptions, n: usize) -> Result<(usize, StreamingConfig), CliError> {
    let bootstrap_rows = match opts.bootstrap {
        Some(rows) if rows > n => {
            return Err(format!("--bootstrap {rows} exceeds the {n} rows available").into())
        }
        Some(rows) => rows,
        None => (n / 4).max(opts.common.k * 8).min(n),
    };
    let mut base = FairKmConfig::new(opts.common.k)
        .with_lambda(opts.common.lambda)
        .with_seed(opts.common.seed)
        .with_normalization(opts.common.normalization)
        .with_objective(opts.common.objective);
    if let Some(threads) = opts.common.threads {
        base = base.with_threads(threads);
    }
    let config = StreamingConfig::from_base(base)
        .with_drift_threshold(opts.drift)
        .with_reopt_passes(opts.reopt_passes);
    Ok((bootstrap_rows, config))
}

fn run_stream(args: &[String]) -> Result<(), CliError> {
    let opts = parse_stream(args)?;
    let dataset = load(&opts.common.input)?;
    let n = dataset.n_rows();

    let mut engine;
    let start_row;
    if opts.resume {
        // Recover from the state directory; the frozen snapshot governs
        // the engine configuration, the CLI only picks the worker pool.
        let dir = opts.state_dir.as_deref().expect("checked in parse_stream");
        let backend = FsBackend::open(dir).map_err(|e| e.to_string())?;
        let (durable, report) =
            DurableStream::open(backend, opts.common.threads, Some(opts.snapshot_every))
                .map_err(|e| persist_cli("cannot resume from the state directory", e))?;
        report_recovery(&report);
        start_row = durable.stream().n_slots();
        if start_row > n {
            return Err(format!(
                "state directory holds {start_row} slots but the input has only \
                 {n} rows — wrong input file?"
            )
            .into());
        }
        eprintln!(
            "resume: {} rows already processed, live = {}, objective = {:.4}",
            start_row,
            durable.stream().live(),
            durable.stream().objective()
        );
        engine = StreamEngine::Durable(Box::new(durable));
    } else {
        let (bootstrap_rows, config) = stream_setup(&opts, n)?;
        let boot_idx: Vec<usize> = (0..bootstrap_rows).collect();
        let boot = dataset.select_rows(&boot_idx).map_err(|e| e.to_string())?;
        engine = match &opts.state_dir {
            None => StreamEngine::Volatile(Box::new(
                StreamingFairKm::bootstrap(boot, config).map_err(|e| e.to_string())?,
            )),
            Some(dir) => {
                let backend = FsBackend::open(dir).map_err(|e| e.to_string())?;
                let durable =
                    DurableStream::create(backend, boot, config, Some(opts.snapshot_every))
                        .map_err(|e| persist_cli("cannot create the state directory", e))?;
                StreamEngine::Durable(Box::new(durable))
            }
        };
        start_row = bootstrap_rows;
        let stream = engine.stream();
        eprintln!(
            "bootstrap: {} rows, k = {}, lambda = {:.1}, fairness objective = {}, objective = {:.4}",
            bootstrap_rows,
            stream.k(),
            stream.lambda(),
            objective_label(stream.objective_kind()),
            stream.objective()
        );
    }
    let fair_label = objective_label(engine.stream().objective_kind());

    // Replay the remaining rows as arrival batches.
    let arrivals: Vec<Vec<Value>> = (start_row..n)
        .map(|r| dataset.row_values(r).expect("valid row"))
        .collect();
    let mut monitor = WindowedFairnessMonitor::new(opts.monitor_window, opts.common.eval_context());
    for (i, chunk) in arrivals.chunks(opts.batch).enumerate() {
        let report = engine.ingest(chunk)?;
        let mut evicted = 0usize;
        if let Some(cap) = opts.retain {
            if engine.stream().live() > cap {
                let drop = engine.stream().live() - cap;
                evicted = engine.evict_oldest(drop)?.evicted;
            }
        }
        // A failed cadence snapshot does not fail the batch — the batch is
        // journaled — but the operator should know replay is growing. The
        // snapshot is retried at the next cadence point and at seal time.
        if let Some(deferred) = engine.take_snapshot_failure() {
            eprintln!("warning: batch {i} is committed, but {deferred}");
        }
        let stream = engine.stream();
        let progress = format!(
            "batch {:>4}: +{} -{} live = {} objective = {:.4} reopt = {}",
            i,
            report.clusters.len(),
            evicted,
            stream.live(),
            stream.objective(),
            if report.reoptimized { "yes" } else { "no" },
        );
        // Full live-partition evaluation is O(live); --monitor-every bounds
        // it so monitoring can't dwarf the O(dim) delta ingest on big
        // streams.
        if i.is_multiple_of(opts.monitor_every) {
            let (matrix, space, partition, _) = stream.live_views().map_err(|e| e.to_string())?;
            // Record the active objective's own fairness value next to the
            // representativity report, so a non-default --objective is
            // monitored on the metric the optimizer actually descends on.
            let snapshot = monitor.observe_objective(
                &matrix,
                &space,
                &partition,
                stream.fairness_term(),
                stream.fairness_contributions(),
            );
            eprintln!(
                "{progress} CO = {:.4} AE = {:.4} (drift {:+.4}) {} = {:.6}",
                snapshot.co,
                snapshot.mean_ae,
                monitor.ae_drift().unwrap_or(0.0),
                fair_label,
                snapshot.objective_fairness.unwrap_or(0.0),
            );
        } else {
            eprintln!("{progress}");
        }
    }
    // Seal a fresh snapshot so the next --resume replays nothing. Every
    // batch is already journaled, so a failure here is the "committed but
    // unsnapshotted" case: report it on the dedicated exit code.
    if let StreamEngine::Durable(durable) = &mut engine {
        let seq = durable.snapshot_now().map_err(|e| CliError {
            code: EXIT_SNAPSHOT_DEFERRED,
            message: format!(
                "sealing snapshot failed (every batch is already journaled; \
                 do not re-ingest): {e}\n  hint: run `fairkm snapshot` against \
                 the same --state-dir once storage recovers"
            ),
        })?;
        eprintln!(
            "state sealed: snapshot seq {} in {}",
            seq,
            opts.state_dir.as_deref().unwrap_or("?")
        );
    }
    let stream = engine.stream();
    eprintln!(
        "stream done: ingested = {}, evicted = {}, reopts = {}, live = {}, objective = {:.4}",
        stream.inserted(),
        stream.evicted(),
        stream.reopts(),
        stream.live(),
        stream.objective()
    );

    // Live assignments, keyed by original input row (slot ids are input
    // rows as long as the stream is never compacted — this driver isn't).
    let pairs = stream.live_slots().into_iter().map(|slot| {
        let cluster = stream.assignment_of(slot).expect("live slot has a cluster");
        (slot, cluster)
    });
    write_assignment_pairs(pairs, opts.common.output.as_deref(), "live assignments")
}

/// Flags of the `snapshot` and `restore` state-directory subcommands.
struct StateDirOptions {
    state_dir: String,
    threads: Option<usize>,
    verify: bool,
    output: Option<String>,
}

fn parse_state_dir(args: &[String], allow_verify: bool) -> Result<StateDirOptions, String> {
    let mut state_dir = None;
    let mut threads = None;
    let mut verify = false;
    let mut output = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--state-dir" => state_dir = Some(value()?),
            "--threads" => threads = Some(positive(flag, it.next())?),
            "--verify" if allow_verify => verify = true,
            "--output" => output = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(StateDirOptions {
        state_dir: state_dir.ok_or("--state-dir is required")?,
        threads,
        verify,
        output,
    })
}

/// `fairkm snapshot`: recover the state directory and roll a fresh
/// snapshot, bounding the next recovery's replay to zero entries.
fn run_snapshot(args: &[String]) -> Result<(), CliError> {
    let opts = parse_state_dir(args, false)?;
    let backend = FsBackend::open(&opts.state_dir).map_err(|e| e.to_string())?;
    let (mut durable, report) = DurableStream::open(backend, opts.threads, None)
        .map_err(|e| persist_cli("cannot recover the state directory", e))?;
    report_recovery(&report);
    let seq = durable
        .snapshot_now()
        .map_err(|e| persist_cli("snapshot failed", e))?;
    eprintln!(
        "snapshot: seq {} written to {} (live = {}, objective = {:.4})",
        seq,
        opts.state_dir,
        durable.stream().live(),
        durable.stream().objective()
    );
    Ok(())
}

/// `fairkm restore`: recover the state directory (after an optional
/// offline integrity pass over every file) and write the recovered live
/// assignments.
fn run_restore(args: &[String]) -> Result<(), CliError> {
    let opts = parse_state_dir(args, true)?;
    let backend = FsBackend::open(&opts.state_dir).map_err(|e| e.to_string())?;
    if opts.verify {
        let report = DurableStore::verify(&backend).map_err(|e| e.to_string())?;
        for check in &report.checks {
            eprintln!(
                "verify: {} — {} ({} records)",
                check.file, check.detail, check.records
            );
        }
        match report.base_seq {
            Some(seq) => eprintln!(
                "verify: recoverable to sequence {} from snapshot seq {}{}",
                report.recoverable_to,
                seq,
                match report.torn_tail {
                    Some(offset) => format!(", torn tail truncated at byte {offset}"),
                    None => String::new(),
                }
            ),
            None => {
                return Err(persist_cli(
                    "verify found no verifying snapshot",
                    PersistError::NoSnapshot,
                ))
            }
        }
    }
    let (durable, report) = DurableStream::open(backend, opts.threads, None)
        .map_err(|e| persist_cli("cannot recover the state directory", e))?;
    report_recovery(&report);
    let stream = durable.stream();
    eprintln!(
        "restored: {} slots, live = {}, ingested = {}, evicted = {}, reopts = {}, objective = {:.4}",
        stream.n_slots(),
        stream.live(),
        stream.inserted(),
        stream.evicted(),
        stream.reopts(),
        stream.objective()
    );
    let pairs = stream.live_slots().into_iter().map(|slot| {
        let cluster = stream.assignment_of(slot).expect("live slot has a cluster");
        (slot, cluster)
    });
    write_assignment_pairs(pairs, opts.output.as_deref(), "recovered live assignments")
}

/// `fairkm shard`: replay the `stream` workload through the sharded
/// engine next to the single-node engine and report bitwise agreement.
fn run_shard(args: &[String]) -> Result<(), CliError> {
    use fairkm::shard::ShardedFairKm;

    // Strip the shard-only flags, refuse the stream flags a shard replay
    // does not implement, and hand everything else to the stream parser so
    // the two replay modes can never drift apart on flags.
    let mut shards: Option<usize> = None;
    let mut block = fairkm::shard::ShardPlan::DEFAULT_BLOCK;
    let mut rest: Vec<String> = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--shards" => shards = Some(positive(flag, it.next())?),
            "--block" => block = positive(flag, it.next())?,
            "--state-dir" | "--snapshot-every" | "--resume" | "--monitor-window"
            | "--monitor-every" => {
                return Err(format!("{flag} is not supported by `fairkm shard`").into())
            }
            _ => rest.push(flag.clone()),
        }
    }
    let shards = shards.ok_or("--shards is required for `fairkm shard`")?;
    let opts = parse_stream(&rest)?;

    let dataset = load(&opts.common.input)?;
    let n = dataset.n_rows();
    let (bootstrap_rows, config) = stream_setup(&opts, n)?;
    let boot_idx: Vec<usize> = (0..bootstrap_rows).collect();
    let boot = dataset.select_rows(&boot_idx).map_err(|e| e.to_string())?;
    let mut single =
        StreamingFairKm::bootstrap(boot.clone(), config.clone()).map_err(|e| e.to_string())?;
    let mut sharded =
        ShardedFairKm::bootstrap(boot, config, shards, block).map_err(|e| e.to_string())?;
    eprintln!(
        "bootstrap: {} rows, k = {}, {} shards (block {}), objective = {:.4}",
        bootstrap_rows,
        single.k(),
        shards,
        block,
        sharded.objective()
    );

    // Replay the identical workload through both engines.
    let arrivals: Vec<Vec<Value>> = (bootstrap_rows..n)
        .map(|r| dataset.row_values(r).expect("valid row"))
        .collect();
    for (i, chunk) in arrivals.chunks(opts.batch).enumerate() {
        let report = sharded.ingest(chunk).map_err(|e| e.to_string())?;
        single.ingest(chunk).map_err(|e| e.to_string())?;
        let mut evicted = 0usize;
        if let Some(cap) = opts.retain {
            if sharded.live() > cap {
                let drop = sharded.live() - cap;
                evicted = sharded
                    .evict_oldest(drop)
                    .map_err(|e| e.to_string())?
                    .evicted;
                single.evict_oldest(drop).map_err(|e| e.to_string())?;
            }
        }
        eprintln!(
            "batch {:>4}: +{} -{} live = {} objective = {:.4} reopt = {}",
            i,
            report.clusters.len(),
            evicted,
            sharded.live(),
            sharded.objective(),
            if report.reoptimized { "yes" } else { "no" },
        );
    }

    // The deterministic-merge contract, checked live.
    let objective_match = sharded.objective().to_bits() == single.objective().to_bits();
    let trace_match = sharded.trace().len() == single.trace().len()
        && sharded
            .trace()
            .iter()
            .zip(single.trace())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let assignments_match = sharded.live_slots() == single.live_slots()
        && sharded
            .live_slots()
            .into_iter()
            .all(|s| sharded.assignment_of(s) == single.assignment_of(s));
    let replicas = sharded.replicas_agree();
    eprintln!(
        "shard replay done: live = {}, objective = {:.4}, coordinator log version = {}",
        sharded.live(),
        sharded.objective(),
        sharded.coordinator().log_len()
    );
    eprintln!(
        "single-node agreement: objective = {}, trace = {}, assignments = {}, replicas = {}",
        if objective_match {
            "bitwise"
        } else {
            "DIVERGED"
        },
        if trace_match { "bitwise" } else { "DIVERGED" },
        if assignments_match {
            "bitwise"
        } else {
            "DIVERGED"
        },
        if replicas { "agree" } else { "DIVERGED" },
    );
    if !(objective_match && trace_match && assignments_match && replicas) {
        return Err("sharded run diverged from the single-node engine".into());
    }

    let pairs = sharded.live_slots().into_iter().map(|slot| {
        let cluster = sharded
            .assignment_of(slot)
            .expect("live slot has a cluster");
        (slot, cluster)
    });
    write_assignment_pairs(pairs, opts.common.output.as_deref(), "live assignments")
}

/// Flags of `fairkm serve`: the listen address, the tenant roster, and the
/// admission/deadline knobs of the serving layer.
struct ServeOptions {
    common: CommonOptions,
    listen: String,
    /// `--tenant NAME=DIR` pairs, in command-line order.
    tenants: Vec<(String, String)>,
    resume: bool,
    workers: usize,
    queue: usize,
    max_pending: usize,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    snapshot_every: u64,
    drift: f64,
    reopt_passes: usize,
}

fn parse_serve(args: &[String]) -> Result<ServeOptions, String> {
    let defaults = ServerConfig::default();
    // Only the drift and re-optimization defaults are read.
    let stream = StreamingConfig::new(1);
    let mut opts = ServeOptions {
        common: CommonOptions::new(),
        listen: String::new(),
        tenants: Vec::new(),
        resume: false,
        workers: defaults.workers,
        queue: defaults.queue_depth,
        max_pending: 8,
        read_timeout_ms: defaults.read_timeout.as_millis() as u64,
        write_timeout_ms: defaults.write_timeout.as_millis() as u64,
        snapshot_every: SNAPSHOT_EVERY,
        drift: stream.drift_threshold,
        reopt_passes: stream.reopt_passes,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if opts.common.try_parse(flag, &mut it)? {
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--listen" => opts.listen = value()?,
            "--tenant" => {
                let v = value()?;
                let (name, dir) = v
                    .split_once('=')
                    .ok_or("--tenant needs NAME=DIR (e.g. prod=/var/lib/fairkm/prod)")?;
                if name.is_empty() || dir.is_empty() {
                    return Err("--tenant needs NAME=DIR with both parts non-empty".into());
                }
                opts.tenants.push((name.to_string(), dir.to_string()));
            }
            "--resume" => opts.resume = true,
            "--workers" => opts.workers = positive(flag, it.next())?,
            "--queue" => opts.queue = positive(flag, it.next())?,
            "--max-pending" => opts.max_pending = integer(flag, it.next())?,
            "--read-timeout-ms" => opts.read_timeout_ms = integer(flag, it.next())?,
            "--write-timeout-ms" => opts.write_timeout_ms = integer(flag, it.next())?,
            "--snapshot-every" => opts.snapshot_every = positive(flag, it.next())? as u64,
            "--drift" => opts.drift = drift(it.next())?,
            "--reopt-passes" => opts.reopt_passes = integer(flag, it.next())?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.listen.is_empty() {
        return Err("--listen is required for `fairkm serve`".into());
    }
    if opts.tenants.is_empty() {
        return Err("at least one --tenant NAME=DIR is required".into());
    }
    if opts.resume {
        if !opts.common.input.is_empty() {
            return Err("--resume recovers tenants from their state dirs; drop --input".into());
        }
    } else {
        opts.common = opts.common.require_input()?;
    }
    Ok(opts)
}

/// `fairkm serve`: host every `--tenant NAME=DIR` behind one hardened HTTP
/// endpoint. Fresh tenants bootstrap from the `--input` CSV into their
/// state directories; with `--resume` each tenant recovers from its
/// directory instead (snapshot + WAL replay, bitwise). Runs until killed;
/// every acked write is journaled first, so a kill is always safe —
/// restart with `--resume` to continue.
fn run_serve(args: &[String]) -> Result<(), CliError> {
    let opts = parse_serve(args)?;
    let registry: Registry<FsBackend> = Registry::new(opts.max_pending.max(1));
    if opts.resume {
        for (name, dir) in &opts.tenants {
            let backend = FsBackend::open(dir).map_err(|e| e.to_string())?;
            let (durable, report) =
                DurableStream::open(backend, opts.common.threads, Some(opts.snapshot_every))
                    .map_err(|e| persist_cli(&format!("tenant `{name}`: cannot resume"), e))?;
            report_recovery(&report);
            eprintln!(
                "tenant `{name}`: resumed from {dir} (live = {}, objective = {:.4})",
                durable.stream().live(),
                durable.stream().objective()
            );
            registry
                .register(name, durable)
                .map_err(|e| e.to_string())?;
        }
    } else {
        let dataset = load(&opts.common.input)?;
        let mut base = FairKmConfig::new(opts.common.k)
            .with_lambda(opts.common.lambda)
            .with_seed(opts.common.seed)
            .with_normalization(opts.common.normalization)
            .with_objective(opts.common.objective);
        if let Some(threads) = opts.common.threads {
            base = base.with_threads(threads);
        }
        let config = StreamingConfig::from_base(base)
            .with_drift_threshold(opts.drift)
            .with_reopt_passes(opts.reopt_passes);
        for (name, dir) in &opts.tenants {
            let backend = FsBackend::open(dir).map_err(|e| e.to_string())?;
            let durable = DurableStream::create(
                backend,
                dataset.clone(),
                config.clone(),
                Some(opts.snapshot_every),
            )
            .map_err(|e| persist_cli(&format!("tenant `{name}`: cannot bootstrap"), e))?;
            eprintln!(
                "tenant `{name}`: bootstrapped {} rows into {dir} (objective = {:.4})",
                durable.stream().n_slots(),
                durable.stream().objective()
            );
            registry
                .register(name, durable)
                .map_err(|e| e.to_string())?;
        }
    }
    let config = ServerConfig {
        workers: opts.workers,
        queue_depth: opts.queue,
        read_timeout: Duration::from_millis(opts.read_timeout_ms),
        write_timeout: Duration::from_millis(opts.write_timeout_ms),
        ..ServerConfig::default()
    };
    let handle = fairkm::serve::serve(&opts.listen, config, Arc::new(registry))
        .map_err(|e| format!("cannot listen on {}: {e}", opts.listen))?;
    // The test harness (and any supervisor) parses this line for the port.
    eprintln!("listening on {}", handle.addr());
    eprintln!(
        "serving {} tenant(s): {}",
        opts.tenants.len(),
        opts.tenants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Serve until killed. Journal-then-ack makes SIGKILL safe at any
    // instant: restart with --resume and no acked write is lost.
    loop {
        std::thread::park();
    }
}

/// Flags of `fairkm client`.
struct ClientOptions {
    addr: String,
    tenant: String,
    action: String,
    input: Option<String>,
    count: usize,
    retries: u32,
    backoff_ms: u64,
    timeout_ms: u64,
    seed: u64,
}

fn parse_client(args: &[String]) -> Result<ClientOptions, String> {
    let defaults = ClientConfig::default();
    let mut opts = ClientOptions {
        addr: String::new(),
        tenant: String::new(),
        action: String::new(),
        input: None,
        count: 1,
        retries: defaults.retries,
        backoff_ms: defaults.backoff.as_millis() as u64,
        timeout_ms: defaults.timeout.as_millis() as u64,
        seed: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value()?,
            "--tenant" => opts.tenant = value()?,
            "--input" => opts.input = Some(value()?),
            "--count" => opts.count = value()?.parse().map_err(|_| "--count needs an integer")?,
            "--retries" => {
                opts.retries = value()?.parse().map_err(|_| "--retries needs an integer")?
            }
            "--backoff-ms" => {
                opts.backoff_ms = value()?
                    .parse()
                    .map_err(|_| "--backoff-ms needs an integer")?
            }
            "--timeout-ms" => {
                opts.timeout_ms = value()?
                    .parse()
                    .map_err(|_| "--timeout-ms needs an integer")?
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            action if !action.starts_with("--") && opts.action.is_empty() => {
                opts.action = action.to_string();
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr is required for `fairkm client`".into());
    }
    if opts.tenant.is_empty() {
        return Err("--tenant is required for `fairkm client`".into());
    }
    match opts.action.as_str() {
        "assign" | "ingest" | "evict-oldest" | "stats" | "snapshot" => {}
        "" => {
            return Err("client needs an action: assign|ingest|evict-oldest|stats|snapshot".into())
        }
        other => return Err(format!("unknown client action `{other}`")),
    }
    if matches!(opts.action.as_str(), "assign" | "ingest") && opts.input.is_none() {
        return Err(format!("client {} needs --input CSV", opts.action));
    }
    Ok(opts)
}

/// `fairkm client`: one request against a `fairkm serve` endpoint, with
/// the serving crate's seeded retry/backoff loop absorbing 429/503
/// load-shedding. The response body goes to stdout untouched; a wedged
/// tenant's read-only 503 maps to the wedge exit code.
fn run_client(args: &[String]) -> Result<(), CliError> {
    let opts = parse_client(args)?;
    let mut client = Client::new(
        &opts.addr,
        ClientConfig {
            retries: opts.retries,
            backoff: Duration::from_millis(opts.backoff_ms),
            timeout: Duration::from_millis(opts.timeout_ms),
            seed: opts.seed,
            ..ClientConfig::default()
        },
    );
    let rows_body = |path: &Option<String>| -> Result<Vec<u8>, CliError> {
        let dataset = load(path.as_deref().expect("checked in parse_client"))?;
        let rows: Vec<Vec<Value>> = (0..dataset.n_rows())
            .map(|r| dataset.row_values(r).expect("valid row"))
            .collect();
        Ok(fairkm::serve::encode_rows(&rows))
    };
    let tenant = &opts.tenant;
    let (method, path, body) = match opts.action.as_str() {
        "assign" => (
            "POST",
            format!("/tenants/{tenant}/assign"),
            rows_body(&opts.input)?,
        ),
        "ingest" => (
            "POST",
            format!("/tenants/{tenant}/ingest"),
            rows_body(&opts.input)?,
        ),
        "evict-oldest" => {
            let mut body = Vec::new();
            fairkm::core::wire::put_usize(&mut body, opts.count);
            ("POST", format!("/tenants/{tenant}/evict_oldest"), body)
        }
        "stats" => ("GET", format!("/tenants/{tenant}/stats"), Vec::new()),
        "snapshot" => ("POST", format!("/tenants/{tenant}/snapshot"), Vec::new()),
        _ => unreachable!("validated in parse_client"),
    };
    let response = client.request(method, &path, &body).map_err(|e| match e {
        ClientError::Shed { status } => CliError {
            code: EXIT_WEDGED,
            message: format!(
                "server still shedding load (HTTP {status}) after {} retries; \
                 raise --retries/--backoff-ms or wait for the queue to drain",
                opts.retries
            ),
        },
        transport => CliError::from(format!("request failed: {transport}")),
    })?;
    let body_text = String::from_utf8_lossy(&response.body).into_owned();
    if response.status == 200 {
        print!("{body_text}");
        use std::io::Write as _;
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        if let Some(deferred) = response.header("x-snapshot-deferred") {
            eprintln!(
                "warning: write committed, but the cadence snapshot was \
                 deferred (X-Snapshot-Deferred: {deferred})"
            );
        }
        return Ok(());
    }
    // Typed failure: surface the server's own message, and give the wedged
    // read-only degradation its stable exit code.
    let wedged = response.status == 503 && body_text.contains("degraded read-only");
    Err(CliError {
        code: if wedged { EXIT_WEDGED } else { 1 },
        message: format!("HTTP {}: {}", response.status, body_text.trim_end()),
    })
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        common: CommonOptions::new(),
        algorithm: Algorithm::FairKm,
        max_iters: 30,
        minibatch: None,
        fairlet_t: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if opts.common.try_parse(flag, &mut it)? {
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--max-iters" => {
                opts.max_iters = value()?
                    .parse()
                    .map_err(|_| "--max-iters needs an integer")?
            }
            "--minibatch" => {
                let v = value()?;
                opts.minibatch = Some(if v == "auto" {
                    Minibatch::Auto
                } else {
                    let size: usize = v
                        .parse()
                        .map_err(|_| "--minibatch needs a positive integer or `auto`")?;
                    if size == 0 {
                        return Err("--minibatch needs a positive integer or `auto`".into());
                    }
                    Minibatch::Size(size)
                });
            }
            "--algorithm" => {
                opts.algorithm = match value()?.as_str() {
                    "fairkm" => Algorithm::FairKm,
                    "kmeans" => Algorithm::KMeans,
                    "fairlet" => Algorithm::Fairlet,
                    other => return Err(format!("unknown algorithm `{other}`")),
                }
            }
            "--fairlet-t" => {
                let t: usize = value()?
                    .parse()
                    .map_err(|_| "--fairlet-t needs a positive integer")?;
                if t == 0 {
                    return Err("--fairlet-t needs a positive integer".into());
                }
                opts.fairlet_t = t;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    opts.common = opts.common.require_input()?;
    if opts.minibatch.is_some() && opts.algorithm != Algorithm::FairKm {
        return Err("--minibatch only applies to --algorithm fairkm".into());
    }
    if opts.common.objective != ObjectiveKind::Representativity
        && opts.algorithm != Algorithm::FairKm
    {
        return Err("--objective only applies to --algorithm fairkm".into());
    }
    Ok(opts)
}

fn report_metrics(dataset: &Dataset, partition: &Partition, opts: &Options) -> Result<(), String> {
    let matrix = dataset
        .task_matrix(opts.common.normalization)
        .map_err(|e| e.to_string())?;
    // Same worker choice as the fit: explicit --threads goes into the
    // evaluator context; without it the evaluators auto-resolve (env var,
    // then available parallelism).
    let ctx = opts.common.eval_context();
    let co = clustering_objective_with(&matrix, partition, &ctx);
    let sh =
        fairkm_metrics::silhouette_sampled_with(&matrix, partition, 2_000, opts.common.seed, &ctx);
    eprintln!("clustering objective (CO) = {co:.4}, silhouette (SH) = {sh:.4}");
    match dataset.sensitive_space() {
        Ok(space) if space.n_attrs() > 0 => {
            let report = fairness_report(&space, partition);
            eprintln!("fairness (lower = fairer):");
            for attr in report.categorical.iter().chain(&report.numeric) {
                eprintln!(
                    "  {:<24} AE = {:.4}  AW = {:.4}  ME = {:.4}  MW = {:.4}",
                    attr.name, attr.ae, attr.aw, attr.me, attr.mw
                );
            }
            eprintln!(
                "  {:<24} AE = {:.4}  AW = {:.4}  ME = {:.4}  MW = {:.4}",
                "mean", report.mean.ae, report.mean.aw, report.mean.me, report.mean.mw
            );
        }
        _ => eprintln!("no sensitive attributes declared; skipping fairness report"),
    }
    Ok(())
}

/// Write `row,cluster` pairs to `--output` (or stdout): the one shared
/// assignment-sink for both subcommands.
fn write_assignment_pairs(
    pairs: impl Iterator<Item = (usize, usize)>,
    output: Option<&str>,
    what: &str,
) -> Result<(), CliError> {
    let mut sink: Box<dyn Write> = match output {
        Some(path) => Box::new(BufWriter::new(
            File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    writeln!(sink, "row,cluster").map_err(|e| e.to_string())?;
    let mut count = 0usize;
    for (row, cluster) in pairs {
        writeln!(sink, "{row},{cluster}").map_err(|e| e.to_string())?;
        count += 1;
    }
    sink.flush().map_err(|e| e.to_string())?;
    if let Some(path) = output {
        eprintln!("wrote {count} {what} to {path}");
    }
    Ok(())
}
