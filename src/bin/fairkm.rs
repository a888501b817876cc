//! `fairkm` — command-line fair clustering over CSV files.
//!
//! `fairkm --help` lists every subcommand with the flags it takes and the
//! exit codes. Each flag is declared once, in [`FLAGS`]; the parser and
//! that usage text both read the table, so a flag a subcommand does not
//! take is refused by name instead of ignored.
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
use fairkm::serve::{ClientConfig, ClientError, Registry, ServerConfig};
use fairkm::store::{DurableStore, FsBackend};
use fairkm_core::FairKmError;
use fairkm_data::wire::WireError;
use fairkm_data::{read_csv, Dataset, Normalization, Partition, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;
use Group::*;

/// The groups of [`FLAGS`]; a subcommand takes or refuses each group whole.
#[derive(Clone, Copy, PartialEq)]
enum Group {
    Input,
    Output,
    Threads,
    /// `--seed`: the model's seed, and the client's retry-jitter seed.
    Seed,
    /// The model configuration every fitting subcommand shares.
    Model,
    Cluster,
    Replay,
    Drift,
    Monitor,
    StateDir,
    Durability,
    Verify,
    Shard,
    Serve,
    Tenant,
    Client,
}

/// Every flag of every subcommand, once: its name, the hint for its value
/// (empty for a switch) and its group.
const FLAGS: &[(&str, &str, Group)] = &[
    ("--input", "data.csv", Input),
    ("--output", "out.csv", Output),
    ("--threads", "N", Threads),
    ("--seed", "N", Seed),
    ("--k", "N", Model),
    ("--lambda", "heuristic|NUM", Model),
    ("--normalization", "zscore|minmax|none", Model),
    (
        "--objective",
        "representativity|bounded|utilitarian|egalitarian",
        Model,
    ),
    ("--bounds", "LO,HI", Model),
    ("--algorithm", "fairkm|kmeans|fairlet", Cluster),
    ("--fairlet-t", "N", Cluster),
    ("--max-iters", "N", Cluster),
    ("--minibatch", "SIZE|auto", Cluster),
    ("--bootstrap", "N", Replay),
    ("--batch", "N", Replay),
    ("--retain", "N", Replay),
    ("--drift", "T", Drift),
    ("--reopt-passes", "N", Drift),
    ("--monitor-window", "N", Monitor),
    ("--monitor-every", "N", Monitor),
    ("--state-dir", "DIR", StateDir),
    ("--snapshot-every", "N", Durability),
    ("--resume", "", Durability),
    ("--verify", "", Verify),
    ("--shards", "S", Shard),
    ("--block", "B", Shard),
    ("--listen", "ADDR", Serve),
    ("--workers", "N", Serve),
    ("--queue", "N", Serve),
    ("--max-pending", "N", Serve),
    ("--read-timeout-ms", "N", Serve),
    ("--write-timeout-ms", "N", Serve),
    ("--tenant", "NAME[=DIR]", Tenant),
    ("--addr", "ADDR", Client),
    ("--count", "N", Client),
    ("--retries", "N", Client),
    ("--backoff-ms", "N", Client),
    ("--timeout-ms", "N", Client),
];

/// A subcommand: the groups of flags it takes, the flags it cannot run
/// without, and the hint for its one operand (empty if it takes none).
struct Command {
    name: &'static str,
    operand: &'static str,
    required: &'static [&'static str],
    groups: &'static [Group],
    run: fn(&Args) -> Result<(), CliError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "cluster",
        operand: "",
        required: &["--input"],
        groups: &[Input, Output, Threads, Seed, Model, Cluster],
        run: run_cluster,
    },
    Command {
        name: "stream",
        operand: "",
        required: &["--input"],
        groups: &[
            Input, Output, Threads, Seed, Model, Replay, Drift, Monitor, StateDir, Durability,
        ],
        run: run_stream,
    },
    Command {
        name: "shard",
        operand: "",
        required: &["--input", "--shards"],
        groups: &[Input, Output, Threads, Seed, Model, Replay, Drift, Shard],
        run: run_shard,
    },
    Command {
        name: "snapshot",
        operand: "",
        required: &["--state-dir"],
        groups: &[Threads, StateDir],
        run: run_snapshot,
    },
    Command {
        name: "restore",
        operand: "",
        required: &["--state-dir"],
        groups: &[Output, Threads, StateDir, Verify],
        run: run_restore,
    },
    Command {
        name: "serve",
        operand: "",
        required: &["--listen", "--tenant"],
        groups: &[
            Input, Threads, Seed, Model, Drift, Durability, Serve, Tenant,
        ],
        run: run_serve,
    },
    Command {
        name: "client",
        operand: "assign|ingest|evict-oldest|stats|snapshot",
        required: &["--addr", "--tenant"],
        groups: &[Input, Seed, Tenant, Client],
        run: run_client,
    },
];

/// What `fairkm --help` prints after the subcommands.
const USAGE_NOTES: &str = "
serve takes --tenant NAME=DIR, once per tenant; client takes --tenant NAME.
input header cells must be role:kind:name (role: n|s|aux, kind: num|cat).

exit codes scripts can dispatch on:
  0  success
  1  bad arguments (reported with this text) or any other failure
  3  journal write failed (stream wedged) — acked state is safe on disk; reopen with --resume;
     for client: the tenant is read-only or still shedding load after every retry
  4  operation committed, only the snapshot after it failed — do NOT retry the op
  5  state directory already holds a stream — pass --resume or pick an empty directory
  6  state directory unrecoverable (no verifying snapshot / corrupt journal / older format)";

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`]: each
/// subcommand with its operand, its required flags and then every other
/// flag it takes, wrapped to 90 columns.
fn usage() -> String {
    const WIDTH: usize = 90;
    let mut text = String::new();
    for (i, command) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "" };
        let mut line = format!("{lead:<6} fairkm {:<8}", command.name);
        let indent = line.len();
        let taken = FLAGS.iter().filter(|f| command.groups.contains(&f.2));
        let (required, optional): (Vec<_>, Vec<_>) =
            taken.partition(|f| command.required.contains(&f.0));
        let word = |&(name, hint, _): &(&str, &str, Group)| format!("{name} {hint}");
        let words = (!command.operand.is_empty())
            .then(|| command.operand.to_string())
            .into_iter()
            .chain(required.into_iter().map(word))
            .chain(
                optional
                    .into_iter()
                    .map(|f| format!("[{}]", word(f).trim_end())),
            );
        for word in words {
            let word = word.trim_end();
            if line.len() + 1 + word.len() > WIDTH {
                text.push_str(&line);
                text.push('\n');
                line = " ".repeat(indent);
            }
            line.push(' ');
            line.push_str(word);
        }
        text.push_str(&line);
        text.push('\n');
    }
    text + USAGE_NOTES
}

/// A parsed command line: its subcommand, its flags in command-line order
/// (values empty for switches), and its operand.
struct Args {
    command: &'static Command,
    flags: Vec<(&'static str, String)>,
    operand: Option<String>,
}

impl Args {
    /// Parse `argv` (the subcommand first) against [`COMMANDS`] and
    /// [`FLAGS`], refusing every flag the subcommand does not take.
    fn parse(argv: &[String]) -> Result<Args, CliError> {
        let name = argv.first().map_or("", String::as_str);
        let command = COMMANDS.iter().find(|c| c.name == name).ok_or_else(|| {
            let names: Vec<String> = COMMANDS.iter().map(|c| format!("`{}`", c.name)).collect();
            usage_error(format!("the supported commands are {}", names.join(", ")))
        })?;
        let mut args = Args {
            command,
            flags: Vec::new(),
            operand: None,
        };
        let mut it = argv[1..].iter();
        while let Some(arg) = it.next() {
            match FLAGS.iter().find(|(name, _, _)| name == arg) {
                Some((_, _, group)) if !command.groups.contains(group) => {
                    return Err(usage_error(format!(
                        "{arg} is not supported by `fairkm {name}`"
                    )))
                }
                Some(&(flag, hint, _)) => {
                    let value = match hint {
                        "" => String::new(),
                        _ => it
                            .next()
                            .cloned()
                            .ok_or_else(|| usage_error(format!("{flag} needs a value")))?,
                    };
                    args.flags.push((flag, value));
                }
                None if !command.operand.is_empty()
                    && args.operand.is_none()
                    && !arg.starts_with("--") =>
                {
                    args.operand = Some(arg.clone())
                }
                None => return Err(usage_error(format!("unknown flag `{arg}`"))),
            }
        }
        match command.required.iter().find(|flag| !args.has(flag)) {
            Some(flag) => Err(usage_error(format!(
                "{flag} is required for `fairkm {name}`"
            ))),
            None => Ok(args),
        }
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(
            FLAGS
                .iter()
                .any(|(name, _, group)| *name == flag && self.command.groups.contains(group)),
            "`fairkm {}` reads {flag}, which it does not take",
            self.command.name
        );
        let mut values = self.flags.iter().filter(|(name, _)| *name == flag);
        values.next_back().map(|(_, value)| value.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value of a flag in the subcommand's `required` list.
    fn required(&self, flag: &str) -> &str {
        self.value(flag).expect("Args::parse checks required flags")
    }

    /// The value of `flag`, if given, parsed as an integer.
    fn integer<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| usage_error(format!("{flag} needs an integer")))
            })
            .transpose()
    }

    /// The value of `flag`, if given, parsed as a positive integer.
    fn positive(&self, flag: &str) -> Result<Option<usize>, CliError> {
        self.value(flag)
            .map(|v| match v.parse() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(usage_error(format!("{flag} needs a positive integer"))),
            })
            .transpose()
    }

    /// The value of `flag`, if given, read as an integer of milliseconds.
    fn millis(&self, flag: &str) -> Result<Option<Duration>, CliError> {
        Ok(self.integer(flag)?.map(Duration::from_millis))
    }

    /// `--drift`, if given: a finite, non-negative relative threshold.
    fn drift(&self) -> Result<Option<f64>, CliError> {
        self.value("--drift")
            .map(|v| match v.parse::<f64>() {
                Ok(d) if d.is_finite() && d >= 0.0 => Ok(d),
                Ok(_) => Err(usage_error("--drift needs a non-negative number")),
                Err(_) => Err(usage_error("--drift needs a number")),
            })
            .transpose()
    }
}

/// The model configuration of the fitting subcommands: the library's
/// defaults, `k = 5`, and the model flags given.
fn fit_config(args: &Args) -> Result<FairKmConfig, CliError> {
    let mut config = FairKmConfig::new(args.integer("--k")?.unwrap_or(5));
    config.seed = args.integer("--seed")?.unwrap_or(config.seed);
    config.threads = args.positive("--threads")?;
    if let Some(lambda) = args.value("--lambda") {
        config.lambda = match lambda {
            "heuristic" => Lambda::Heuristic,
            number => Lambda::Fixed(
                number
                    .parse()
                    .map_err(|_| usage_error("--lambda needs a number or `heuristic`"))?,
            ),
        };
    }
    if let Some(normalization) = args.value("--normalization") {
        config.normalization = match normalization {
            "zscore" => Normalization::ZScore,
            "minmax" => Normalization::MinMax,
            "none" => Normalization::None,
            other => return Err(usage_error(format!("unknown normalization `{other}`"))),
        };
    }
    if let Some(objective) = args.value("--objective") {
        config.objective = match objective {
            "representativity" => ObjectiveKind::Representativity,
            "bounded" => ObjectiveKind::bounded(),
            "utilitarian" => ObjectiveKind::Utilitarian,
            "egalitarian" => ObjectiveKind::Egalitarian,
            other => return Err(usage_error(format!("unknown objective `{other}`"))),
        };
    }
    if let Some(bounds) = args.value("--bounds") {
        let (lo, hi) = bounds
            .split_once(',')
            .ok_or_else(|| usage_error("--bounds needs LO,HI (e.g. 0.8,1.25)"))?;
        let number = |s: &str| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| usage_error("--bounds needs two numbers LO,HI"))
        };
        let (lower, upper) = (number(lo)?, number(hi)?);
        match config.objective {
            ObjectiveKind::BoundedRepresentation { .. } => {
                config.objective = ObjectiveKind::BoundedRepresentation { lower, upper };
            }
            _ => return Err(usage_error("--bounds only applies to --objective bounded")),
        }
    }
    Ok(config)
}

/// The engine configuration `stream`, `shard` and `serve` bootstrap with.
fn stream_config(args: &Args) -> Result<StreamingConfig, CliError> {
    let mut config = StreamingConfig::from_base(fit_config(args)?);
    config.drift_threshold = args.drift()?.unwrap_or(config.drift_threshold);
    config.reopt_passes = args
        .integer("--reopt-passes")?
        .unwrap_or(config.reopt_passes);
    Ok(config)
}

/// Evaluator context matching the fit's worker choice: explicit
/// `--threads`, else auto-resolution (env var, then available
/// parallelism).
fn eval_context(threads: Option<usize>) -> EvalContext {
    match threads {
        Some(threads) => EvalContext::new().with_threads(threads),
        None => EvalContext::new(),
    }
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
/// scripts can tell "safe to rerun" from "already committed" apart. Only
/// command-line errors print the usage text.
struct CliError {
    code: u8,
    usage: bool,
    message: String,
}

/// A command-line error: exit code 1, printed with the usage text.
fn usage_error(message: impl Into<String>) -> CliError {
    CliError {
        code: 1,
        usage: true,
        message: message.into(),
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            code: 1,
            usage: false,
            message,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        message.to_string().into()
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
        usage: false,
        message: format!("{context}: {e}\n  hint: {hint}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(argv.first().map(String::as_str), Some("--help" | "help")) {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = Args::parse(&argv).and_then(|args| (args.command.run)(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            if e.usage {
                eprintln!("{}", usage());
            }
            ExitCode::from(e.code)
        }
    }
}

fn load(input: &str) -> Result<Dataset, String> {
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    read_csv(file).map_err(|e| format!("cannot parse {input}: {e}"))
}

/// The values of `dataset`'s `rows`, in order.
fn row_values(dataset: &Dataset, rows: Range<usize>) -> Vec<Vec<Value>> {
    rows.map(|r| dataset.row_values(r).expect("valid row"))
        .collect()
}

fn run_cluster(args: &Args) -> Result<(), CliError> {
    let input = args.required("--input");
    let mut config = fit_config(args)?;
    config.max_iters = args.integer("--max-iters")?.unwrap_or(config.max_iters);
    let fairlet_t = args.positive("--fairlet-t")?.unwrap_or(2);
    // `None`: per-move; `Some(None)`: an automatic window; `Some(Some(b))`.
    let minibatch = match args.value("--minibatch") {
        None => None,
        Some("auto") => Some(None),
        Some(size) => match size.parse() {
            Ok(b) if b > 0 => Some(Some(b)),
            _ => {
                return Err(usage_error(
                    "--minibatch needs a positive integer or `auto`",
                ))
            }
        },
    };
    let algorithm = args.value("--algorithm").unwrap_or("fairkm");
    if !matches!(algorithm, "fairkm" | "kmeans" | "fairlet") {
        return Err(usage_error(format!("unknown algorithm `{algorithm}`")));
    }
    for (flag, applies_to) in [
        ("--lambda", "fairkm"),
        ("--objective", "fairkm"),
        ("--max-iters", "fairkm"),
        ("--minibatch", "fairkm"),
        ("--fairlet-t", "fairlet"),
    ] {
        if args.has(flag) && algorithm != applies_to {
            return Err(usage_error(format!(
                "{flag} only applies to --algorithm {applies_to}"
            )));
        }
    }

    let dataset = load(input)?;
    eprintln!(
        "loaded {} rows, {} attributes from {}",
        dataset.n_rows(),
        dataset.schema().len(),
        input
    );

    let partition = match algorithm {
        "fairkm" => {
            let fit = config.clone();
            let model = match minibatch {
                None => FairKm::new(fit).fit(&dataset),
                Some(None) => MiniBatchFairKm::auto(fit).fit(&dataset),
                Some(Some(batch)) => MiniBatchFairKm::new(fit, batch).fit(&dataset),
            }
            .map_err(|e: FairKmError| e.to_string())?;
            eprintln!(
                "FairKM: objective = {}, lambda = {:.1}, iterations = {}, moves = {}, converged = {}",
                objective_label(config.objective),
                model.lambda(),
                model.iterations(),
                model.moves(),
                model.converged()
            );
            model.partition().clone()
        }
        "fairlet" => {
            let matrix = dataset
                .task_matrix(config.normalization)
                .map_err(|e| e.to_string())?;
            let space = dataset.sensitive_space().map_err(|e| e.to_string())?;
            let attr = space
                .categorical()
                .first()
                .ok_or("fairlet needs a categorical sensitive attribute")?;
            let (partition, decomposition) = FairletDecomposer::new(FairletConfig::new(fairlet_t))
                .cluster(
                    &matrix,
                    attr,
                    KMeansConfig::new(config.k).with_seed(config.seed),
                )
                .map_err(|e| e.to_string())?;
            eprintln!(
                "fairlet: {} fairlets over `{}`, decomposition cost = {:.4}, balance >= 1/{}",
                decomposition.fairlets.len(),
                attr.name(),
                decomposition.cost,
                fairlet_t
            );
            partition
        }
        _ => {
            let matrix = dataset
                .task_matrix(config.normalization)
                .map_err(|e| e.to_string())?;
            KMeans::new(KMeansConfig::new(config.k).with_seed(config.seed))
                .fit(&matrix)
                .map_err(|e| e.to_string())?
                .partition
        }
    };

    report_metrics(&dataset, &partition, &config)?;
    let pairs = partition.assignments().iter().copied().enumerate();
    write_assignment_pairs(pairs, args.value("--output"), "assignments")
}

/// Default of `--snapshot-every` for `stream` and `serve`: operations
/// between durable snapshots.
const SNAPSHOT_EVERY: u64 = 8;

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

/// The rows a fresh `stream` or `shard` replay bootstraps from:
/// `--bootstrap` rows, by default a quarter of the file and at least 8
/// points per cluster, clamped to the file (the core rejects k >
/// bootstrap rows itself).
fn bootstrap_rows(dataset: &Dataset, rows: Option<usize>, k: usize) -> Result<Dataset, CliError> {
    let n = dataset.n_rows();
    let rows = match rows {
        Some(rows) if rows > n => {
            return Err(format!("--bootstrap {rows} exceeds the {n} rows available").into())
        }
        Some(rows) => rows,
        None => (n / 4).max(k * 8).min(n),
    };
    let idx: Vec<usize> = (0..rows).collect();
    Ok(dataset.select_rows(&idx).map_err(|e| e.to_string())?)
}

/// `(slot, cluster)` for each of the live `slots`.
fn live_pairs(
    slots: Vec<usize>,
    cluster_of: impl Fn(usize) -> Option<usize>,
) -> impl Iterator<Item = (usize, usize)> {
    slots.into_iter().map(move |slot| {
        let cluster = cluster_of(slot).expect("live slot has a cluster");
        (slot, cluster)
    })
}

fn run_stream(args: &Args) -> Result<(), CliError> {
    let config = stream_config(args)?;
    let bootstrap = args.integer("--bootstrap")?;
    let batch = args.positive("--batch")?.unwrap_or(64);
    let retain: Option<usize> = args.integer("--retain")?;
    let monitor_window = args.positive("--monitor-window")?.unwrap_or(8);
    let monitor_every = args.positive("--monitor-every")?.unwrap_or(1);
    let snapshot_every = args
        .positive("--snapshot-every")?
        .map_or(SNAPSHOT_EVERY, |n| n as u64);
    let state_dir = args.value("--state-dir");
    let resume = args.has("--resume");
    if resume && state_dir.is_none() {
        return Err(usage_error("--resume requires --state-dir"));
    }
    let threads = config.base.threads;
    let dataset = load(args.required("--input"))?;
    let n = dataset.n_rows();

    let mut engine;
    let start_row;
    if resume {
        // Recover from the state directory; the frozen snapshot governs
        // the engine configuration, the CLI only picks the worker pool.
        let dir = state_dir.expect("checked above");
        let backend = FsBackend::open(dir).map_err(|e| e.to_string())?;
        let (durable, report) = DurableStream::open(backend, threads, Some(snapshot_every))
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
        let boot = bootstrap_rows(&dataset, bootstrap, config.base.k)?;
        start_row = boot.n_rows();
        engine = match state_dir {
            None => StreamEngine::Volatile(Box::new(
                StreamingFairKm::bootstrap(boot, config).map_err(|e| e.to_string())?,
            )),
            Some(dir) => {
                let backend = FsBackend::open(dir).map_err(|e| e.to_string())?;
                let durable = DurableStream::create(backend, boot, config, Some(snapshot_every))
                    .map_err(|e| persist_cli("cannot create the state directory", e))?;
                StreamEngine::Durable(Box::new(durable))
            }
        };
        let stream = engine.stream();
        eprintln!(
            "bootstrap: {} rows, k = {}, lambda = {:.1}, fairness objective = {}, objective = {:.4}",
            start_row,
            stream.k(),
            stream.lambda(),
            objective_label(stream.objective_kind()),
            stream.objective()
        );
    }
    let fair_label = objective_label(engine.stream().objective_kind());

    // Replay the remaining rows as arrival batches.
    let arrivals = row_values(&dataset, start_row..n);
    let mut monitor = WindowedFairnessMonitor::new(monitor_window, eval_context(threads));
    for (i, chunk) in arrivals.chunks(batch).enumerate() {
        let report = engine.ingest(chunk)?;
        let mut evicted = 0usize;
        if let Some(cap) = retain {
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
        if i.is_multiple_of(monitor_every) {
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
            usage: false,
            message: format!(
                "sealing snapshot failed (every batch is already journaled; \
                 do not re-ingest): {e}\n  hint: run `fairkm snapshot` against \
                 the same --state-dir once storage recovers"
            ),
        })?;
        eprintln!(
            "state sealed: snapshot seq {} in {}",
            seq,
            state_dir.unwrap_or("?")
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
    let pairs = live_pairs(stream.live_slots(), |slot| stream.assignment_of(slot));
    write_assignment_pairs(pairs, args.value("--output"), "live assignments")
}

/// `fairkm snapshot`: recover the state directory and roll a fresh
/// snapshot, bounding the next recovery's replay to zero entries.
fn run_snapshot(args: &Args) -> Result<(), CliError> {
    let threads = args.positive("--threads")?;
    let state_dir = args.required("--state-dir");
    let backend = FsBackend::open(state_dir).map_err(|e| e.to_string())?;
    let (mut durable, report) = DurableStream::open(backend, threads, None)
        .map_err(|e| persist_cli("cannot recover the state directory", e))?;
    report_recovery(&report);
    let seq = durable
        .snapshot_now()
        .map_err(|e| persist_cli("snapshot failed", e))?;
    eprintln!(
        "snapshot: seq {} written to {} (live = {}, objective = {:.4})",
        seq,
        state_dir,
        durable.stream().live(),
        durable.stream().objective()
    );
    Ok(())
}

/// `fairkm restore`: recover the state directory (after an optional
/// offline integrity pass over every file) and write the recovered live
/// assignments.
fn run_restore(args: &Args) -> Result<(), CliError> {
    let threads = args.positive("--threads")?;
    let backend = FsBackend::open(args.required("--state-dir")).map_err(|e| e.to_string())?;
    if args.has("--verify") {
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
    let (durable, report) = DurableStream::open(backend, threads, None)
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
    let pairs = live_pairs(stream.live_slots(), |slot| stream.assignment_of(slot));
    write_assignment_pairs(pairs, args.value("--output"), "recovered live assignments")
}

/// `fairkm shard`: replay the `stream` workload through the sharded
/// engine next to the single-node engine and report bitwise agreement.
fn run_shard(args: &Args) -> Result<(), CliError> {
    use fairkm::shard::{ShardPlan, ShardedFairKm};

    let config = stream_config(args)?;
    let bootstrap = args.integer("--bootstrap")?;
    let batch = args.positive("--batch")?.unwrap_or(64);
    let retain: Option<usize> = args.integer("--retain")?;
    let shards = args.positive("--shards")?.expect("a required flag");
    let block = args
        .positive("--block")?
        .unwrap_or(ShardPlan::DEFAULT_BLOCK);

    let dataset = load(args.required("--input"))?;
    let n = dataset.n_rows();
    let boot = bootstrap_rows(&dataset, bootstrap, config.base.k)?;
    let bootstrap_rows = boot.n_rows();
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
    let arrivals = row_values(&dataset, bootstrap_rows..n);
    for (i, chunk) in arrivals.chunks(batch).enumerate() {
        let report = sharded.ingest(chunk).map_err(|e| e.to_string())?;
        single.ingest(chunk).map_err(|e| e.to_string())?;
        let mut evicted = 0usize;
        if let Some(cap) = retain {
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

    let pairs = live_pairs(sharded.live_slots(), |slot| sharded.assignment_of(slot));
    write_assignment_pairs(pairs, args.value("--output"), "live assignments")
}

/// `fairkm serve`: host every `--tenant NAME=DIR` behind one hardened HTTP
/// endpoint. Fresh tenants bootstrap from the `--input` CSV into their
/// state directories; with `--resume` each tenant recovers from its
/// directory instead (snapshot + WAL replay, bitwise). Runs until killed;
/// every acked write is journaled first, so a kill is always safe —
/// restart with `--resume` to continue.
fn run_serve(args: &Args) -> Result<(), CliError> {
    let listen = args.required("--listen");
    let tenants = args
        .flags
        .iter()
        .filter(|(flag, _)| *flag == "--tenant")
        .map(|(_, tenant)| match tenant.split_once('=') {
            None => Err(usage_error(
                "--tenant needs NAME=DIR (e.g. prod=/var/lib/fairkm/prod)",
            )),
            Some(("", _) | (_, "")) => Err(usage_error(
                "--tenant needs NAME=DIR with both parts non-empty",
            )),
            Some(pair) => Ok(pair),
        })
        .collect::<Result<Vec<(&str, &str)>, CliError>>()?;
    // The CSV fresh tenants bootstrap from; none when they resume.
    let input = match (args.has("--resume"), args.value("--input")) {
        (false, Some(input)) => Some(input),
        (true, None) => None,
        (true, Some(_)) => {
            return Err(usage_error(
                "--resume recovers tenants from their state dirs; drop --input",
            ))
        }
        (false, None) => {
            return Err(usage_error(
                "--input is required for `fairkm serve` without --resume",
            ))
        }
    };
    let config = stream_config(args)?;
    let snapshot_every = args
        .positive("--snapshot-every")?
        .map_or(SNAPSHOT_EVERY, |n| n as u64);
    let mut server = ServerConfig::default();
    server.workers = args.positive("--workers")?.unwrap_or(server.workers);
    server.queue_depth = args.positive("--queue")?.unwrap_or(server.queue_depth);
    server.read_timeout = args
        .millis("--read-timeout-ms")?
        .unwrap_or(server.read_timeout);
    server.write_timeout = args
        .millis("--write-timeout-ms")?
        .unwrap_or(server.write_timeout);
    let registry: Registry<FsBackend> = Registry::new(args.positive("--max-pending")?.unwrap_or(8));
    let dataset = input.map(load).transpose()?;
    for &(name, dir) in &tenants {
        let backend = FsBackend::open(dir).map_err(|e| e.to_string())?;
        let durable = match &dataset {
            None => {
                let (durable, report) =
                    DurableStream::open(backend, config.base.threads, Some(snapshot_every))
                        .map_err(|e| persist_cli(&format!("tenant `{name}`: cannot resume"), e))?;
                report_recovery(&report);
                eprintln!(
                    "tenant `{name}`: resumed from {dir} (live = {}, objective = {:.4})",
                    durable.stream().live(),
                    durable.stream().objective()
                );
                durable
            }
            Some(dataset) => {
                let durable = DurableStream::create(
                    backend,
                    dataset.clone(),
                    config.clone(),
                    Some(snapshot_every),
                )
                .map_err(|e| persist_cli(&format!("tenant `{name}`: cannot bootstrap"), e))?;
                eprintln!(
                    "tenant `{name}`: bootstrapped {} rows into {dir} (objective = {:.4})",
                    durable.stream().n_slots(),
                    durable.stream().objective()
                );
                durable
            }
        };
        registry
            .register(name, durable)
            .map_err(|e| e.to_string())?;
    }
    // Each tenant holds its own copy; the CSV is not kept while serving.
    drop(dataset);
    let handle = fairkm::serve::serve(listen, server, Arc::new(registry))
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    // The test harness (and any supervisor) parses this line for the port.
    eprintln!("listening on {}", handle.addr());
    eprintln!(
        "serving {} tenant(s): {}",
        tenants.len(),
        tenants
            .iter()
            .map(|&(name, _)| name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Serve until killed. Journal-then-ack makes SIGKILL safe at any
    // instant: restart with --resume and no acked write is lost.
    loop {
        std::thread::park();
    }
}

/// `fairkm client`: one request against a `fairkm serve` endpoint, with
/// the serving crate's seeded retry/backoff loop absorbing 429/503
/// load-shedding. The response body goes to stdout untouched; a wedged
/// tenant's read-only 503 maps to the wedge exit code.
fn run_client(args: &Args) -> Result<(), CliError> {
    let mut config = ClientConfig::default();
    config.retries = args.integer("--retries")?.unwrap_or(config.retries);
    config.seed = args.integer("--seed")?.unwrap_or(config.seed);
    config.backoff = args.millis("--backoff-ms")?.unwrap_or(config.backoff);
    config.timeout = args.millis("--timeout-ms")?.unwrap_or(config.timeout);
    let count = args.integer("--count")?.unwrap_or(1);
    let action = args.operand.as_deref().ok_or_else(|| {
        usage_error("client needs an action: assign|ingest|evict-oldest|stats|snapshot")
    })?;
    let (method, route) = match action {
        "assign" => ("POST", "assign"),
        "ingest" => ("POST", "ingest"),
        "evict-oldest" => ("POST", "evict_oldest"),
        "stats" => ("GET", "stats"),
        "snapshot" => ("POST", "snapshot"),
        other => return Err(usage_error(format!("unknown client action `{other}`"))),
    };
    let body = match (route, args.value("--input")) {
        ("assign" | "ingest", None) => {
            return Err(usage_error(format!("client {action} needs --input CSV")))
        }
        ("assign" | "ingest", Some(input)) => {
            let dataset = load(input)?;
            fairkm::serve::encode_rows(&row_values(&dataset, 0..dataset.n_rows()))
        }
        ("evict_oldest", _) => {
            let mut body = Vec::new();
            fairkm::core::wire::put_usize(&mut body, count);
            body
        }
        _ => Vec::new(),
    };
    let retries = config.retries;
    let mut client = fairkm::serve::Client::new(args.required("--addr"), config);
    let path = format!("/tenants/{}/{route}", args.required("--tenant"));
    let response = client.request(method, &path, &body).map_err(|e| match e {
        ClientError::Shed { status } => CliError {
            code: EXIT_WEDGED,
            usage: false,
            message: format!(
                "server still shedding load (HTTP {status}) after {retries} retries; \
                 raise --retries/--backoff-ms or wait for the queue to drain"
            ),
        },
        transport => CliError::from(transport.to_string()),
    })?;
    let body_text = String::from_utf8_lossy(&response.body).into_owned();
    if response.status == 200 {
        print!("{body_text}");
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
        usage: false,
        message: format!("HTTP {}: {}", response.status, body_text.trim_end()),
    })
}

fn report_metrics(
    dataset: &Dataset,
    partition: &Partition,
    config: &FairKmConfig,
) -> Result<(), String> {
    let matrix = dataset
        .task_matrix(config.normalization)
        .map_err(|e| e.to_string())?;
    // Same worker choice as the fit: explicit --threads goes into the
    // evaluator context; without it the evaluators auto-resolve (env var,
    // then available parallelism).
    let ctx = eval_context(config.threads);
    let co = clustering_objective_with(&matrix, partition, &ctx);
    let sh = fairkm_metrics::silhouette_sampled_with(&matrix, partition, 2_000, config.seed, &ctx);
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
/// assignment-sink for every subcommand that writes assignments.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag is named once, sits in a group some subcommand takes,
    /// and every required flag is one its subcommand takes.
    #[test]
    fn the_flag_table_is_consistent() {
        for (i, &(name, _, group)) in FLAGS.iter().enumerate() {
            assert!(name.starts_with("--"), "{name}");
            assert!(FLAGS[i + 1..].iter().all(|f| f.0 != name), "{name} twice");
            assert!(COMMANDS.iter().any(|c| c.groups.contains(&group)), "{name}");
        }
        for command in COMMANDS {
            for flag in command.required {
                let group = FLAGS.iter().find(|f| f.0 == *flag).map(|f| f.2);
                assert!(
                    group.is_some_and(|g| command.groups.contains(&g)),
                    "{} requires {flag}",
                    command.name
                );
            }
        }
    }
}
