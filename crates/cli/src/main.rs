//! `upsim` — command-line front end for the UPSIM methodology.
//!
//! Subcommands:
//!
//! * `export-case-study <dir>` — write the USI case-study models
//!   (infrastructure, printing service, Table I mapping) as XML files,
//! * `generate -i <infra.xml> -s <service.xml> -m <mapping.xml>` — run the
//!   pipeline and print the UPSIM (optionally `--dot <file>`,
//!   `--xmi <file>`),
//! * `paths -i <infra.xml> --from <a> --to <b>` — all simple paths between
//!   components (`--from`/`--to` accept comma-separated lists — every
//!   pair is enumerated over one shared interned graph view; paths print
//!   in DFS order),
//! * `availability -i ... -s ... -m ...` — user-perceived steady-state
//!   service availability (`--links`, `--paper-formula`, `--mc <samples>`),
//! * `redundancy -i ... -s ... -m ...` — simple paths and node-disjoint
//!   routes per mapping pair,
//! * `validate -i ... [-s ... [-m ...]]` — well-formedness checks,
//! * `serve [--case-study] [--addr <host:port>] [--workers <n>]
//!   [--cache-cap <entries>] [--state-dir <dir>] [--save-every <n>]` — run
//!   the resident query engine behind the line-delimited TCP protocol;
//!   `--cache-cap` bounds the perspective cache (LRU eviction beyond it),
//!   and with `--state-dir` the engine restores the last XML snapshot +
//!   journal suffix on start and journals every update durably,
//! * `query --addr <host:port> --from <client> --to <provider>` — one
//!   perspective query against a running server,
//! * `campaign --spec "<clauses>"` — a mass what-if campaign: against a
//!   running server (`--addr`, streaming its `PROGRESS` lines) or locally
//!   from `--case-study`/`-i`/`-s` models (printing the full ranked
//!   report),
//! * `importance` — the Sec. VII component ranking for one perspective:
//!   Birnbaum/criticality/Fussell-Vesely importance, the exact
//!   availability drop if each component dies, and optionally
//!   (`--sensitivity`) dA/dMTBF / dA/dMTTR,
//! * `restore --state-dir <dir>` — smoke-check a state directory: load
//!   the snapshot, replay the journal, report the resulting epoch.
//!
//! The perspective commands (`availability`, `importance`, `redundancy`)
//! price a perspective as the server does: `evaluate_perspective` on the
//! infrastructure's interned view, with no model space, so they answer or
//! refuse exactly what the server answers or refuses. Only `generate` runs
//! the full pipeline. Every Step 7 walk has the server's budget of
//! `MAX_DFS_FRAMES` DFS frames: `paths`, `generate` and `availability
//! --links`, which list every path, charge it per pair.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error (unknown
//! command, a flag the command does not read, a flag missing the flag it
//! is read beside or given with one it excludes, a missing flag or a bad
//! flag value — usage is printed to stderr).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use dependability::importance::component_importance;
use dependability::transform::{evaluate_perspective, AnalysisOptions, ServiceAvailabilityModel};
use dependability::ParamEstimator;
use upsim_core::discovery::{discover_with_workspace, DiscoveryOptions, DiscoveryWorkspace};
use upsim_core::generate::object_diagram_dot;
use upsim_core::infrastructure::Infrastructure;
use upsim_core::interned::InternedGraph;
use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
use upsim_core::pipeline::{discover_and_merge, PerspectiveRun, UpsimPipeline};
use upsim_core::service::CompositeService;

const USAGE: &str = "upsim — user-perceived service infrastructure models (IPPS 2013)

USAGE:
  upsim export-case-study <dir>
  upsim generate     -i <infra.xml> -s <service.xml> -m <mapping.xml> [--dot <file>] [--xmi <file>]
  upsim paths        -i <infra.xml> --from <comp[,comp...]> --to <comp[,comp...]>
  upsim availability -i <infra.xml> -s <service.xml> -m <mapping.xml> [--links] [--paper-formula] [--mc <samples>] [--transient] [--sensitivity]
  upsim redundancy   -i <infra.xml> -s <service.xml> -m <mapping.xml>
  upsim validate     -i <infra.xml> [-s <service.xml> [-m <mapping.xml>]]
  upsim serve        [--case-study | -i <infra.xml> -s <service.xml> | --model <name>=<spec> ...] [--addr <host:port>] [--workers <n>] [--cache-cap <entries>] [--state-dir <dir>] [--save-every <n>]
  upsim query        --addr <host:port> --from <client> --to <provider> [--model <name>] [--pipeline <depth> [--count <n>]]
  upsim campaign     --spec \"<clauses>\" [--addr <host:port> [--model <name>] | --case-study | -i <infra.xml> -s <service.xml>]
  upsim importance   [--case-study --from <client> --to <provider> | -i <infra.xml> -s <service.xml> -m <mapping.xml>] [--links] [--paper-formula] [--sensitivity]
  upsim restore      --state-dir <dir> [--case-study | -i <infra.xml> -s <service.xml>] [--model <name>]
  upsim help

Campaign spec clauses (space-separated inside --spec): kill-each-component,
cut-each-link, substitute-each-service, scale-mtbf:<class>:<f>[,f..] (class
`*` sweeps every deployed class; several clauses cross-product),
pairs:<client>:<provider>[,..] (default: every client x every provider),
mc:<samples>[:<seed>] (common-random-number pricing by default),
independent-seeds (per-scenario draw streams), posterior (block-resample
availabilities from observation-fed parameter posteriors; requires mc:,
rows gain band95= uncertainty bands), top:<n>, limit:<n>, json.

Pipelined queries: `query --pipeline <depth>` keeps <depth> requests in
flight on one connection (the server answers in receive order) and repeats
the query --count times (default 1000), reporting throughput — the wire
protocol's pipelining mode exercised from the command line.

Multi-model serving: repeat --model to register several named models behind
one server; <spec> is either `case-study` or
`<infra.xml>:<service.xml>[:<mapping.xml>]` (without a mapping file the
generic ping-pong mapper is used). Connections pick a model with the USE
protocol verb and list them with MODELS; without USE they talk to the first
registered model.
";

/// A CLI failure, split by whose fault it was: a usage error (exit 2,
/// usage printed to stderr) or a runtime error (exit 1).
enum CliError {
    Usage(String),
    Runtime(String),
}

/// `String` errors bubbling up from command bodies are runtime failures.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command-line flags. Every occurrence of a flag is kept in order,
/// so repeatable flags (`--model`) see all their values while single-value
/// flags read the last one.
type Flags = HashMap<String, Vec<String>>;

/// The commands that read local models: the case study, or `-i` with `-s`.
const LOCAL: &str = "serve restore campaign";

/// Flags the named commands read only together (`true`) or only apart
/// (`false`): `(commands, flag, other, together)`, with each flag an alias
/// group as in `known`.
const PAIRS: &[(&str, &str, &str, bool)] = &[
    ("validate", "m mapping", "s service", true),
    ("importance", "case-study", "i infrastructure", false),
    ("importance", "from", "i infrastructure", false),
    ("importance", "to", "i infrastructure", false),
    ("importance", "s service", "i infrastructure", true),
    ("importance", "m mapping", "i infrastructure", true),
    ("query", "count", "pipeline", true),
    ("campaign", "model", "addr", true),
    ("campaign", "addr", "case-study", false),
    ("campaign", "addr", "i infrastructure", false),
    ("campaign", "addr", "s service", false),
    ("serve", "save-every", "state-dir", true),
    ("serve", "model", "case-study", false),
    ("serve", "model", "i infrastructure", false),
    ("serve", "model", "s service", false),
    (LOCAL, "case-study", "i infrastructure", false),
    (LOCAL, "case-study", "s service", false),
    (LOCAL, "s service", "i infrastructure", true),
];

/// Parses `--flag value` pairs and boolean `--flag`s into a map. A flag
/// outside `known`, the space-separated flags `command` reads (aliases
/// included), is a usage error that names it, and so is a flag that
/// breaks one of `command`'s [`PAIRS`], naming both flags: no command
/// runs with a flag it ignores.
fn parse_flags(command: &str, args: &[String], known: &[&str]) -> Result<Flags, CliError> {
    let mut flags: Flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if !arg.starts_with('-') {
            return Err(usage_err(format!("unexpected positional argument '{arg}'")));
        }
        let key = arg.trim_start_matches('-').to_string();
        if !known
            .iter()
            .flat_map(|k| k.split_whitespace())
            .any(|k| k == key)
        {
            return Err(usage_err(format!("'upsim {command}' has no flag '{arg}'")));
        }
        let boolean = matches!(
            key.as_str(),
            "links" | "paper-formula" | "transient" | "sensitivity" | "case-study"
        );
        if boolean {
            flags.entry(key).or_default().push("true".into());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| usage_err(format!("flag '{arg}' needs a value")))?
                .clone();
            flags.entry(key).or_default().push(value);
            i += 2;
        }
    }
    let given = |group: &str| group.split_whitespace().any(|k| flags.contains_key(k));
    for &(commands, first, other, together) in PAIRS {
        if commands.split_whitespace().any(|c| c == command)
            && given(first)
            && given(other) != together
        {
            let relation = if together {
                "requires"
            } else {
                "cannot be combined with"
            };
            let (first, other) = (dashed(first), dashed(other));
            return Err(usage_err(format!("{first} {relation} {other}")));
        }
    }
    Ok(flags)
}

/// An alias group's first name as typed: `-i`, `--case-study`.
fn dashed(group: &str) -> String {
    let name = group.split_whitespace().next().unwrap_or(group);
    let dashes = if name.len() == 1 { "-" } else { "--" };
    format!("{dashes}{name}")
}

fn flag<'a>(flags: &'a Flags, names: &[&str]) -> Option<&'a str> {
    names
        .iter()
        .find_map(|n| flags.get(*n).and_then(|values| values.last()))
        .map(String::as_str)
}

/// All values of a repeatable flag, in command-line order.
fn flag_values<'a>(flags: &'a Flags, name: &str) -> &'a [String] {
    flags.get(name).map(Vec::as_slice).unwrap_or(&[])
}

fn require<'a>(flags: &'a Flags, names: &[&str]) -> Result<&'a str, CliError> {
    flag(flags, names).ok_or_else(|| usage_err(format!("missing required flag --{}", names[0])))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))
}

fn write(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write '{path}': {e}"))
}

fn load_models(
    flags: &Flags,
) -> Result<(Infrastructure, CompositeService, ServiceMapping), CliError> {
    let infra = Infrastructure::from_xml(&read(require(flags, &["i", "infrastructure"])?)?)
        .map_err(|e| e.to_string())?;
    let service = CompositeService::from_xml(&read(require(flags, &["s", "service"])?)?)
        .map_err(|e| e.to_string())?;
    let mapping = ServiceMapping::from_xml(&read(require(flags, &["m", "mapping"])?)?)
        .map_err(|e| e.to_string())?;
    Ok((infra, service, mapping))
}

/// Prices a perspective as the server does: [`evaluate_perspective`] on
/// the infrastructure's interned view (Steps 7–8 within the frame budget,
/// no model space), with the paper's Formula 1 if `paper_formula`.
fn evaluate(
    infra: &Infrastructure,
    service: &CompositeService,
    mapping: &ServiceMapping,
    paper_formula: bool,
) -> Result<(InternedGraph, PerspectiveRun, ServiceAvailabilityModel), CliError> {
    infra.validate().map_err(|e| e.to_string())?;
    let view = infra.to_interned_graph();
    let (run, model, _) = evaluate_perspective(
        infra,
        service,
        &view,
        mapping,
        &ParamEstimator::new(),
        paper_formula,
        &mut DiscoveryWorkspace::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok((view, run, model))
}

/// The model `availability` and `importance` price: the evaluator's, or
/// with `--links`, where every simple path is a minimal path set,
/// `from_run` over the listing (`discover_and_merge`, within the same
/// budget per pair, still no model space).
fn availability_model(
    infra: &Infrastructure,
    service: &CompositeService,
    mapping: &ServiceMapping,
    flags: &Flags,
) -> Result<ServiceAvailabilityModel, CliError> {
    let paper_formula = flag(flags, &["paper-formula"]).is_some();
    if flag(flags, &["links"]).is_none() {
        return Ok(evaluate(infra, service, mapping, paper_formula)?.2);
    }
    infra.validate().map_err(|e| e.to_string())?;
    mapping
        .validate(service, infra)
        .map_err(|e| e.to_string())?;
    let view = infra.to_interned_graph();
    let run = discover_and_merge(
        infra,
        service,
        mapping,
        &view,
        &mut DiscoveryWorkspace::default(),
    )
    .map_err(|e| e.to_string())?;
    let options = AnalysisOptions {
        include_links: true,
        paper_formula,
    };
    Ok(ServiceAvailabilityModel::from_run(infra, &run, options))
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        "export-case-study" => export_case_study(args.get(1).map(String::as_str).unwrap_or(".")),
        other => {
            type Body = fn(&Flags) -> Result<(), CliError>;
            const MODELS: &str = "i infrastructure s service m mapping";
            const INITIAL: &str = "case-study i infrastructure s service";
            // The flags each command reads, aliases included.
            let (known, body): (&[&str], Body) = match other {
                "generate" => (&[MODELS, "dot xmi"], generate),
                "paths" => (&["i infrastructure from to"], paths),
                "availability" => (
                    &[MODELS, "links paper-formula mc transient sensitivity"],
                    availability,
                ),
                "redundancy" => (&[MODELS], redundancy),
                "validate" => (&[MODELS], validate),
                "serve" => (
                    &[INITIAL, "model addr workers cache-cap state-dir save-every"],
                    serve,
                ),
                "query" => (&["addr from to model pipeline count"], query),
                "campaign" => (&[INITIAL, "spec addr model"], campaign),
                "importance" => (
                    &[MODELS, "case-study from to links paper-formula sensitivity"],
                    importance,
                ),
                "restore" => (&[INITIAL, "state-dir model"], restore),
                _ => {
                    return Err(usage_err(format!(
                        "unknown command '{other}'; try 'upsim help'"
                    )))
                }
            };
            body(&parse_flags(other, &args[1..], known)?)
        }
    }
}

/// Initial models for `serve`/`restore`: the USI case study by default,
/// or `-i`/`-s` XML files with the generic ping-pong mapper.
fn initial_models(
    flags: &Flags,
) -> Result<
    (
        Infrastructure,
        CompositeService,
        upsim_server::PerspectiveMapper,
    ),
    CliError,
> {
    if flag(flags, &["i", "infrastructure"]).is_none() {
        Ok((
            netgen::usi::usi_infrastructure(),
            netgen::usi::printing_service(),
            Arc::new(|_: &CompositeService, client: &str, provider: &str| {
                netgen::usi::perspective_mapping(client, provider)
            }),
        ))
    } else {
        let infra = Infrastructure::from_xml(&read(require(flags, &["i", "infrastructure"])?)?)
            .map_err(|e| e.to_string())?;
        let service = CompositeService::from_xml(&read(require(flags, &["s", "service"])?)?)
            .map_err(|e| e.to_string())?;
        Ok((infra, service, upsim_server::pingpong_mapper()))
    }
}

/// One `--model <name>=<spec>` occurrence, decoded. `<spec>` is
/// `case-study` (USI models + Table-I-shaped mapper) or
/// `<infra.xml>:<service.xml>[:<mapping.xml>]`; without a mapping file the
/// generic ping-pong mapper derives one per perspective, with one the
/// mapping is fixed for every perspective of that model.
fn parse_model_spec(arg: &str) -> Result<upsim_server::ModelSpec, CliError> {
    let (name, spec) = arg.split_once('=').ok_or_else(|| {
        usage_err(format!(
            "--model expects <name>=<spec>, got '{arg}' (spec: case-study or infra.xml:service.xml[:mapping.xml])"
        ))
    })?;
    if !upsim_server::valid_model_name(name) {
        return Err(usage_err(format!(
            "invalid model name '{name}' (use 1-64 ASCII alphanumerics, '-', '_', '.')"
        )));
    }
    let (infra, service, mapper): (_, _, upsim_server::PerspectiveMapper) = if spec == "case-study"
    {
        (
            netgen::usi::usi_infrastructure(),
            netgen::usi::printing_service(),
            Arc::new(|_: &CompositeService, client: &str, provider: &str| {
                netgen::usi::perspective_mapping(client, provider)
            }),
        )
    } else {
        let mut parts = spec.split(':');
        let (Some(infra_path), Some(service_path)) = (parts.next(), parts.next()) else {
            return Err(usage_err(format!(
                "--model spec '{spec}' needs at least <infra.xml>:<service.xml>"
            )));
        };
        let mapping_path = parts.next();
        if parts.next().is_some() {
            return Err(usage_err(format!(
                "--model spec '{spec}' has too many ':'-separated parts"
            )));
        }
        let infra = Infrastructure::from_xml(&read(infra_path)?).map_err(|e| e.to_string())?;
        let service =
            CompositeService::from_xml(&read(service_path)?).map_err(|e| e.to_string())?;
        let mapper: upsim_server::PerspectiveMapper = match mapping_path {
            Some(path) => {
                let mapping = ServiceMapping::from_xml(&read(path)?).map_err(|e| e.to_string())?;
                Arc::new(move |_: &CompositeService, _: &str, _: &str| mapping.clone())
            }
            None => upsim_server::pingpong_mapper(),
        };
        (infra, service, mapper)
    };
    let snapshot = upsim_server::ModelSnapshot::new(infra, service).map_err(|e| e.to_string())?;
    Ok(upsim_server::ModelSpec {
        name: name.to_string(),
        snapshot,
        mapper,
    })
}

/// `upsim serve` — load models (USI case study by default, or several
/// named `--model`s), restore any durable state, start the resident
/// engine, and serve the TCP protocol until `SHUTDOWN`.
fn serve(flags: &Flags) -> Result<(), CliError> {
    let workers = match flag(flags, &["workers"]) {
        Some(n) => n
            .parse()
            .map_err(|_| usage_err("--workers expects a thread count"))?,
        None => 0,
    };
    let addr = flag(flags, &["addr"]).unwrap_or("127.0.0.1:7413");
    let cache_capacity = match flag(flags, &["cache-cap"]) {
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|cap| *cap > 0)
            .ok_or_else(|| usage_err("--cache-cap expects a positive entry count"))?,
        None => upsim_server::DEFAULT_CACHE_CAPACITY,
    };
    let state_dir = flag(flags, &["state-dir"]);
    let save_every: usize = match flag(flags, &["save-every"]) {
        Some(n) => n
            .parse()
            .map_err(|_| usage_err("--save-every expects an update count"))?,
        None => 0,
    };

    let model_args = flag_values(flags, "model");
    let engine = if model_args.is_empty() {
        // Single unnamed model: the pre-registry behavior, byte-identical
        // wire responses, legacy state-dir layout.
        let (infra, service, mapper) = initial_models(flags)?;
        let mut snapshot =
            upsim_server::ModelSnapshot::new(infra, service).map_err(|e| e.to_string())?;
        if let Some(dir) = state_dir {
            let report = upsim_server::persist::restore(std::path::Path::new(dir), snapshot)
                .map_err(|e| e.to_string())?;
            println!(
                "restored state from {dir}: epoch {} ({} of {} journal entries replayed, snapshot {})",
                report.snapshot.epoch,
                report.replayed,
                report.journal_entries,
                if report.from_snapshot {
                    "loaded"
                } else {
                    "absent"
                },
            );
            snapshot = report.snapshot;
        }
        let config = upsim_server::EngineConfig {
            workers,
            cache_capacity,
            mapper,
            ..Default::default()
        };
        upsim_server::Engine::new(snapshot, config)
    } else {
        let mut models = Vec::with_capacity(model_args.len());
        for arg in model_args {
            let mut spec = parse_model_spec(arg)?;
            if let Some(dir) = state_dir {
                let subtree =
                    upsim_server::persist::model_dir(std::path::Path::new(dir), &spec.name);
                let report = upsim_server::persist::restore(&subtree, spec.snapshot)
                    .map_err(|e| format!("model '{}': {e}", spec.name))?;
                println!(
                    "restored model '{}' from {dir}: epoch {} ({} of {} journal entries replayed, snapshot {})",
                    spec.name,
                    report.snapshot.epoch,
                    report.replayed,
                    report.journal_entries,
                    if report.from_snapshot {
                        "loaded"
                    } else {
                        "absent"
                    },
                );
                spec.snapshot = report.snapshot;
            }
            models.push(spec);
        }
        let config = upsim_server::EngineConfig {
            workers,
            cache_capacity,
            ..Default::default()
        };
        upsim_server::Engine::with_models(models, config).map_err(|e| usage_err(e.to_string()))?
    };
    if let Some(dir) = state_dir {
        engine
            .enable_persistence(dir, save_every)
            .map_err(|e| e.to_string())?;
    }
    let server =
        upsim_server::serve(engine, addr).map_err(|e| format!("cannot bind '{addr}': {e}"))?;
    let models = server.engine().models();
    if models.len() == 1 {
        println!(
            "upsim-server listening on {} ({} workers, service '{}')",
            server.local_addr(),
            server.engine().worker_count(),
            server.engine().service_name()
        );
    } else {
        let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
        println!(
            "upsim-server listening on {} ({} workers, {} models: {})",
            server.local_addr(),
            server.engine().worker_count(),
            models.len(),
            names.join(", ")
        );
    }
    println!(
        "protocol: QUERY <client> <provider> | BATCH c:p ... | MC c p n [seed] | UPDATE ... | \
         STATS | SAVE | USE <model> | MODELS | SHUTDOWN"
    );
    server.join();
    println!("upsim-server stopped");
    Ok(())
}

/// `upsim restore` — smoke-check a state directory without serving. A
/// directory with a `models.txt` manifest is walked model by model
/// (optionally narrowed with `--model`), reporting each shard's restored
/// epoch; a manifest-less directory is the legacy single-model layout and
/// restores as before. Exit 1 on a corrupt manifest, journal, or snapshot.
fn restore(flags: &Flags) -> Result<(), CliError> {
    let dir = require(flags, &["state-dir"])?;
    let root = std::path::Path::new(dir);
    let manifest = upsim_server::persist::read_manifest(root).map_err(|e| e.to_string())?;
    let Some(names) = manifest else {
        if flag(flags, &["model"]).is_some() {
            return Err(usage_err(
                "--model needs a multi-model state directory (this one has no models.txt manifest)",
            ));
        }
        let (infra, service, _mapper) = initial_models(flags)?;
        let snapshot =
            upsim_server::ModelSnapshot::new(infra, service).map_err(|e| e.to_string())?;
        let report = upsim_server::persist::restore(root, snapshot).map_err(|e| e.to_string())?;
        println!(
            "state '{}' OK: epoch {} service '{}' devices {} links {}",
            dir,
            report.snapshot.epoch,
            report.snapshot.service_name(),
            report.snapshot.infrastructure.device_count(),
            report.snapshot.infrastructure.link_count(),
        );
        println!(
            "journal: {} entries, {} replayed on top of the {}",
            report.journal_entries,
            report.replayed,
            if report.from_snapshot {
                "saved snapshot"
            } else {
                "initial models (no snapshot on disk)"
            },
        );
        return Ok(());
    };
    if let Some(wanted) = flag(flags, &["model"]) {
        if !names.iter().any(|name| name == wanted) {
            return Err(CliError::Runtime(format!(
                "model '{wanted}' is not in the manifest (registered: {})",
                names.join(", ")
            )));
        }
    }
    println!("manifest: {} model(s): {}", names.len(), names.join(", "));
    let mut checked = 0usize;
    for name in &names {
        if let Some(wanted) = flag(flags, &["model"]) {
            if name != wanted {
                continue;
            }
        }
        // Journal-only subtrees replay onto the `--case-study`/`-i`/`-s`
        // fallback models; a subtree with its own snapshot ignores them.
        let (infra, service, _mapper) = initial_models(flags)?;
        let fallback =
            upsim_server::ModelSnapshot::new(infra, service).map_err(|e| e.to_string())?;
        let subtree = upsim_server::persist::model_dir(root, name);
        let report = upsim_server::persist::restore(&subtree, fallback)
            .map_err(|e| format!("model '{name}': {e}"))?;
        println!(
            "model '{}' OK: epoch {} service '{}' devices {} links {} ({} of {} journal entries replayed, snapshot {})",
            name,
            report.snapshot.epoch,
            report.snapshot.service_name(),
            report.snapshot.infrastructure.device_count(),
            report.snapshot.infrastructure.link_count(),
            report.replayed,
            report.journal_entries,
            if report.from_snapshot {
                "loaded"
            } else {
                "absent"
            },
        );
        checked += 1;
    }
    println!("state '{}' OK: {} model(s) checked", dir, checked);
    Ok(())
}

/// `upsim query` — one-shot TCP client for a running `upsim serve`.
fn query(flags: &Flags) -> Result<(), CliError> {
    let addr = require(flags, &["addr"])?;
    let from = require(flags, &["from"])?;
    let to = require(flags, &["to"])?;
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    if let Some(model) = flag(flags, &["model"]) {
        writer
            .write_all(format!("USE {model}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("cannot select model: {e}"))?;
        let mut ack = String::new();
        reader
            .read_line(&mut ack)
            .map_err(|e| format!("cannot read USE response: {e}"))?;
        let ack = ack.trim_end();
        println!("{ack}");
        if ack.starts_with("ERR") {
            return Err(CliError::Runtime(format!(
                "server rejected the model selection: {ack}"
            )));
        }
    }
    if let Some(depth) = flag(flags, &["pipeline"]) {
        let depth: usize = depth
            .parse()
            .ok()
            .filter(|d| *d > 0)
            .ok_or_else(|| usage_err("--pipeline expects a positive depth"))?;
        let count: usize = match flag(flags, &["count"]) {
            Some(n) => n
                .parse()
                .ok()
                .filter(|c| *c > 0)
                .ok_or_else(|| usage_err("--count expects a positive request count"))?,
            None => 1000,
        };
        return pipelined_queries(reader, writer, from, to, depth, count);
    }
    writer
        .write_all(format!("QUERY {from} {to}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send query: {e}"))?;
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let response = response.trim_end();
    println!("{response}");
    if response.starts_with("ERR") {
        return Err(CliError::Runtime(format!(
            "server rejected the query: {response}"
        )));
    }
    Ok(())
}

/// `query --pipeline <depth>`: repeats the same `QUERY` keeping up to
/// `depth` requests in flight on the connection. The server's pipelining
/// contract (replies in receive order) lets one thread run a sliding
/// window: fill the window, then read one / write one until `count`
/// requests have been answered.
fn pipelined_queries(
    mut reader: BufReader<std::net::TcpStream>,
    mut writer: std::net::TcpStream,
    from: &str,
    to: &str,
    depth: usize,
    count: usize,
) -> Result<(), CliError> {
    let request = format!("QUERY {from} {to}\n");
    let started = std::time::Instant::now();
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut last = String::new();
    while received < count {
        while sent < count && sent - received < depth {
            writer
                .write_all(request.as_bytes())
                .map_err(|e| format!("cannot send query: {e}"))?;
            sent += 1;
        }
        writer
            .flush()
            .map_err(|e| format!("cannot flush queries: {e}"))?;
        last.clear();
        let n = reader
            .read_line(&mut last)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if n == 0 {
            return Err(CliError::Runtime(
                "server closed the connection mid-pipeline".to_string(),
            ));
        }
        received += 1;
        if last.starts_with("ERR") {
            return Err(CliError::Runtime(format!(
                "server rejected query {received}: {}",
                last.trim_end()
            )));
        }
    }
    let elapsed = started.elapsed();
    println!("{}", last.trim_end());
    println!(
        "pipelined {count} queries at depth {depth} in {:.1} ms ({:.0} queries/s)",
        elapsed.as_secs_f64() * 1e3,
        count as f64 / elapsed.as_secs_f64()
    );
    Ok(())
}

/// `upsim campaign` — a mass what-if campaign, remote or local.
///
/// With `--addr` the spec is shipped to a running server as one
/// `CAMPAIGN` line and every response line (streamed `PROGRESS`
/// milestones, then the final `OK campaign[-json]`) is echoed. Without
/// `--addr` the campaign runs in-process against the `--case-study` (or
/// `-i`/`-s`) models on one thread and prints the full ranked report.
fn campaign(flags: &Flags) -> Result<(), CliError> {
    let spec_text = require(flags, &["spec"])?;
    if let Some(addr) = flag(flags, &["addr"]) {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        if let Some(model) = flag(flags, &["model"]) {
            writer
                .write_all(format!("USE {model}\n").as_bytes())
                .and_then(|()| writer.flush())
                .map_err(|e| format!("cannot select model: {e}"))?;
            let mut ack = String::new();
            reader
                .read_line(&mut ack)
                .map_err(|e| format!("cannot read USE response: {e}"))?;
            let ack = ack.trim_end();
            println!("{ack}");
            if ack.starts_with("ERR") {
                return Err(CliError::Runtime(format!(
                    "server rejected the model selection: {ack}"
                )));
            }
        }
        writer
            .write_all(format!("CAMPAIGN {spec_text}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("cannot send campaign: {e}"))?;
        loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("cannot read response: {e}"))?;
            if n == 0 {
                return Err(CliError::Runtime(
                    "server closed the connection mid-campaign".to_string(),
                ));
            }
            let line = line.trim_end();
            println!("{line}");
            if line.starts_with("OK ") {
                return Ok(());
            }
            if line.starts_with("ERR") {
                return Err(CliError::Runtime(format!(
                    "server rejected the campaign: {line}"
                )));
            }
        }
    }
    // Local mode: same spec grammar, same evaluation code, one thread.
    let spec = upsim_campaign::CampaignSpec::parse(spec_text).map_err(CliError::Runtime)?;
    let json = spec.json;
    let (infra, service, mapper) = initial_models(flags)?;
    let input = upsim_campaign::CampaignInput::prepare(
        infra,
        service,
        mapper,
        DiscoveryOptions,
        None,
        std::sync::Arc::new(dependability::ParamEstimator::new()),
        spec,
    )
    .map_err(CliError::Runtime)?;
    let (baseline, outcomes) = upsim_campaign::run_serial(&input).map_err(CliError::Runtime)?;
    let report = upsim_campaign::aggregate(&input, &baseline, &outcomes);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(())
}

/// `upsim importance` — the Sec. VII "which ICT components can be the
/// cause" ranking for one perspective: Birnbaum / criticality /
/// Fussell-Vesely importance plus the exact availability drop were each
/// component to die (`ΔA = p·B`), optionally with parameter
/// sensitivities.
fn importance(flags: &Flags) -> Result<(), CliError> {
    let (infra, service, mapping) = if flag(flags, &["i", "infrastructure"]).is_none() {
        let from = require(flags, &["from"])?;
        let to = require(flags, &["to"])?;
        (
            netgen::usi::usi_infrastructure(),
            netgen::usi::printing_service(),
            netgen::usi::perspective_mapping(from, to),
        )
    } else {
        load_models(flags)?
    };
    let model = availability_model(&infra, &service, &mapping, flags)?;
    println!(
        "perspective availability (exact, BDD): {:.9}",
        model.availability_bdd()
    );
    let drops: HashMap<String, f64> = dependability::perturb::kill_deltas(&model)
        .into_iter()
        .collect();
    println!("component importance (Birnbaum-ranked):");
    for imp in component_importance(&model) {
        println!(
            "  {:<12} B = {:.3e}  criticality = {:.4}  FV = {:.4}  ΔA(kill) = {:.3e}",
            imp.name,
            imp.birnbaum,
            imp.criticality,
            imp.fussell_vesely,
            drops.get(&imp.name).copied().unwrap_or(0.0)
        );
    }
    if flag(flags, &["sensitivity"]).is_some() {
        println!("parameter sensitivity (per hour, most MTTR-sensitive first):");
        let mut sens = dependability::sensitivity::component_sensitivities(&model);
        sens.sort_by(|a, b| b.d_mttr.abs().partial_cmp(&a.d_mttr.abs()).unwrap());
        for s in sens {
            println!(
                "  {:<12} dA/dMTBF = {:+.3e}  dA/dMTTR = {:+.3e}",
                s.name, s.d_mtbf, s.d_mttr
            );
        }
    }
    Ok(())
}

fn export_case_study(dir: &str) -> Result<(), CliError> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create '{dir}': {e}"))?;
    let infra = netgen::usi::usi_infrastructure();
    let service = netgen::usi::printing_service();
    let mapping = netgen::usi::table_i_mapping();
    let second = netgen::usi::second_perspective_mapping();
    write(&format!("{dir}/usi-infrastructure.xml"), &infra.to_xml())?;
    write(&format!("{dir}/printing-service.xml"), &service.to_xml())?;
    write(&format!("{dir}/mapping-t1-p2.xml"), &mapping.to_xml())?;
    write(&format!("{dir}/mapping-t15-p3.xml"), &second.to_xml())?;
    println!("wrote 4 case-study model files to {dir}/");
    Ok(())
}

fn generate(flags: &Flags) -> Result<(), CliError> {
    let (infra, service, mapping) = load_models(flags)?;
    let mut pipeline = UpsimPipeline::new(infra, service, mapping).map_err(|e| e.to_string())?;
    let run = pipeline.run().map_err(|e| e.to_string())?;

    println!("UPSIM '{}'", run.upsim.name);
    print!(
        "{}",
        upsim_core::statistics::run_statistics(pipeline.infrastructure(), &run).render()
    );
    for inst in &run.upsim.instances {
        println!("  {}", inst.signature());
    }
    for d in &run.discovered {
        println!(
            "pair '{}' ({} -> {}): {} path(s)",
            d.pair.atomic_service,
            d.pair.requester,
            d.pair.provider,
            d.len()
        );
    }
    for timing in &run.timings {
        println!(
            "step {}: {:?}{}",
            timing.step,
            timing.duration,
            if timing.cached { " (cached)" } else { "" }
        );
    }
    if let Some(path) = flag(flags, &["dot"]) {
        write(path, &object_diagram_dot(&run.upsim))?;
        println!("wrote DOT to {path}");
    }
    if let Some(path) = flag(flags, &["xmi"]) {
        write(path, &uml::xmi::object_diagram_to_xml(&run.upsim))?;
        println!("wrote XMI to {path}");
    }
    Ok(())
}

fn paths(flags: &Flags) -> Result<(), CliError> {
    let infra = Infrastructure::from_xml(&read(require(flags, &["i", "infrastructure"])?)?)
        .map_err(|e| e.to_string())?;
    let from = require(flags, &["from"])?;
    let to = require(flags, &["to"])?;
    // One interned view (name table + block-cut tree) and one reusable
    // workspace serve every requested endpoint pair: `--from`/`--to`
    // accept comma-separated lists, and the graph extraction is no longer
    // repeated per pair (previously `discover` rebuilt it each call).
    let view = infra.to_interned_graph();
    let mut workspace = DiscoveryWorkspace::default();
    let mut pairs = Vec::new();
    for from in from.split(',').filter(|s| !s.is_empty()) {
        for to in to.split(',').filter(|s| !s.is_empty()) {
            pairs.push(ServiceMappingPair::new("cli", from, to));
        }
    }
    if pairs.is_empty() {
        return Err(usage_err("--from/--to need at least one component each"));
    }
    for pair in &pairs {
        let d = discover_with_workspace(&view, pair, &mut workspace).map_err(|e| e.to_string())?;
        for i in 0..d.len() {
            println!("{}", d.render_path_at(i));
        }
        println!(
            "{} path(s) between {} and {}",
            d.len(),
            pair.requester,
            pair.provider
        );
    }
    Ok(())
}

fn availability(flags: &Flags) -> Result<(), CliError> {
    let (infra, service, mapping) = load_models(flags)?;
    let model = availability_model(&infra, &service, &mapping, flags)?;

    println!("components ({}):", model.components.len());
    for c in &model.components {
        println!(
            "  {:<12} MTBF {:>10}  MTTR {:>6}  A = {:.9}",
            c.name, c.mtbf, c.mttr, c.availability
        );
    }
    for (i, system) in model.systems.iter().enumerate() {
        println!(
            "pair '{}' ({} -> {}): {} minimal path set(s), A = {:.9}",
            system.atomic_service,
            system.requester,
            system.provider,
            system.path_sets.len(),
            model.pair_availability_bdd(i)
        );
    }
    println!(
        "service availability (exact, BDD):       {:.9}",
        model.availability_bdd()
    );
    println!(
        "service availability (pairwise product): {:.9}",
        model.availability_pairwise_product()
    );
    if let Some(samples) = flag(flags, &["mc"]) {
        let samples: usize = samples
            .parse()
            .map_err(|_| usage_err("--mc expects a sample count"))?;
        if samples == 0 {
            return Err(usage_err("--mc expects a positive sample count"));
        }
        // The compiled bit-sliced kernel: 64 trials per word, and the
        // counter-based draws make the estimate independent of how many
        // workers the host offers.
        let mc = model.compile_mc().run(samples, 0, 2013);
        let (lo, hi) = mc.confidence_95();
        println!(
            "service availability (Monte-Carlo, {} samples): {:.6} [{:.6}, {:.6}]",
            mc.samples, mc.estimate, lo, hi
        );
    }
    println!("component importance (Birnbaum-ranked):");
    for imp in component_importance(&model) {
        println!(
            "  {:<12} B = {:.3e}  criticality = {:.4}  FV = {:.4}",
            imp.name, imp.birnbaum, imp.criticality, imp.fussell_vesely
        );
    }
    if flag(flags, &["transient"]).is_some() {
        let transient = dependability::transient::TransientAnalysis::new(&model);
        println!("transient curves:");
        println!("  {:>10} {:>14} {:>14}", "t [h]", "A(t)", "R(t)");
        for t in [0.0, 1.0, 8.0, 24.0, 168.0, 720.0, 8760.0] {
            println!(
                "  {:>10} {:>14.9} {:>14.9}",
                t,
                transient.availability_at(t),
                transient.reliability_at(t)
            );
        }
    }
    if flag(flags, &["sensitivity"]).is_some() {
        println!("parameter sensitivity (per hour, most MTTR-sensitive first):");
        let mut sens = dependability::sensitivity::component_sensitivities(&model);
        sens.sort_by(|a, b| b.d_mttr.abs().partial_cmp(&a.d_mttr.abs()).unwrap());
        for s in sens {
            println!(
                "  {:<12} dA/dMTBF = {:+.3e}  dA/dMTTR = {:+.3e}",
                s.name, s.d_mtbf, s.d_mttr
            );
        }
    }
    Ok(())
}

fn redundancy(flags: &Flags) -> Result<(), CliError> {
    let (infra, service, mapping) = load_models(flags)?;
    let (view, run, _) = evaluate(&infra, &service, &mapping, false)?;
    let node = |name: &str| {
        view.node_of(name)
            .expect("a validated mapping names devices")
    };
    println!("node-disjoint routes per mapping pair (Menger):");
    for p in &run.paths.pairs {
        let disjoint = ict_graph::disjoint::max_disjoint_paths(
            view.graph(),
            node(&p.pair.requester),
            node(&p.pair.provider),
        );
        println!(
            "  {:<22} {} -> {}: {} simple path(s), {} disjoint route(s)",
            p.pair.atomic_service,
            p.pair.requester,
            p.pair.provider,
            p.paths,
            if disjoint == usize::MAX {
                "∞".to_string()
            } else {
                disjoint.to_string()
            }
        );
    }
    Ok(())
}

fn validate(flags: &Flags) -> Result<(), CliError> {
    let infra = Infrastructure::from_xml(&read(require(flags, &["i", "infrastructure"])?)?)
        .map_err(|e| e.to_string())?;
    infra.validate().map_err(|e| e.to_string())?;
    println!(
        "infrastructure '{}' OK: {} classes, {} devices, {} links",
        infra.name,
        infra.classes.classes.len(),
        infra.device_count(),
        infra.link_count()
    );
    if let Some(path) = flag(flags, &["s", "service"]) {
        let service = CompositeService::from_xml(&read(path)?).map_err(|e| e.to_string())?;
        println!(
            "service '{}' OK: {} atomic services",
            service.name(),
            service.atomic_services().len()
        );
        if let Some(mpath) = flag(flags, &["m", "mapping"]) {
            let mapping = ServiceMapping::from_xml(&read(mpath)?).map_err(|e| e.to_string())?;
            mapping
                .validate(&service, &infra)
                .map_err(|e| e.to_string())?;
            println!(
                "mapping OK: {} pairs, all resolvable",
                mapping.pairs().len()
            );
        }
    }
    Ok(())
}
