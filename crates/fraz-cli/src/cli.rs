//! The `fraz` command-line interface: argument parsing and subcommand
//! dispatch, kept dependency-free (no clap in the offline workspace).
//!
//! Exit codes: `0` success, `1` configuration or runtime failure, `2` usage
//! error, `3` when `--strict` is given and some field missed its target
//! (FRaZ's infeasible-but-best-effort answer is otherwise a success, as in
//! the paper's Algorithm 2).

use std::path::{Path, PathBuf};

use fraz_data::manifest::Manifest;
use fraz_pressio::registry;

use crate::config::load_manifest;
use crate::runner::{run, RunOverrides};

const USAGE: &str = "fraz — fixed-ratio lossy compression over dataset manifests

USAGE:
    fraz run --config <manifest.toml|json> [OPTIONS]
    fraz validate --config <manifest.toml|json>
    fraz store <create|info|read> [OPTIONS]   (see `fraz store help`)
    fraz serve [OPTIONS]                      (see `fraz serve --help`)
    fraz codecs
    fraz help

OPTIONS (run):
    --config <PATH>       dataset manifest (TOML or JSON)
    --out <PATH>          append per-field JSONL records to this file
    --workers <N>         worker threads (default: manifest, then all cores)
    --compressor <NAME>   registry backend (default: manifest, then `sz`)
    --tune-cache <DIR>    persistent tuning cache: seed searches from bounds
                          remembered by earlier runs, record new ones
    --strict              exit 3 if any field misses its target
    --quiet               suppress the per-field table

See ARCHITECTURE.md for the paper-to-code map and README.md for a worked
manifest example.";

/// Parsed command line for `fraz run` / `fraz validate`.
struct CommonArgs {
    config: PathBuf,
    out: Option<PathBuf>,
    overrides: RunOverrides,
    strict: bool,
    quiet: bool,
}

enum ArgError {
    Usage(String),
}

fn parse_common(args: &[String]) -> Result<CommonArgs, ArgError> {
    let mut config = None;
    let mut out = None;
    let mut overrides = RunOverrides::default();
    let mut strict = false;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| ArgError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--config" | "-c" => config = Some(PathBuf::from(value_of("--config")?)),
            "--out" | "-o" => out = Some(PathBuf::from(value_of("--out")?)),
            "--workers" | "-w" => {
                let raw = value_of("--workers")?;
                let parsed: usize = raw.parse().map_err(|_| {
                    ArgError::Usage(format!(
                        "--workers needs a non-negative integer, got `{raw}`"
                    ))
                })?;
                overrides.workers = Some(parsed);
            }
            "--compressor" => overrides.compressor = Some(value_of("--compressor")?),
            "--tune-cache" => overrides.tune_cache = Some(PathBuf::from(value_of("--tune-cache")?)),
            "--strict" => strict = true,
            "--quiet" | "-q" => quiet = true,
            other => return Err(ArgError::Usage(format!("unknown option `{other}`"))),
        }
    }
    let config = config.ok_or_else(|| ArgError::Usage("--config is required".to_string()))?;
    Ok(CommonArgs {
        config,
        out,
        overrides,
        strict,
        quiet,
    })
}

/// Load a manifest and report errors on stderr (`None` means exit 1).
fn load_or_report(path: &Path) -> Option<(Manifest, PathBuf)> {
    match load_manifest(path) {
        Ok(manifest) => {
            // `parent()` of a bare file name is `Some("")`, which is not a
            // walkable directory — a bare `--config manifest.toml` means
            // "the manifest sits in the current directory".
            let dir = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
                _ => PathBuf::from("."),
            };
            Some((manifest, dir))
        }
        Err(e) => {
            eprintln!("fraz: {e}");
            None
        }
    }
}

fn cmd_run(args: &[String]) -> u8 {
    let parsed = match parse_common(args) {
        Ok(parsed) => parsed,
        Err(ArgError::Usage(msg)) => {
            eprintln!("fraz run: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    let Some((manifest, dir)) = load_or_report(&parsed.config) else {
        return 1;
    };
    let report = match run(&manifest, &dir, &parsed.overrides) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };
    if !parsed.quiet {
        println!(
            "{} · {} field(s) · {} worker(s) · {:.0} ms",
            manifest.application,
            report.rows.len(),
            report.workers,
            report.elapsed_ms
        );
        print!("{}", report.render_table());
        if let Some(cache) = &report.tune_cache {
            println!(
                "tune-cache {}: {} hit(s), {} miss(es), {} new bound(s)",
                cache.path, cache.hits, cache.misses, cache.stores
            );
            if cache.corrupt_lines > 0 {
                eprintln!(
                    "fraz: tune-cache: skipped {} damaged line(s); \
                     the flush above rewrote the file",
                    cache.corrupt_lines
                );
            }
        }
    }
    if let Some(out) = &parsed.out {
        use std::io::Write;
        let mut payload = report.jsonl_lines().join("\n");
        payload.push('\n');
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(payload.as_bytes()));
        if let Err(e) = appended {
            eprintln!("fraz: cannot write `{}`: {e}", out.display());
            return 1;
        }
        if !parsed.quiet {
            println!(
                "wrote {} JSONL record(s) to {}",
                report.rows.len(),
                out.display()
            );
        }
    }
    if parsed.strict && !report.all_feasible() {
        eprintln!("fraz: --strict: some fields missed their target");
        return 3;
    }
    0
}

fn cmd_validate(args: &[String]) -> u8 {
    let parsed = match parse_common(args) {
        Ok(parsed) => parsed,
        Err(ArgError::Usage(msg)) => {
            eprintln!("fraz validate: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    // Silently ignoring run-only flags would mask a misused invocation.
    if parsed.out.is_some()
        || parsed.strict
        || parsed.quiet
        || parsed.overrides.workers.is_some()
        || parsed.overrides.tune_cache.is_some()
    {
        eprintln!(
            "fraz validate: only --config and --compressor apply \
             (--out/--strict/--quiet/--workers/--tune-cache are `run` flags)\n\n{USAGE}"
        );
        return 2;
    }
    let Some((manifest, dir)) = load_or_report(&parsed.config) else {
        return 1;
    };
    let resolved = match manifest.resolve(&dir) {
        Ok(resolved) => resolved,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };
    // Pre-flight the compressor name too — `validate` exists to catch
    // everything `run` would reject, and an unknown codec is exactly
    // that (the registry error carries a did-you-mean suggestion).
    let compressor_name = parsed
        .overrides
        .compressor
        .as_deref()
        .unwrap_or(&resolved.compressor);
    if let Err(e) = registry::build_arc(compressor_name, &fraz_pressio::Options::new()) {
        eprintln!("fraz: {e}");
        return 1;
    }
    println!(
        "{}: {} field(s), compressor `{compressor_name}` — manifest OK",
        resolved.application,
        resolved.fields.len(),
    );
    for field in &resolved.fields {
        let first = &field.series[0];
        println!(
            "  {:<16} {} step(s)  {} {:?}  target {}",
            field.name,
            field.series.len(),
            first.dims,
            first.dtype(),
            field.target
        );
    }
    0
}

fn cmd_codecs() -> u8 {
    println!("registered codecs (process-wide default registry):");
    for name in registry::names() {
        if let Some(desc) = registry::describe(&name) {
            let aliases = if desc.aliases.is_empty() {
                String::new()
            } else {
                format!(" (aliases: {})", desc.aliases.join(", "))
            };
            println!(
                "  {:<10} {}–{}D  {}{}{}",
                desc.name,
                desc.dims.min,
                desc.dims.max,
                desc.bound_kind.label(),
                if desc.error_bounded() {
                    ""
                } else {
                    " [not searchable]"
                },
                aliases
            );
            if !desc.summary.is_empty() {
                println!("             {}", desc.summary);
            }
        }
    }
    0
}

/// Entry point: dispatch `args` (without the program name) and return the
/// process exit code.
pub fn run_cli(args: &[String]) -> u8 {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("store") => crate::store_cmd::run_store(&args[1..]),
        Some("serve") => crate::serve_cmd::run_serve(&args[1..]),
        Some("codecs") => cmd_codecs(),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            0
        }
        Some("--version") | Some("version") => {
            println!("fraz {}", env!("CARGO_PKG_VERSION"));
            0
        }
        Some(other) => {
            eprintln!("fraz: unknown command `{other}`\n\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run_cli(&args(&["frobnicate"])), 2);
        assert_eq!(run_cli(&args(&["run"])), 2); // --config missing
        assert_eq!(
            run_cli(&args(&["run", "--workers", "x", "--config", "m.toml"])),
            2
        );
        assert_eq!(run_cli(&args(&[])), 2);
    }

    #[test]
    fn help_and_codecs_exit_0() {
        assert_eq!(run_cli(&args(&["help"])), 0);
        assert_eq!(run_cli(&args(&["codecs"])), 0);
        assert_eq!(run_cli(&args(&["--version"])), 0);
    }

    #[test]
    fn missing_manifest_exits_1() {
        assert_eq!(run_cli(&args(&["run", "--config", "/not/there.toml"])), 1);
        assert_eq!(
            run_cli(&args(&["validate", "--config", "/not/there.json"])),
            1
        );
    }
}
