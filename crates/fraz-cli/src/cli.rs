//! The `fraz` command-line interface: subcommand dispatch and the `run`,
//! `validate` and `codecs` subcommands, kept dependency-free (no clap in the
//! offline workspace); every subcommand reads its flags through
//! `crate::args`.
//!
//! Exit codes: `0` success, `1` configuration or runtime failure, `2` usage
//! error, `3` when `--strict` is given and some field missed its target
//! (FRaZ's infeasible-but-best-effort answer is otherwise a success, as in
//! the paper's Algorithm 2).

use std::path::Path;

use fraz_pressio::registry;
use fraz_tune::CACHE_FILE;

use crate::args::{exit_code, Command, Failure};
use crate::config::load_with_dir;
use crate::report::{append_jsonl, print_tune_cache};
use crate::runner::{run, RunOverrides};
use crate::{loadgen_cmd, serve_cmd, store_cmd};

const USAGE: &str = "fraz — fixed-ratio lossy compression over dataset manifests

USAGE:
    fraz run --config <manifest.toml|json> [OPTIONS]
    fraz validate --config <manifest.toml|json>
    fraz store <create|info|read> [OPTIONS]   (see `fraz store help`)
    fraz serve [OPTIONS]                      (see `fraz serve --help`)
    fraz loadgen [OPTIONS]                    (see `fraz loadgen --help`)
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

static FRAZ: Command = Command {
    name: "fraz",
    usage: USAGE,
    flags: &[],
};

static RUN: Command = Command {
    name: "fraz run",
    usage: USAGE,
    flags: &[
        ("--config", Some("-c"), true),
        ("--out", Some("-o"), true),
        ("--workers", Some("-w"), true),
        ("--compressor", None, true),
        ("--tune-cache", None, true),
        ("--strict", None, false),
        ("--quiet", Some("-q"), false),
    ],
};

static VALIDATE: Command = Command {
    name: "fraz validate",
    usage: USAGE,
    flags: &[("--config", Some("-c"), true), ("--compressor", None, true)],
};

fn cmd_run(args: &[String]) -> Result<u8, Failure> {
    let args = RUN.parse(args)?;
    let config = Path::new(args.required("--config")?);
    let overrides = RunOverrides {
        workers: args.num("--workers")?,
        compressor: args.value("--compressor").map(String::from),
        tune_cache: args.path("--tune-cache"),
    };
    let quiet = args.has("--quiet");
    let (manifest, dir) = load_with_dir(config)?;
    let report = run(&manifest, &dir, &overrides)?;
    if !quiet {
        println!(
            "{} · {} field(s) · {} worker(s) · {:.0} ms",
            manifest.application,
            report.rows.len(),
            report.workers,
            report.elapsed_ms
        );
        print!("{}", report.render_table());
        if let (Some(dir), Some(stats)) = (&overrides.tune_cache, &report.tune_cache) {
            print_tune_cache(&dir.join(CACHE_FILE), stats);
        }
    }
    if let Some(out) = args.path("--out") {
        append_jsonl(&out, &report.jsonl_lines())?;
        if !quiet {
            println!(
                "wrote {} JSONL record(s) to {}",
                report.rows.len(),
                out.display()
            );
        }
    }
    if args.has("--strict") && !report.all_feasible() {
        eprintln!("fraz: --strict: some fields missed their target");
        return Ok(3);
    }
    Ok(0)
}

fn cmd_validate(args: &[String]) -> Result<u8, Failure> {
    let args = VALIDATE.parse(args)?;
    let (manifest, dir) = load_with_dir(Path::new(args.required("--config")?))?;
    let resolved = manifest.resolve(&dir)?;
    // Pre-flight the compressor name too — `validate` exists to catch
    // everything `run` would reject, and an unknown codec is exactly
    // that (the registry error carries a did-you-mean suggestion).
    let compressor_name = args.value("--compressor").unwrap_or(&resolved.compressor);
    registry::build_arc(compressor_name, &fraz_pressio::Options::new())?;
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
    Ok(0)
}

fn cmd_codecs() -> Result<u8, Failure> {
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
    Ok(0)
}

/// Entry point: dispatch `args` (without the program name) and return the
/// process exit code.
pub fn run_cli(args: &[String]) -> u8 {
    exit_code(match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("store") => store_cmd::store(&args[1..]),
        Some("serve") => serve_cmd::serve(&args[1..]),
        Some("loadgen") => loadgen_cmd::loadgen(&args[1..]),
        Some("codecs") => cmd_codecs(),
        Some("help" | "--help" | "-h") => Err(Failure::Help(&FRAZ)),
        Some("--version" | "version") => {
            println!("fraz {}", env!("CARGO_PKG_VERSION"));
            Ok(0)
        }
        Some(other) => Err(FRAZ.usage(format!("unknown command `{other}`"))),
        None => Err(FRAZ.usage("a command is required")),
    })
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
    fn help_exits_0_on_every_subcommand() {
        for command in [
            &["run"][..],
            &["validate"],
            &["store", "create"],
            &["store", "info"],
            &["store", "read"],
            &["serve"],
            &["loadgen"],
        ] {
            let mut line = args(command);
            line.push("--help".into());
            assert_eq!(run_cli(&line), 0, "{command:?}");
        }
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
