//! The `fraz store` subcommands: write manifest-described fields into a
//! chunked [`fraz_store`] container directory, inspect it, and read
//! (sub)regions back out.
//!
//! Keys follow the `<field>/t<step>` convention, one container object per
//! time-step, so a store directory holds a whole application and `info`
//! can list it without touching any payload bytes.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fraz_core::BoundPredictor;
use fraz_data::io::write_raw;
use fraz_store::{write_array_seeded, ArrayReader, FsStore, Store};

use crate::args::{exit_code, Command, Failure};
use crate::config::{load_with_dir, FieldBudget};
use crate::report::print_tune_cache;
use crate::runner::open_tune_cache;

const USAGE: &str = "fraz store — chunked array store with per-chunk tuned bounds

USAGE:
    fraz store create --config <manifest> --store <DIR> [OPTIONS]
    fraz store info   --store <DIR> [--key <KEY>]
    fraz store read   --store <DIR> --key <KEY> [--region <SPEC>] [--out <PATH>]

OPTIONS (create):
    --config <PATH>       dataset manifest (TOML or JSON)
    --store <DIR>         store root directory (created if missing)
    --chunk <AxBxC>       chunk shape, e.g. 16x64x64 (default: 64 per axis)
    --compressor <NAME>   registry backend (default: manifest, then `sz`)
    --tune-cache <DIR>    persistent tuning cache: seed chunk searches from
                          bounds remembered by earlier runs
    --quiet               suppress the per-object lines

OPTIONS (read):
    --key <KEY>           object key, e.g. CLOUDf/t0
    --region <SPEC>       half-open ranges per axis, e.g. 0..4,8..24
                          (default: the whole array)
    --out <PATH>          write the decoded region as raw little-endian bytes

Fields with a `target_ratio` are tuned per chunk to that ratio; fields with
`min_psnr` are tuned per chunk to that PSNR (each chunk scored against its
own value range).  `read` fetches and decodes only the chunks intersecting
the requested region.";

static STORE: Command = Command {
    name: "fraz store",
    usage: USAGE,
    flags: &[],
};

static CREATE: Command = Command {
    name: "fraz store create",
    usage: USAGE,
    flags: &[
        ("--config", Some("-c"), true),
        ("--store", None, true),
        ("--chunk", None, true),
        ("--compressor", None, true),
        ("--tune-cache", None, true),
        ("--quiet", Some("-q"), false),
    ],
};

static INFO: Command = Command {
    name: "fraz store info",
    usage: USAGE,
    flags: &[
        ("--store", None, true),
        ("--key", Some("-k"), true),
        ("--quiet", Some("-q"), false),
    ],
};

static READ: Command = Command {
    name: "fraz store read",
    usage: USAGE,
    flags: &[
        ("--store", None, true),
        ("--key", Some("-k"), true),
        ("--region", None, true),
        ("--out", Some("-o"), true),
        ("--quiet", Some("-q"), false),
    ],
};

/// Parse a chunk shape like `16x64x64` (also accepts `,` separators).
fn parse_chunk(raw: &str) -> Result<Vec<usize>, String> {
    let parts: Result<Vec<usize>, _> = raw
        .split(['x', ','])
        .map(|p| p.trim().parse::<usize>())
        .collect();
    match parts {
        Ok(axes) if !axes.is_empty() && axes.iter().all(|&a| a > 0) => Ok(axes),
        _ => Err(format!(
            "--chunk needs positive sizes like 16x64x64, got `{raw}`"
        )),
    }
}

/// Parse a region spec like `0..4,8..24` into per-axis half-open ranges.
fn parse_region(raw: &str) -> Result<Vec<Range<u64>>, String> {
    raw.split(',')
        .map(|part| {
            let (start, end) = part
                .trim()
                .split_once("..")
                .ok_or_else(|| format!("range `{part}` must look like 0..4"))?;
            let start: u64 = start
                .trim()
                .parse()
                .map_err(|_| format!("bad range start in `{part}`"))?;
            let end: u64 = end
                .trim()
                .parse()
                .map_err(|_| format!("bad range end in `{part}`"))?;
            if end <= start {
                return Err(format!("range `{part}` is empty (end <= start)"));
            }
            Ok(start..end)
        })
        .collect()
}

/// The chunk shape for one field: the requested `--chunk` when its rank
/// matches, otherwise the 64-per-axis default (a manifest mixes ranks, so
/// one spec cannot fit every field).  Returns the shape and whether the
/// request was ignored.
fn chunk_for(dims: &[usize], requested: Option<&[usize]>) -> (Vec<usize>, bool) {
    match requested {
        Some(chunk) if chunk.len() == dims.len() => (chunk.to_vec(), false),
        Some(_) => (dims.iter().map(|&d| d.min(64)).collect(), true),
        None => (dims.iter().map(|&d| d.min(64)).collect(), false),
    }
}

fn cmd_create(args: &[String]) -> Result<u8, Failure> {
    let args = CREATE.parse(args)?;
    let config_path = Path::new(args.required("--config")?);
    let store_dir = PathBuf::from(args.required("--store")?);
    let chunk = args.parse_with("--chunk", parse_chunk)?;
    let quiet = args.has("--quiet");

    let (manifest, dir) = load_with_dir(config_path)?;
    let resolved = manifest.resolve(&dir)?;
    let store = FsStore::open(&store_dir)?;
    let codec = args.value("--compressor").unwrap_or(&resolved.compressor);
    let predictor = open_tune_cache(args.path("--tune-cache").as_deref())?;

    let mut objects = 0usize;
    let mut total_raw = 0u64;
    let mut total_stored = 0u64;
    for field in &resolved.fields {
        let budget = FieldBudget::new(&manifest, field.target);
        for (step, dataset) in field.series.iter().enumerate() {
            let (chunk_shape, rank_mismatch) = chunk_for(dataset.dims.as_slice(), chunk.as_deref());
            if rank_mismatch && step == 0 && !quiet {
                eprintln!(
                    "fraz store create: note: --chunk rank does not match field `{}` \
                     ({}-D); using the default chunk shape for it",
                    field.name,
                    dataset.dims.len()
                );
            }
            let write_config = budget.chunk_write(chunk_shape, codec);
            let key = format!("{}/t{step}", field.name);
            let seed = predictor.clone().map(|p| p as Arc<dyn BoundPredictor>);
            let report = write_array_seeded(&store, &key, dataset, &write_config, None, seed)
                .map_err(|e| format!("{key}: {e}"))?;
            objects += 1;
            total_raw += report.uncompressed_bytes;
            total_stored += report.object_bytes;
            if !quiet {
                let (lo, hi) = report.bound_range();
                println!(
                    "  {key:<24} {} chunk(s)  ratio {:>6.2}  bounds {lo:.3e}..{hi:.3e}  {} eval(s)",
                    report.chunks.len(),
                    report.compression_ratio,
                    report.evaluations
                );
            }
        }
    }
    if let Some(p) = &predictor {
        if let Err(e) = p.cache().flush() {
            eprintln!("fraz: tune-cache flush failed: {e}");
        } else if !quiet {
            print_tune_cache(p.cache().path(), &p.cache().stats());
        }
    }
    if !quiet {
        println!(
            "{}: {objects} object(s), {total_raw} -> {total_stored} bytes (ratio {:.2}) in {}",
            resolved.application,
            total_raw as f64 / total_stored.max(1) as f64,
            store_dir.display()
        );
    }
    Ok(0)
}

fn describe_object(store: &FsStore, key: &str) -> Result<String, String> {
    let reader = ArrayReader::open(store, key).map_err(|e| format!("{key}: {e}"))?;
    let meta = reader.meta();
    let dims: Vec<String> = meta.dims.iter().map(|d| d.to_string()).collect();
    let chunks: Vec<String> = meta.chunk_shape.iter().map(|d| d.to_string()).collect();
    let stored: u64 = meta.payload_bytes();
    Ok(format!(
        "  {key:<24} {:?} {}  chunk {}  {} chunk(s)  codec {}  ratio {:.2}",
        meta.dtype,
        dims.join("x"),
        chunks.join("x"),
        meta.index.len(),
        meta.codec,
        meta.uncompressed_bytes() as f64 / stored.max(1) as f64,
    ))
}

fn cmd_info(args: &[String]) -> Result<u8, Failure> {
    let args = INFO.parse(args)?;
    let store_dir = PathBuf::from(args.required("--store")?);
    let store = FsStore::open(&store_dir)?;
    let keys = match args.value("--key") {
        Some(key) => vec![key.to_string()],
        None => store.list()?,
    };
    if keys.is_empty() {
        return Err(Failure::Run(format!(
            "no objects in {}",
            store_dir.display()
        )));
    }
    println!("{} object(s) in {}:", keys.len(), store_dir.display());
    for key in &keys {
        println!("{}", describe_object(&store, key)?);
    }
    Ok(0)
}

fn cmd_read(args: &[String]) -> Result<u8, Failure> {
    let args = READ.parse(args)?;
    let store_dir = PathBuf::from(args.required("--store")?);
    let key = args.required("--key")?;
    let region = args.parse_with("--region", parse_region)?;
    let quiet = args.has("--quiet");

    let store = FsStore::open(&store_dir)?;
    let reader = ArrayReader::open(&store, key).map_err(|e| format!("{key}: {e}"))?;
    let region =
        region.unwrap_or_else(|| reader.meta().dims.iter().map(|&d| 0..d as u64).collect());
    let intersecting = reader.grid().chunks_intersecting(&region).map(|c| c.len());
    let dataset = reader
        .read_region(&region)
        .map_err(|e| format!("{key}: {e}"))?;
    if !quiet {
        let spec: Vec<String> = region
            .iter()
            .map(|r| format!("{}..{}", r.start, r.end))
            .collect();
        println!(
            "{key} [{}]: {} element(s), decoded {}/{} chunk(s)",
            spec.join(","),
            dataset.len(),
            intersecting.unwrap_or(reader.meta().index.len()),
            reader.meta().index.len(),
        );
    }
    if let Some(out) = args.path("--out") {
        write_raw(&out, &dataset).map_err(|e| format!("cannot write `{}`: {e}", out.display()))?;
        if !quiet {
            println!("wrote {} bytes to {}", dataset.byte_size(), out.display());
        }
    }
    Ok(0)
}

/// Dispatch `fraz store <sub> ...`.
pub(crate) fn store(args: &[String]) -> Result<u8, Failure> {
    match args.first().map(String::as_str) {
        Some("create") => cmd_create(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("read") => cmd_read(&args[1..]),
        Some("help" | "--help" | "-h") => Err(Failure::Help(&STORE)),
        Some(other) => Err(STORE.usage(format!("unknown subcommand `{other}`"))),
        None => Err(STORE.usage("a subcommand is required")),
    }
}

/// `fraz store <sub> ...` to its exit code.
pub fn run_store(args: &[String]) -> u8 {
    exit_code(store(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_and_region_parsing() {
        assert_eq!(parse_chunk("16x64x64").unwrap(), vec![16, 64, 64]);
        assert_eq!(parse_chunk("4, 8").unwrap(), vec![4, 8]);
        assert!(parse_chunk("0x4").is_err());
        assert!(parse_chunk("abc").is_err());
        assert!(parse_chunk("").is_err());

        assert_eq!(parse_region("0..4,8..24").unwrap(), vec![0..4, 8..24]);
        assert_eq!(parse_region(" 1..2 ").unwrap(), vec![1..2]);
        assert!(parse_region("4..4").is_err());
        assert!(parse_region("5..1").is_err());
        assert!(parse_region("1-2").is_err());
        assert!(parse_region("x..y").is_err());
    }

    #[test]
    fn chunk_defaults_clamp_to_the_field() {
        assert_eq!(chunk_for(&[100, 20], None), (vec![64, 20], false));
        assert_eq!(chunk_for(&[8, 8], Some(&[4, 4])), (vec![4, 4], false));
        // Rank mismatch falls back to the default (manifests mix ranks).
        assert_eq!(chunk_for(&[8, 8, 8], Some(&[4, 4])), (vec![8, 8, 8], true));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run_store(&args(&[])), 2);
        assert_eq!(run_store(&args(&["frobnicate"])), 2);
        assert_eq!(run_store(&args(&["create"])), 2); // --config missing
        assert_eq!(run_store(&args(&["create", "--config", "m.toml"])), 2);
        assert_eq!(run_store(&args(&["read", "--store", "/tmp/x"])), 2); // --key missing
        assert_eq!(
            run_store(&args(&["info", "--store", "/tmp/x", "--region", "0..1"])),
            2
        );
        assert_eq!(run_store(&args(&["help"])), 0);
    }

    #[test]
    fn missing_inputs_exit_1() {
        assert_eq!(
            run_store(&args(&[
                "create",
                "--config",
                "/not/there.toml",
                "--store",
                "/tmp/fraz-store-cli-test"
            ])),
            1
        );
    }
}
