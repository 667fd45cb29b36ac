//! The `fraz store` subcommands: write manifest-described fields into a
//! chunked [`fraz_store`] container directory, inspect it, and read
//! (sub)regions back out.
//!
//! Keys follow the `<field>/t<step>` convention, one container object per
//! time-step, so a store directory holds a whole application and `info`
//! can list it without touching any payload bytes.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use fraz_core::BoundPredictor;
use fraz_data::io::write_raw;
use fraz_data::manifest::FieldTarget;
use fraz_pressio::Options;
use fraz_store::{write_array_seeded, ArrayReader, ChunkTarget, FsStore, Store, StoreWriteConfig};

use crate::config::{load_manifest, FieldBudget};
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

fn usage_error(cmd: &str, msg: &str) -> u8 {
    eprintln!("fraz store {cmd}: {msg}\n\n{USAGE}");
    2
}

/// Parse a chunk shape like `16x64x64` (also accepts `,` separators).
fn parse_chunk(raw: &str) -> Result<Vec<usize>, String> {
    let parts: Result<Vec<usize>, _> = raw
        .split(|c| c == 'x' || c == ',')
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

fn cmd_create(args: &[String]) -> u8 {
    let mut config_path = None;
    let mut store_dir = None;
    let mut chunk = None;
    let mut compressor = None;
    let mut tune_cache = None;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let step = match arg.as_str() {
            "--config" | "-c" => value_of("--config").map(|v| config_path = Some(PathBuf::from(v))),
            "--store" => value_of("--store").map(|v| store_dir = Some(PathBuf::from(v))),
            "--chunk" => value_of("--chunk").and_then(|v| parse_chunk(&v).map(|c| chunk = Some(c))),
            "--compressor" => value_of("--compressor").map(|v| compressor = Some(v)),
            "--tune-cache" => value_of("--tune-cache").map(|v| tune_cache = Some(PathBuf::from(v))),
            "--quiet" | "-q" => {
                quiet = true;
                Ok(())
            }
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(msg) = step {
            return usage_error("create", &msg);
        }
    }
    let Some(config_path) = config_path else {
        return usage_error("create", "--config is required");
    };
    let Some(store_dir) = store_dir else {
        return usage_error("create", "--store is required");
    };

    let manifest = match load_manifest(&config_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };
    let dir = match config_path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let resolved = match manifest.resolve(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };
    let store = match FsStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };
    let codec = compressor.as_deref().unwrap_or(&resolved.compressor);
    let predictor = match open_tune_cache(tune_cache.as_deref()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };

    let mut objects = 0usize;
    let mut total_raw = 0u64;
    let mut total_stored = 0u64;
    for field in &resolved.fields {
        let budget = FieldBudget::new(&manifest, field.target);
        let target = match budget.target {
            FieldTarget::Ratio(target_ratio) => ChunkTarget::Ratio {
                target_ratio,
                tolerance: budget.tolerance,
            },
            FieldTarget::MinPsnr(psnr) => ChunkTarget::MinPsnr(psnr),
        };
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
            let mut write_config = StoreWriteConfig::new(chunk_shape, codec, target.clone())
                .with_options(Options::new());
            if let Some(regions) = budget.regions {
                write_config = write_config.with_regions(regions);
            }
            if let Some(iters) = budget.max_iterations {
                write_config = write_config.with_max_iterations(iters);
            }
            if let Some(bound) = budget.max_error_bound {
                write_config = write_config.with_max_error_bound(bound);
            }
            let key = format!("{}/t{step}", field.name);
            let seed = predictor.clone().map(|p| p as Arc<dyn BoundPredictor>);
            let report = match write_array_seeded(&store, &key, dataset, &write_config, None, seed)
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("fraz: {key}: {e}");
                    return 1;
                }
            };
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
            let stats = p.cache().stats();
            println!(
                "tune-cache {}: {} hit(s), {} miss(es), {} new bound(s)",
                p.cache().path().display(),
                stats.hits,
                stats.misses,
                stats.stores
            );
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
    0
}

/// Shared `--store/--key/...` parsing for `info` and `read`.
struct ReadArgs {
    store_dir: PathBuf,
    key: Option<String>,
    region: Option<Vec<Range<u64>>>,
    out: Option<PathBuf>,
    quiet: bool,
}

fn parse_read_args(cmd: &str, args: &[String]) -> Result<ReadArgs, u8> {
    let mut store_dir = None;
    let mut key = None;
    let mut region = None;
    let mut out = None;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let step = match arg.as_str() {
            "--store" => value_of("--store").map(|v| store_dir = Some(PathBuf::from(v))),
            "--key" | "-k" => value_of("--key").map(|v| key = Some(v)),
            "--region" => {
                value_of("--region").and_then(|v| parse_region(&v).map(|r| region = Some(r)))
            }
            "--out" | "-o" => value_of("--out").map(|v| out = Some(PathBuf::from(v))),
            "--quiet" | "-q" => {
                quiet = true;
                Ok(())
            }
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(msg) = step {
            return Err(usage_error(cmd, &msg));
        }
    }
    let Some(store_dir) = store_dir else {
        return Err(usage_error(cmd, "--store is required"));
    };
    Ok(ReadArgs {
        store_dir,
        key,
        region,
        out,
        quiet,
    })
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

fn cmd_info(args: &[String]) -> u8 {
    let parsed = match parse_read_args("info", args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    if parsed.region.is_some() || parsed.out.is_some() {
        return usage_error("info", "--region/--out are `read` flags");
    }
    let store = match FsStore::open(&parsed.store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };
    let keys = match parsed.key {
        Some(key) => vec![key],
        None => match store.list() {
            Ok(keys) => keys,
            Err(e) => {
                eprintln!("fraz: {e}");
                return 1;
            }
        },
    };
    if keys.is_empty() {
        eprintln!("fraz: no objects in {}", parsed.store_dir.display());
        return 1;
    }
    println!(
        "{} object(s) in {}:",
        keys.len(),
        parsed.store_dir.display()
    );
    for key in &keys {
        match describe_object(&store, key) {
            Ok(line) => println!("{line}"),
            Err(msg) => {
                eprintln!("fraz: {msg}");
                return 1;
            }
        }
    }
    0
}

fn cmd_read(args: &[String]) -> u8 {
    let parsed = match parse_read_args("read", args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let Some(key) = parsed.key else {
        return usage_error("read", "--key is required");
    };
    let store = match FsStore::open(&parsed.store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fraz: {e}");
            return 1;
        }
    };
    let reader = match ArrayReader::open(&store, &key) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fraz: {key}: {e}");
            return 1;
        }
    };
    let region = parsed
        .region
        .unwrap_or_else(|| reader.meta().dims.iter().map(|&d| 0..d as u64).collect());
    let intersecting = reader.grid().chunks_intersecting(&region).map(|c| c.len());
    let dataset = match reader.read_region(&region) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fraz: {key}: {e}");
            return 1;
        }
    };
    if !parsed.quiet {
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
    if let Some(out) = parsed.out {
        if let Err(e) = write_raw(&out, &dataset) {
            eprintln!("fraz: cannot write `{}`: {e}", out.display());
            return 1;
        }
        if !parsed.quiet {
            println!("wrote {} bytes to {}", dataset.byte_size(), out.display());
        }
    }
    0
}

/// Dispatch `fraz store <sub> ...`.
pub fn run_store(args: &[String]) -> u8 {
    match args.first().map(String::as_str) {
        Some("create") => cmd_create(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("read") => cmd_read(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            0
        }
        Some(other) => usage_error("", &format!("unknown subcommand `{other}`")),
        None => {
            eprintln!("{USAGE}");
            2
        }
    }
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
