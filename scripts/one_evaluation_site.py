#!/usr/bin/env python3
"""The search shell's single sites, outside `#[cfg(test)]` items and comments.

1. crates/fraz-core/src calls `Compressor::evaluate` exactly once: the shell's evaluator is
   the one evaluation site.
2. crates/*/src calls `.compress(` at an outcome's `.error_bound` exactly once: `answer_bytes`
   (crates/fraz-core/src/search.rs) is how a search's answer becomes bytes, because the
   answer usually arrives with the stream it was measured on.
3. crates/fraz-core/src calls `.compress(` exactly once, inside `answer_bytes`: every other
   compressor call of the framework is a search evaluation.
4. crates/fraz-core/src has no `.decompress(` and calls `measure_stream(` exactly once, inside
   `Evaluator::final_quality`: the final quality pass decodes the stream the answer holds,
   and nothing else in the framework decodes.
5. crates/fraz-core/src names `AtomicBool` only in cancel.rs: every stop signal of the
   framework is a `CancelToken`, and a strategy stops its own tasks with a child of the
   search's token.
6. crates/fraz-{sz,zfp,mgard,szx}/src declare no `enum …Error` and crates/fraz-pressio/src
   has no `impl From<…> for PressioError`: every codec fails with `fraz_data::CodecError`,
   which is what `PressioError` names, so no codec error needs translating.
7. crates/fraz-{sz,zfp,mgard,szx}/src/lib.rs each define exactly one `pub fn encode(` and no
   `compress_measured` / `compressed_len`, and crates/fraz-pressio/src/backends.rs calls neither
   `measure_stream(` nor `evaluate_by_compressing(`: a size, a stream and a measured
   reconstruction come from one encoder told what to produce (`fraz_data::Want`), so no route
   grows back beside it.
8. crates/fraz-zfp/src/lib.rs's `encode` calls no `decompress(`: a measured zfp encode rebuilds
   each block from the bits it wrote, through the decoder's block tail, instead of decoding the
   stream it just wrote.
9. crates/fraz-store/src/reader.rs makes exactly one codec decode call, `.decompress_region(`,
   and no bare `.decompress(`: every read (a region, a chunk, the whole array) asks each chunk
   for its local intersection, so a codec that decodes a region for less serves them all.
10. crates/fraz-sz/src/pipeline.rs defines one `pub fn decode(`: a region decode and the
   whole-grid decode are one decoder, run up to a region's far corner or the grid's."""
import pathlib
import re
import sys


def code_of(path):
    """`path` without its closing test module and without line comments."""
    code = path.read_text().split("#[cfg(test)]")[0]  # test modules close each file
    return "\n".join(line.split("//")[0] for line in code.splitlines())


def closing(code, start, pair="()"):
    """The offset of the bracket that closes the one opening at `start`."""
    depth = 0
    for at in range(start, len(code)):
        depth += {pair[0]: 1, pair[1]: -1}.get(code[at], 0)
        if depth == 0:
            return at
    return len(code)


def site(path, code, at):
    number = code.count("\n", 0, at) + 1
    return f"{path}:{number}: {code.splitlines()[number - 1].strip()}"


failures = []

evaluations = []
for path in sorted(pathlib.Path("crates/fraz-core/src").rglob("*.rs")):
    for number, line in enumerate(code_of(path).splitlines(), 1):
        if re.search(r"\.evaluate\(", line):
            evaluations.append(f"{path}:{number}: {line.strip()}")
print("\n".join(evaluations))
if len(evaluations) != 1:
    failures.append(f"expected exactly one `.evaluate(` call site, found {len(evaluations)}")

recompressions = []
for path in sorted(pathlib.Path("crates").glob("*/src/**/*.rs")):
    code = code_of(path)
    for call in re.finditer(r"\.compress\(", code):
        if ".error_bound" in code[call.end() : closing(code, call.end() - 1)]:
            recompressions.append(site(path, code, call.start()))
print("\n".join(recompressions))
if [at.split(":")[0] for at in recompressions] != ["crates/fraz-core/src/search.rs"]:
    failures.append(
        "expected `.compress(.., <outcome>.error_bound)` in `answer_bytes` (crates/fraz-core/src/search.rs) "
        f"only, found {len(recompressions)} site(s): a search's answer becomes bytes there"
    )

compressions = []
for path in sorted(pathlib.Path("crates/fraz-core/src").rglob("*.rs")):
    code = code_of(path)
    answer = re.search(r"fn answer_bytes\b", code)
    body = (answer.end(), closing(code, code.index("{", answer.end()), "{}")) if answer else (0, 0)
    for call in re.finditer(r"\.compress\(", code):
        inside = body[0] <= call.start() < body[1]
        compressions.append((site(path, code, call.start()), inside))
print("\n".join(at for at, _ in compressions))
if [inside for _, inside in compressions] != [True]:
    failures.append(
        "expected exactly one `.compress(` in crates/fraz-core/src, inside `answer_bytes`, "
        f"found {len(compressions)} site(s): every other compressor call is a search evaluation"
    )

decodes = []
for path in sorted(pathlib.Path("crates/fraz-core/src").rglob("*.rs")):
    code = code_of(path)
    final = re.search(r"fn final_quality\b", code)
    body = (final.end(), closing(code, code.index("{", final.end()), "{}")) if final else (0, 0)
    for call in re.finditer(r"\.decompress\(|\bmeasure_stream\(", code):
        inside = call.group() == "measure_stream(" and body[0] <= call.start() < body[1]
        decodes.append((site(path, code, call.start()), inside))
print("\n".join(at for at, _ in decodes))
if [inside for _, inside in decodes] != [True]:
    failures.append(
        "expected no `.decompress(` in crates/fraz-core/src and exactly one `measure_stream(`, "
        f"inside `final_quality`, found {len(decodes)} site(s): the final pass is the one decode"
    )

flags = []
for path in sorted(pathlib.Path("crates/fraz-core/src").rglob("*.rs")):
    if path.name == "cancel.rs":
        continue
    code = code_of(path)
    for flag in re.finditer(r"\bAtomicBool\b", code):
        flags.append(site(path, code, flag.start()))
print("\n".join(flags))
if flags:
    failures.append(
        "expected no `AtomicBool` in crates/fraz-core/src outside cancel.rs, "
        f"found {len(flags)} site(s): a stop signal is a child `CancelToken`"
    )

errors = []
for codec in ["sz", "zfp", "mgard", "szx"]:
    for path in sorted(pathlib.Path(f"crates/fraz-{codec}/src").rglob("*.rs")):
        code = code_of(path)
        for enum in re.finditer(r"\benum\s+\w*Error\b", code):
            errors.append(site(path, code, enum.start()))
for path in sorted(pathlib.Path("crates/fraz-pressio/src").rglob("*.rs")):
    code = code_of(path)
    for impl in re.finditer(r"\bimpl\s+From<[^{]*>\s+for\s+PressioError\b", code):
        errors.append(site(path, code, impl.start()))
print("\n".join(errors))
if errors:
    failures.append(
        f"expected no codec error enum and no `From` into `PressioError`, found {len(errors)} "
        "site(s): every codec returns `fraz_data::CodecError`, which `PressioError` names"
    )

routes = []
for codec in ["sz", "zfp", "mgard", "szx"]:
    path = pathlib.Path(f"crates/fraz-{codec}/src/lib.rs")
    code = code_of(path)
    encoders = list(re.finditer(r"\bpub fn encode\(", code))
    if len(encoders) != 1:
        routes.append(f"{path}: {len(encoders)} `pub fn encode(`")
    for route in re.finditer(r"\b(compress_measured|compressed_len)\b", code):
        routes.append(site(path, code, route.start()))
path = pathlib.Path("crates/fraz-pressio/src/backends.rs")
code = code_of(path)
for call in re.finditer(r"\b(measure_stream|evaluate_by_compressing)\(", code):
    routes.append(site(path, code, call.start()))
print("\n".join(routes))
if routes:
    failures.append(
        f"expected one `pub fn encode(` per codec crate and no other route, found {len(routes)} "
        "problem(s): a size, a stream and a measured reconstruction are one `encode(.., Want)`"
    )

path = pathlib.Path("crates/fraz-zfp/src/lib.rs")
code = code_of(path)
encode = re.search(r"\bpub fn encode\(", code)
body = (encode.end(), closing(code, code.index("{", encode.end()), "{}")) if encode else (0, 0)
rebuilds = [site(path, code, call.start()) for call in re.finditer(r"\bdecompress\(", code)
            if body[0] <= call.start() < body[1]]
print("\n".join(rebuilds))
if not encode or rebuilds:
    failures.append(
        f"expected zfp's `pub fn encode(` to call no `decompress(`, found {len(rebuilds)} site(s): "
        "a measured zfp encode rebuilds its blocks from the bits it wrote"
    )

path = pathlib.Path("crates/fraz-store/src/reader.rs")
code = code_of(path)
reads = [site(path, code, call.start()) for call in re.finditer(r"\.decompress(_region)?\(", code)]
print("\n".join(reads))
if len(reads) != 1 or ".decompress_region(" not in reads[0]:
    failures.append(
        f"expected exactly one codec decode call in {path}, `.decompress_region(`, found "
        f"{len(reads)} site(s): every read asks each chunk for its intersection"
    )

path = pathlib.Path("crates/fraz-sz/src/pipeline.rs")
code = code_of(path)
decoders = [site(path, code, fn.start()) for fn in re.finditer(r"\bpub fn decode\(", code)]
print("\n".join(decoders))
if len(decoders) != 1:
    failures.append(
        f"expected one `pub fn decode(` in {path}, found {len(decoders)}: a region decode and "
        "the whole-grid decode are one decoder"
    )

sys.exit("\n".join(failures) if failures else 0)
