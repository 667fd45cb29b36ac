#!/usr/bin/env python3
"""The search shell's two single sites, outside `#[cfg(test)]` items and comments.

1. crates/fraz-core/src calls `Compressor::evaluate` exactly once: the shell's evaluator is
   the one evaluation site.
2. crates/*/src calls `.compress(` at an outcome's `.error_bound` exactly once: `answer_bytes`
   (crates/fraz-core/src/search.rs) is how a search's answer becomes bytes, because the
   answer usually arrives with the stream it was measured on."""
import pathlib
import re
import sys


def code_of(path):
    """`path` without its closing test module and without line comments."""
    code = path.read_text().split("#[cfg(test)]")[0]  # test modules close each file
    return "\n".join(line.split("//")[0] for line in code.splitlines())


def call_arguments(code, start):
    """The text between the parenthesis opening at `start` and the one that closes it."""
    depth = 0
    for at in range(start, len(code)):
        depth += {"(": 1, ")": -1}.get(code[at], 0)
        if depth == 0:
            return code[start + 1 : at]
    return code[start + 1 :]


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
        if ".error_bound" in call_arguments(code, call.end() - 1):
            number = code.count("\n", 0, call.start()) + 1
            recompressions.append(f"{path}:{number}: {code.splitlines()[number - 1].strip()}")
print("\n".join(recompressions))
if [site.split(":")[0] for site in recompressions] != ["crates/fraz-core/src/search.rs"]:
    failures.append(
        "expected `.compress(.., <outcome>.error_bound)` in `answer_bytes` (crates/fraz-core/src/search.rs) "
        f"only, found {len(recompressions)} site(s): a search's answer becomes bytes there"
    )

sys.exit("\n".join(failures) if failures else 0)
