#!/usr/bin/env python3
"""Fail unless crates/fraz-core/src calls `Compressor::evaluate` exactly once outside
`#[cfg(test)]` items and comments: the search shell's evaluator is the one evaluation site."""
import pathlib
import re
import sys

sites = []
for path in sorted(pathlib.Path("crates/fraz-core/src").rglob("*.rs")):
    code = path.read_text().split("#[cfg(test)]")[0]  # test modules close each file
    for number, line in enumerate(code.splitlines(), 1):
        if re.search(r"\.evaluate\(", line.split("//")[0]):
            sites.append(f"{path}:{number}: {line.strip()}")
print("\n".join(sites))
sys.exit(f"expected exactly one `.evaluate(` call site, found {len(sites)}" if len(sites) != 1 else 0)
