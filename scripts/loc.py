#!/usr/bin/env python3
"""Report non-test line counts for the core crate's source files.

For each `crates/core/src/*.rs`, counts the lines before the first
`#[cfg(test)]` (the whole file when there is none), once in total and
once without blank lines and comment lines (`//`, `///`, `//!`, and
lines inside `/* ... */` blocks). Report-only: it gates nothing and
always exits 0.

Usage: python3 scripts/loc.py [ROOT]   (ROOT defaults to the repo root)
"""

import glob
import os
import sys


def count(path):
    """Returns (total, code) non-test line counts for one file."""
    total = code = 0
    in_block = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            s = line.strip()
            if s.startswith("#[cfg(test)]"):
                break
            total += 1
            if in_block:
                in_block = "*/" not in s
                continue
            if s.startswith("/*"):
                in_block = "*/" not in s
                continue
            if s and not s.startswith("//"):
                code += 1
    return total, code


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    files = sorted(glob.glob(os.path.join(root, "crates", "core", "src", "*.rs")))
    rows = [(os.path.relpath(p, root), *count(p)) for p in files]
    width = max([len("file")] + [len(r[0]) for r in rows])
    print(f"{'file':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")


if __name__ == "__main__":
    main()
