#!/usr/bin/env python3
"""Count the non-test Rust lines of the workspace.

Counts every line of every `.rs` file under `crates/` and `src/`, except
files in a `tests/` directory and the items marked `#[cfg(test)]` inside
a file (the attribute line, and the item after it up to its matching
closing brace, or up to its `;` for an item without a body). Braces inside
string and character literals and comments are ignored when matching.

Usage: python3 scripts/loc.py [REPO_ROOT]

Prints one `lines path` row per file, then the total.
"""

import os
import sys


def strip_literals(line, in_block_comment):
    """Return the code of `line` with comments and literals blanked out,
    and whether a block comment is still open at its end."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i, in_block_comment = end + 2, False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            i, in_block_comment = i + 2, True
        elif line[i] == '"':
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            i += 1
        elif line[i] == "'" and (line[i + 1 : i + 2] == "\\" or line[i + 2 : i + 3] == "'"):
            # A character literal ('x' or '\n'); a lifetime has no closing quote.
            end = line.find("'", i + 2)
            i = end + 1 if end > 0 else n
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block_comment


def count(path):
    """Lines of `path` outside its `#[cfg(test)]` items."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    kept = 0
    skipping = False  # inside a #[cfg(test)] item
    depth = 0  # brace depth within that item
    opened = False  # the skipped item has opened its body
    comment = False
    for line in lines:
        code, comment = strip_literals(line, comment)
        if not skipping and code.strip() == "#[cfg(test)]":
            skipping, depth, opened = True, 0, False
            continue
        if not skipping:
            kept += 1
            continue
        for ch in code:
            if ch == "{":
                depth, opened = depth + 1, True
            elif ch == "}":
                depth -= 1
        if (opened and depth == 0) or (not opened and code.rstrip().endswith(";")):
            skipping = False
    return kept


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    rows = []
    for top in ("crates", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("tests", "target"))
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    rows.append((count(path), os.path.relpath(path, root)))
    for lines, path in rows:
        print(f"{lines:6d} {path}")
    print(f"{sum(lines for lines, _ in rows):6d} total non-test lines under crates/ and src/")


if __name__ == "__main__":
    main()
