#!/usr/bin/env python3
"""Count the non-test Rust lines of the workspace.

Counts every line of every `.rs` file under `crates/` and `src/`, except
files in a `tests/` or `target/` directory and the items marked
`#[cfg(test)]` inside a file (the attribute line, and the item after it up
to its matching closing brace, or up to its `;` for an item without a
body). Braces inside string and character literals and comments are
ignored when matching.

Usage:
  python3 scripts/loc.py [REPO_ROOT]
      One `lines path` row per file of the working tree, then the total.
  python3 scripts/loc.py --against REV [REPO_ROOT]
      One `±lines path` row per file whose count differs between git
      revision REV (read through `git archive`, with no second checkout)
      and the working tree, then the totals of both and the net change.
"""

import io
import os
import subprocess
import sys
import tarfile


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


def count(lines):
    """Lines of `lines` outside its `#[cfg(test)]` items."""
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


def counted(path):
    """Whether `path` (relative to the repository root, `/`-separated) is
    a Rust source file the count includes."""
    parts = path.split("/")
    return (
        parts[0] in ("crates", "src")
        and path.endswith(".rs")
        and not any(d in ("tests", "target") for d in parts[:-1])
    )


def worktree_rows(root):
    """`(lines, path)` for each counted file of the working tree."""
    rows = []
    for top in ("crates", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
                if counted(path):
                    with open(os.path.join(root, path), encoding="utf-8") as f:
                        rows.append((count(f.read().splitlines()), path))
    return rows


def revision_rows(root, rev):
    """`(lines, path)` for each counted file of git revision `rev`."""
    archived = subprocess.run(
        ["git", "-C", root, "archive", "--format=tar", rev, "--", "crates", "src"],
        stdout=subprocess.PIPE,
    )
    if archived.returncode != 0:
        sys.exit(f"loc.py: cannot archive revision {rev}")
    tar = archived.stdout
    rows = []
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive:
            if member.isfile() and counted(member.name):
                text = archive.extractfile(member).read().decode("utf-8")
                rows.append((count(text.splitlines()), member.name))
    return sorted(rows, key=lambda row: row[1])


def main():
    args = sys.argv[1:]
    rev = None
    if args[:1] == ["--against"]:
        if len(args) < 2:
            sys.exit(__doc__)
        rev, args = args[1], args[2:]
    root = args[0] if args else os.path.join(os.path.dirname(__file__), "..")
    rows = worktree_rows(root)
    total = sum(lines for lines, _ in rows)
    if rev is None:
        for lines, path in rows:
            print(f"{lines:6d} {path}")
        print(f"{total:6d} total non-test lines under crates/ and src/")
    else:
        before = {path: lines for lines, path in revision_rows(root, rev)}
        after = {path: lines for lines, path in rows}
        for path in sorted(before.keys() | after.keys()):
            delta = after.get(path, 0) - before.get(path, 0)
            if delta:
                print(f"{delta:+6d} {path}")
        base = sum(before.values())
        print(f"{base:6d} at {rev}")
        print(f"{total:6d} in the working tree")
        print(f"{total - base:+6d} net non-test lines under crates/ and src/")


if __name__ == "__main__":
    main()
