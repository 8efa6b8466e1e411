#!/usr/bin/env python3
"""Checks the output of the `experiments` binary against a recorded copy.

Usage: experiments_check.py <experiments-binary> <expected-output>

Runs the binary with no arguments and compares its stdout with the
expected file after masking what depends on the host: timing values and
table padding. A timing value is a table cell under a header that names
`[us]` or `[ms]`, a cell reading `<n> us` or `<n> ms`, or `in <n> ms`
anywhere in a line. Table rows are compared cell by cell with their
padding stripped. Exits 1, printing a unified diff of the masked outputs,
on any other difference, and 0 otherwise.
"""

import difflib
import re
import subprocess
import sys

TIMED_HEADER = re.compile(r"\[(us|ms)\]")
TIMED_CELL = re.compile(r"^\d+(\.\d+)? (us|ms)$")
TIMED_PHRASE = re.compile(r"\bin \d+(\.\d+)? ms\b")
MASK = "<t>"


def masked(text):
    """The lines of `text` with timing values masked and table padding stripped."""
    lines = []
    header = None
    for line in text.splitlines():
        if not line.startswith("|"):
            header = None
            lines.append(TIMED_PHRASE.sub(f"in {MASK} ms", line.rstrip()))
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
        elif set("".join(cells)) <= {"-"}:
            cells = ["-"] * len(cells)
        else:
            cells = [
                MASK
                if (i < len(header) and TIMED_HEADER.search(header[i])) or TIMED_CELL.match(cell)
                else cell
                for i, cell in enumerate(cells)
            ]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    binary, expected_path = sys.argv[1], sys.argv[2]
    got = subprocess.run([binary], check=True, capture_output=True, text=True).stdout
    with open(expected_path, encoding="utf-8") as f:
        expected = f.read()
    diff = list(
        difflib.unified_diff(masked(expected), masked(got), expected_path, binary, lineterm="")
    )
    if diff:
        print("\n".join(diff))
        sys.exit(1)


if __name__ == "__main__":
    main()
