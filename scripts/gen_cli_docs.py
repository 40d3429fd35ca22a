#!/usr/bin/env python3
"""Generate docs/CLI.md from the built binaries' --help output.

The CLI reference is generated, not hand-written, so it cannot drift from
the code: each tool's usage text (the same bytes `--help` prints) is
captured verbatim into a fenced block. Regenerate after changing any
tool's kHelp text:

    python3 scripts/gen_cli_docs.py --bin build/tools -o docs/CLI.md

The `cli_reference_drift` ctest (label `docs`) runs this script in
--check mode against the built binaries and fails when the committed
docs/CLI.md no longer matches, printing the diff.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import subprocess
import sys

# (binary, one-line role, companion docs) — order defines section order.
TOOLS = [
    (
        "mclg_cli",
        "single-design driver: generate, legalize (full or incremental "
        "ECO), evaluate, convert, and render designs",
        ["ECO.md", "FORMATS.md", "OBSERVABILITY.md"],
    ),
    (
        "mclg_batch",
        "multi-design batch driver: crash-isolated process-per-design "
        "fan-out with live telemetry",
        ["ROBUSTNESS.md", "OBSERVABILITY.md"],
    ),
    (
        "mclg_serve",
        "resident legalization daemon: designs load once, clients "
        "stream ECO requests over length-prefixed frames",
        ["SERVE.md", "PROTOCOL.md"],
    ),
]

HEADER = """\
# Command-line reference

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with: python3 scripts/gen_cli_docs.py --bin <build>/tools -o docs/CLI.md
     The cli_reference_drift ctest (label: docs) fails when this file is stale. -->

Verbatim `--help` output of every installed tool, captured at build time
by `scripts/gen_cli_docs.py`. For the concepts behind the flags see the
companion document linked in each section.
"""


def capture_help(binary: pathlib.Path) -> str:
    proc = subprocess.run(
        [str(binary), "--help"], capture_output=True, text=True, timeout=30
    )
    out = proc.stdout if proc.stdout.strip() else proc.stderr
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(
            f"error: {binary} --help exited {proc.returncode} with "
            f"{len(out)} bytes of output"
        )
    return out.rstrip("\n") + "\n"


def render(bin_dir: pathlib.Path) -> str:
    parts = [HEADER]
    for name, role, companions in TOOLS:
        links = ", ".join(f"[{c}]({c})" for c in companions)
        parts.append(f"\n## `{name}`\n\n{role.capitalize()}. See {links}.\n")
        parts.append("\n```text\n" + capture_help(bin_dir / name) + "```\n")
    return "".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--bin", required=True, type=pathlib.Path,
        help="directory holding the built tool binaries (e.g. build/tools)",
    )
    ap.add_argument("-o", "--out", type=pathlib.Path, help="write the reference here")
    ap.add_argument(
        "--check", type=pathlib.Path,
        help="compare against this committed file; exit 1 and print a diff on drift",
    )
    args = ap.parse_args()
    if not args.out and not args.check:
        ap.error("need --out and/or --check")

    text = render(args.bin)

    if args.out:
        args.out.write_text(text)
        print(f"wrote {args.out} ({len(text)} bytes)")

    if args.check:
        committed = args.check.read_text()
        if committed != text:
            sys.stdout.writelines(
                difflib.unified_diff(
                    committed.splitlines(keepends=True),
                    text.splitlines(keepends=True),
                    fromfile=str(args.check),
                    tofile="generated from --help",
                )
            )
            print(
                f"\nerror: {args.check} is stale; regenerate with\n"
                f"  python3 scripts/gen_cli_docs.py --bin {args.bin} -o {args.check}"
            )
            return 1
        print(f"{args.check}: up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
