#!/usr/bin/env python3
"""Perf-regression gate for the mclg bench harness.

Two subcommands:

  merge <report-dir> -o BENCH_PR3.json [--baseline BASELINE.json]
      Collect the per-bench JSON reports that the bench binaries wrote into
      <report-dir> (bench_scaling.json via MCLG_BENCH_REPORT,
      bench_micro.json via --benchmark_out) into one
      perf-suite document. When --baseline is given, per-key speedups are
      computed and embedded.

  compare <current.json> <baseline.json> [options]
      Gate the current suite against a baseline suite:
        * placement hashes and Eq. 10 scores of the bench_scaling thread
          sweep must match the baseline exactly (quality-neutrality);
        * byte-identity flags (keys ending in .identical) must all be 1;
        * timing keys must not regress beyond --tolerance (default 0.15);
        * --require KEY>=RATIO asserts a minimum speedup (baseline/current)
          for a timing key, e.g. --require t1.mgl_seconds>=1.5;
        * --ratio BENCH.A/B>=R asserts a ratio *within the current suite*,
          e.g. --ratio bench_eco.full_seconds/eco_seconds>=3.0 (the PR 4
          ECO speedup floor — see docs/ECO.md);
        * --ratio-max BENCH.A/B<=R asserts a ratio *ceiling* within the
          current suite, e.g. --ratio-max
          bench_supervisor.supervised_seconds/supervised_telemetry_off_seconds<=1.02
          (the PR 7 live-telemetry overhead budget).
      Exits 0 when every gate passes, 1 otherwise.

Since schema v6 reports carry p50/p95/p99 per histogram; merge surfaces
them into the suite as informational <histogram>.<quantile> keys (not
gated — pow2-bucket quantile estimates are too coarse for a regression
tolerance, but they make latency-distribution drift visible in diffs).

Both documents use the run-report envelope (docs/OBSERVABILITY.md); this
reader accepts schema_version 1 through 6.
"""

import argparse
import json
import os
import sys

ACCEPTED_SCHEMAS = (1, 2, 3, 4, 5, 6)

DEFAULT_MERGE_BENCHES = ("bench_scaling",)

# Keys treated as timings (gated on regression / speedup); everything else in
# the bench_scaling values block is an identity key (must match exactly).
TIMING_SUFFIXES = ("_seconds",)
IDENTITY_SUFFIXES = ("hash_lo", "hash_hi", "score")


def load_envelope(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema_version")
    if schema not in ACCEPTED_SCHEMAS:
        raise SystemExit(
            f"{path}: unsupported schema_version {schema!r} "
            f"(accepted: {ACCEPTED_SCHEMAS})")
    return doc


def load_micro(path):
    """Google-benchmark JSON -> {name: real_time in ns}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        out[bench["name"]] = bench["real_time"] * scale
    return out


def cmd_merge(args):
    suite = {
        "schema_version": 6,
        "kind": "perf_suite",
        "generated_by": "scripts/perf_regression.sh",
        "benches": {},
    }
    for name in (args.bench or DEFAULT_MERGE_BENCHES):
        path = os.path.join(args.report_dir, name + ".json")
        if not os.path.exists(path):
            print(f"merge: missing {path}", file=sys.stderr)
            return 1
        doc = load_envelope(path)
        values = dict(doc.get("values", {}))
        for hist, entry in doc.get("metrics", {}).get("histograms",
                                                      {}).items():
            for quantile in ("p50", "p95", "p99"):
                if quantile in entry:
                    values[f"{hist}.{quantile}"] = entry[quantile]
        suite["benches"][name] = values
    micro_path = os.path.join(args.report_dir, "bench_micro.json")
    if os.path.exists(micro_path):
        suite["benches"]["bench_micro"] = load_micro(micro_path)
    else:
        print(f"merge: note: no {micro_path}, micro block omitted",
              file=sys.stderr)

    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        speedups = {}
        for bench, values in suite["benches"].items():
            base_values = base.get("benches", {}).get(bench, {})
            for key, value in values.items():
                if not is_timing(key):
                    continue
                ref = base_values.get(key)
                if ref and value > 0:
                    speedups[f"{bench}.{key}"] = round(ref / value, 4)
        suite["speedup_vs_baseline"] = speedups

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(suite, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"merge: wrote {args.output}")
    return 0


def is_timing(key):
    return key.endswith(TIMING_SUFFIXES) or key.startswith("BM_")


def is_identity(key):
    return key.endswith(IDENTITY_SUFFIXES)


def cmd_compare(args):
    cur = json.load(open(args.current, encoding="utf-8"))
    base = json.load(open(args.baseline, encoding="utf-8"))
    failures = []
    checked_identity = 0
    for bench, values in base.get("benches", {}).items():
        cur_values = cur.get("benches", {}).get(bench, {})
        for key, ref in values.items():
            val = cur_values.get(key)
            if val is None:
                if key.endswith((".p50", ".p95", ".p99")):
                    continue  # informational percentiles, never gated
                failures.append(f"{bench}.{key}: missing from current suite")
                continue
            if is_identity(key):
                if val != ref:
                    failures.append(
                        f"{bench}.{key}: {val} != baseline {ref} "
                        f"(placements/quality must be identical)")
                checked_identity += 1
            elif key.endswith(".identical"):
                if val != 1:
                    failures.append(f"{bench}.{key}: byte-identity broken")
            elif is_timing(key) and ref > 0:
                if val > ref * (1.0 + args.tolerance):
                    failures.append(
                        f"{bench}.{key}: {val:.4g} regressed past baseline "
                        f"{ref:.4g} * (1 + {args.tolerance})")

    for requirement in args.require or []:
        key, _, ratio_text = requirement.partition(">=")
        ratio = float(ratio_text)
        bench, _, sub = key.partition(".")
        ref = base.get("benches", {}).get(bench, {}).get(sub)
        val = cur.get("benches", {}).get(bench, {}).get(sub)
        if ref is None or val is None or val <= 0:
            failures.append(f"require {requirement}: key not present")
        elif ref / val < ratio:
            failures.append(
                f"require {requirement}: speedup {ref / val:.3f} < {ratio}")
        else:
            print(f"require {requirement}: ok (speedup {ref / val:.3f})")

    for assertion in args.ratio or []:
        spec, _, ratio_text = assertion.partition(">=")
        ratio = float(ratio_text)
        bench, _, keys = spec.partition(".")
        num_key, _, den_key = keys.partition("/")
        values = cur.get("benches", {}).get(bench, {})
        num, den = values.get(num_key), values.get(den_key)
        if num is None or den is None or den <= 0:
            failures.append(f"ratio {assertion}: key not present")
        elif num / den < ratio:
            failures.append(f"ratio {assertion}: {num / den:.3f} < {ratio}")
        else:
            print(f"ratio {assertion}: ok ({num / den:.3f})")

    for assertion in args.ratio_max or []:
        spec, _, ratio_text = assertion.partition("<=")
        ceiling = float(ratio_text)
        bench, _, keys = spec.partition(".")
        num_key, _, den_key = keys.partition("/")
        values = cur.get("benches", {}).get(bench, {})
        num, den = values.get(num_key), values.get(den_key)
        if num is None or den is None or den <= 0:
            failures.append(f"ratio-max {assertion}: key not present")
        elif num / den > ceiling:
            failures.append(
                f"ratio-max {assertion}: {num / den:.3f} > {ceiling}")
        else:
            print(f"ratio-max {assertion}: ok ({num / den:.3f})")

    if failures:
        for failure in failures:
            print(f"perf gate FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"perf gate OK ({checked_identity} identity keys, "
          f"tolerance {args.tolerance})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    merge = sub.add_parser("merge")
    merge.add_argument("report_dir")
    merge.add_argument("-o", "--output", required=True)
    merge.add_argument("--baseline")
    merge.add_argument("--bench", action="append",
                       help="bench report to collect (repeatable; default: "
                            + ", ".join(DEFAULT_MERGE_BENCHES))
    merge.set_defaults(func=cmd_merge)
    compare = sub.add_parser("compare")
    compare.add_argument("current")
    compare.add_argument("baseline")
    compare.add_argument("--tolerance", type=float, default=0.15)
    compare.add_argument("--require", action="append",
                         help="KEY>=RATIO minimum speedup, repeatable")
    compare.add_argument("--ratio", action="append",
                         help="BENCH.A/B>=R within-current ratio, repeatable")
    compare.add_argument("--ratio-max", action="append",
                         help="BENCH.A/B<=R within-current ratio ceiling, "
                              "repeatable")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
