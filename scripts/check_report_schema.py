#!/usr/bin/env python3
"""Validate run-report documents against the committed field manifest.

The manifest (docs/report_schema_fields.json) records, per schema version,
which fields that version introduced; versions are strictly additive
(docs/OBSERVABILITY.md). A document with schema_version V must carry every
field introduced at a version <= V for its kind, version-gated blocks
(`eco`, `batch`) may not appear before the version that introduced them,
and every histogram entry must carry the per-histogram fields for V (v6
added p50/p95/p99 next to the pow2 buckets).

Usage:
    check_report_schema.py [--manifest FILE] [report.json ...]
        [--cli MCLG_CLI] [--batch MCLG_BATCH] [--workdir DIR]

Always runs a manifest self-test first: for every version 1..current and
every kind, a minimal synthetic document must validate, and the same
document with one required field removed (or with a later-version block
grafted on) must fail. With --cli / --batch, live reports are generated by
the real binaries and validated too — that is what the `report_schema`
ctest does, so a writer-side field rename breaks the build, not a
downstream dashboard. Exits 0 when everything passes.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_MANIFEST = os.path.join(HERE, "..", "docs", "report_schema_fields.json")


def fields_for(version, since_map):
    """All fields introduced at or before `version` in a {version: [field]}
    manifest map."""
    out = []
    for introduced, names in sorted(since_map.items(), key=lambda kv: int(kv[0])):
        if int(introduced) <= version:
            out.extend(names)
    return out


def validate(doc, manifest, label):
    """Return a list of problems (empty = valid)."""
    problems = []

    version = doc.get("schema_version")
    current = manifest["current_version"]
    if not isinstance(version, int) or not 1 <= version <= current:
        return [f"{label}: schema_version {version!r} not in 1..{current}"]

    kind = doc.get("kind")
    kind_spec = manifest["kinds"].get(kind)
    if kind_spec is None:
        return [f"{label}: unknown kind {kind!r} "
                f"(known: {sorted(manifest['kinds'])})"]

    for field in kind_spec.get("required", []):
        if field not in doc:
            problems.append(f"{label}: missing required field '{field}' "
                            f"(kind {kind})")

    if "provenance" in doc:
        for field in fields_for(version, manifest["provenance_fields"]):
            if field not in doc["provenance"]:
                problems.append(f"{label}: provenance missing '{field}'")

    for stage in kind_spec.get("pipeline_stages", []):
        if stage not in doc.get("pipeline", {}):
            problems.append(f"{label}: pipeline missing stage block '{stage}'")

    # Version-gated optional blocks must not appear before their version.
    for block, introduced in manifest["block_min_version"].items():
        if block in doc and version < introduced:
            problems.append(f"{label}: block '{block}' requires "
                            f"schema_version >= {introduced}, got {version}")

    if "metrics" in doc:
        metrics = doc["metrics"]
        for field in fields_for(version, manifest["metrics_fields"]):
            if field not in metrics:
                problems.append(f"{label}: metrics missing '{field}'")
        hist_fields = fields_for(version, manifest["histogram_fields"])
        for name, entry in metrics.get("histograms", {}).items():
            for field in hist_fields:
                if field not in entry:
                    problems.append(
                        f"{label}: histogram '{name}' missing '{field}' "
                        f"(required since its schema version <= {version})")

    if "batch" in doc and version >= manifest["block_min_version"]["batch"]:
        batch = doc["batch"]
        for field in fields_for(version, manifest["batch_fields"]):
            if field not in batch:
                problems.append(f"{label}: batch block missing '{field}'")
        gaps = batch.get("heartbeat_gap_ms", {})
        for field in fields_for(version, manifest["histogram_fields"]):
            if field not in gaps:
                problems.append(
                    f"{label}: batch.heartbeat_gap_ms missing '{field}'")

    if kind == "perf_suite" and not doc.get("benches"):
        problems.append(f"{label}: perf_suite has no benches")

    return problems


def synthetic(version, kind, manifest):
    """Minimal document of `kind` at `version` straight from the manifest."""
    doc = {"schema_version": version, "kind": kind}
    kind_spec = manifest["kinds"][kind]
    for field in kind_spec.get("required", []):
        doc[field] = {}
    if "provenance" in doc:
        doc["provenance"] = {
            f: "x" for f in fields_for(version, manifest["provenance_fields"])}
    if kind == "legalize":
        doc["pipeline"] = {s: {} for s in kind_spec["pipeline_stages"]}
    if kind == "perf_suite":
        doc["benches"] = {"bench_x": {"x_seconds": 1.0}}
    hist_entry = {f: 0 for f in fields_for(version, manifest["histogram_fields"])}
    doc["metrics"] = {
        "counters": {}, "gauges": {}, "histograms": {"h": dict(hist_entry)}}
    if version >= manifest["block_min_version"]["batch"] and kind == "bench":
        doc["batch"] = {
            f: 0 for f in fields_for(version, manifest["batch_fields"])}
        doc["batch"]["heartbeat_gap_ms"] = dict(hist_entry)
    return doc


def selftest(manifest):
    failures = []
    current = manifest["current_version"]
    for version in range(1, current + 1):
        for kind in manifest["kinds"]:
            doc = synthetic(version, kind, manifest)
            problems = validate(doc, manifest, f"synthetic v{version} {kind}")
            if problems:
                failures.extend(p + " [expected valid]" for p in problems)

            # Dropping any required kind field must fail.
            for field in manifest["kinds"][kind].get("required", []):
                broken = dict(doc)
                del broken[field]
                if not validate(broken, manifest,
                                f"v{version} {kind} -{field}"):
                    failures.append(
                        f"v{version} {kind}: missing '{field}' accepted")

    # v6 histograms without percentiles must fail; the same entry at v5 is
    # fine (the bump is additive).
    v6 = synthetic(6, "legalize", manifest)
    del v6["metrics"]["histograms"]["h"]["p95"]
    if not validate(v6, manifest, "v6 no-p95"):
        failures.append("v6 histogram without p95 accepted")
    v5 = synthetic(5, "legalize", manifest)
    if validate(v5, manifest, "v5 legalize"):
        failures.append("v5 histogram without percentiles rejected")

    # A batch block before v6, and a v6 batch block with a field missing,
    # must both fail.
    early = synthetic(5, "bench", manifest)
    early["batch"] = {}
    if not validate(early, manifest, "v5 batch-block"):
        failures.append("batch block on v5 accepted")
    partial = synthetic(6, "bench", manifest)
    del partial["batch"]["stalls_detected"]
    if not validate(partial, manifest, "v6 partial-batch"):
        failures.append("v6 batch block without stalls_detected accepted")

    # Unknown versions and kinds are rejected.
    if not validate({"schema_version": 99, "kind": "legalize"}, manifest, "v99"):
        failures.append("schema_version 99 accepted")
    if not validate({"schema_version": 6, "kind": "mystery"}, manifest, "mystery"):
        failures.append("unknown kind accepted")
    return failures


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"command failed ({proc.returncode}): "
                         f"{' '.join(cmd)}\n{proc.stdout}\n{proc.stderr}")


def live_reports(args, workdir):
    """Generate real reports with the built binaries; return their paths."""
    paths = []
    design = os.path.join(workdir, "schema_check.mclg")
    if args.cli:
        run([args.cli, "generate", "--cells", "400", "--density", "0.55",
             "--seed", "11", "--out", design], workdir)
        report = os.path.join(workdir, "schema_check_run.json")
        run([args.cli, "legalize", "--in", design, "--report-out", report],
            workdir)
        paths.append(report)
    if args.batch:
        if not args.cli:
            raise SystemExit("--batch requires --cli to generate the design")
        manifest_txt = os.path.join(workdir, "schema_check_manifest.txt")
        with open(manifest_txt, "w", encoding="utf-8") as fh:
            fh.write(design + "\n")
        report = os.path.join(workdir, "schema_check_batch.json")
        run([args.batch, "--manifest", manifest_txt, "--telemetry-ms", "20",
             "--report-out", report], workdir)
        paths.append(report)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="*", help="report JSON files")
    parser.add_argument("--manifest", default=DEFAULT_MANIFEST)
    parser.add_argument("--cli", help="mclg_cli binary for a live run report")
    parser.add_argument("--batch",
                        help="mclg_batch binary for a live batch report")
    parser.add_argument("--workdir", help="scratch dir for live reports")
    args = parser.parse_args()

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)

    failures = selftest(manifest)
    if failures:
        for failure in failures:
            print(f"schema selftest FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"schema selftest OK (v1..v{manifest['current_version']}, "
          f"kinds: {', '.join(sorted(manifest['kinds']))})")

    reports = list(args.reports)
    if args.cli or args.batch:
        # The binaries run with cwd=workdir; keep relative paths working.
        if args.cli:
            args.cli = os.path.abspath(args.cli)
        if args.batch:
            args.batch = os.path.abspath(args.batch)
        workdir = args.workdir or tempfile.mkdtemp(prefix="mclg_schema_check.")
        os.makedirs(workdir, exist_ok=True)
        reports.extend(live_reports(args, workdir))

    bad = 0
    for path in reports:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = validate(doc, manifest, os.path.basename(path))
        if problems:
            bad += 1
            for problem in problems:
                print(f"schema FAIL: {problem}", file=sys.stderr)
        else:
            print(f"schema OK: {path} (schema_version "
                  f"{doc['schema_version']}, kind {doc['kind']})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
