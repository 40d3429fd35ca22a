#!/usr/bin/env python3
"""Validate run-report documents against the committed field manifest.

The manifest (docs/report_schema_fields.json) lists the fields of the one
schema version every writer emits (kRunReportSchemaVersion, 8). A document
must carry that schema_version, every required field of its kind, the
listed provenance and metrics fields, the per-histogram fields (pow2 buckets
plus p50/p95/p99) on every histogram, when it has a `batch` block, every
batch field, and, when it has an `eco` block, every eco field and no field
the manifest does not list.

Usage:
    check_report_schema.py [--manifest FILE] [report.json ...]
        [--cli MCLG_CLI] [--batch MCLG_BATCH] [--workdir DIR]

Always runs a manifest self-test first: for every kind, a minimal synthetic
document must validate, and the same document with one required field
removed must fail, as must a histogram without p95, a batch block without
stalls_detected, an eco block without dirty_cells or with a field the
manifest does not list, an unknown kind and any other schema_version. With
--cli /
--batch, live reports are generated by the real binaries and validated too
— that is what the `report_schema` ctest does, so a writer-side field
rename breaks the build, not a downstream dashboard. Exits 0 when
everything passes.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_MANIFEST = os.path.join(HERE, "..", "docs", "report_schema_fields.json")


def validate(doc, manifest, label):
    """Return a list of problems (empty = valid)."""
    problems = []

    version = doc.get("schema_version")
    if version != manifest["schema_version"]:
        return [f"{label}: schema_version {version!r}, "
                f"want {manifest['schema_version']}"]

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
        for field in manifest["provenance_fields"]:
            if field not in doc["provenance"]:
                problems.append(f"{label}: provenance missing '{field}'")

    for stage in kind_spec.get("pipeline_stages", []):
        if stage not in doc.get("pipeline", {}):
            problems.append(f"{label}: pipeline missing stage block '{stage}'")

    hist_fields = manifest["histogram_fields"]
    if "metrics" in doc:
        metrics = doc["metrics"]
        for field in manifest["metrics_fields"]:
            if field not in metrics:
                problems.append(f"{label}: metrics missing '{field}'")
        for name, entry in metrics.get("histograms", {}).items():
            for field in hist_fields:
                if field not in entry:
                    problems.append(
                        f"{label}: histogram '{name}' missing '{field}'")

    if "batch" in doc:
        batch = doc["batch"]
        for field in manifest["batch_fields"]:
            if field not in batch:
                problems.append(f"{label}: batch block missing '{field}'")
        gaps = batch.get("heartbeat_gap_ms", {})
        for field in hist_fields:
            if field not in gaps:
                problems.append(
                    f"{label}: batch.heartbeat_gap_ms missing '{field}'")

    if "eco" in doc:
        eco = doc["eco"]
        for field in manifest["eco_fields"]:
            if field not in eco:
                problems.append(f"{label}: eco block missing '{field}'")
        known = set(manifest["eco_fields"]) | set(
            manifest["eco_optional_fields"])
        for field in sorted(set(eco) - known):
            problems.append(f"{label}: eco block has unknown field '{field}'")

    return problems


def synthetic(kind, manifest):
    """Minimal document of `kind` straight from the manifest."""
    doc = {"schema_version": manifest["schema_version"], "kind": kind}
    kind_spec = manifest["kinds"][kind]
    for field in kind_spec.get("required", []):
        doc[field] = {}
    if "provenance" in doc:
        doc["provenance"] = {f: "x" for f in manifest["provenance_fields"]}
    if kind == "legalize":
        doc["pipeline"] = {s: {} for s in kind_spec["pipeline_stages"]}
        doc["eco"] = {f: 0 for f in manifest["eco_fields"]}
    hist_entry = {f: 0 for f in manifest["histogram_fields"]}
    doc["metrics"] = {
        "counters": {}, "gauges": {}, "histograms": {"h": dict(hist_entry)}}
    if kind == "bench":
        doc["batch"] = {f: 0 for f in manifest["batch_fields"]}
        doc["batch"]["heartbeat_gap_ms"] = dict(hist_entry)
    return doc


def selftest(manifest):
    failures = []
    for kind in manifest["kinds"]:
        doc = synthetic(kind, manifest)
        problems = validate(doc, manifest, f"synthetic {kind}")
        if problems:
            failures.extend(p + " [expected valid]" for p in problems)

        # Dropping any required kind field must fail.
        for field in manifest["kinds"][kind].get("required", []):
            broken = dict(doc)
            del broken[field]
            if not validate(broken, manifest, f"{kind} -{field}"):
                failures.append(f"{kind}: missing '{field}' accepted")

    # A histogram without percentiles and a batch block with a field
    # missing must fail.
    no_p95 = synthetic("legalize", manifest)
    del no_p95["metrics"]["histograms"]["h"]["p95"]
    if not validate(no_p95, manifest, "no-p95"):
        failures.append("histogram without p95 accepted")
    partial = synthetic("bench", manifest)
    del partial["batch"]["stalls_detected"]
    if not validate(partial, manifest, "partial-batch"):
        failures.append("batch block without stalls_detected accepted")
    no_dirty = synthetic("legalize", manifest)
    del no_dirty["eco"]["dirty_cells"]
    if not validate(no_dirty, manifest, "eco-no-dirty"):
        failures.append("eco block without dirty_cells accepted")
    stale = synthetic("legalize", manifest)
    stale["eco"]["warm_restarts"] = 0
    if not validate(stale, manifest, "eco-unknown"):
        failures.append("eco block with an unlisted field accepted")

    # Other versions and unknown kinds are rejected.
    current = manifest["schema_version"]
    for version in (current - 1, current + 1):
        doc = synthetic("legalize", manifest)
        doc["schema_version"] = version
        if not validate(doc, manifest, f"v{version}"):
            failures.append(f"schema_version {version} accepted")
    mystery = synthetic("legalize", manifest)
    mystery["kind"] = "mystery"
    if not validate(mystery, manifest, "mystery"):
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
        legal = os.path.join(workdir, "schema_check_legal.mclg")
        run([args.cli, "legalize", "--in", design, "--out", legal,
             "--report-out", report], workdir)
        paths.append(report)
        # An (empty) ECO run against that legal snapshot writes the eco
        # block.
        report = os.path.join(workdir, "schema_check_eco.json")
        run([args.cli, "legalize", "--in", legal, "--eco-from", legal,
             "--report-out", report], workdir)
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
    print(f"schema selftest OK (v{manifest['schema_version']}, "
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
