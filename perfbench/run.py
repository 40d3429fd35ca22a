#!/usr/bin/env python3
"""perfbench: the one benchmark of the mclg legalizer.

    python3 perfbench/run.py --workload dense_t1 --seed 1 --seconds 30 --trace 0

Builds the library, `mclg_cli`, `mclg_serve` and the traced driver from the
checkout's sources (into .bench_build/), generates the workload's inputs
from --seed, measures for about --seconds seconds, checks every output, and
prints one JSON result object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (END_TO_END), measured on the real
binaries with tracing off. --trace 1 runs the traced driver
(perfbench_trace) next to the untraced binaries and reports the per-layer
metrics (PER_LAYER). README.md in this directory explains the workloads,
the metrics and which layer metric should move which end-to-end metric.

Exit status: 0 when every output was legal and deterministic, 1 otherwise
(the result line is still printed) and on build or set-up errors (no result
line).
"""

import argparse
import collections
import hashlib
import json
import os
import random
import re
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_build" / "work"
CLI = BUILD_DIR / "mclg" / "tools" / "mclg_cli"
SERVE = BUILD_DIR / "mclg" / "tools" / "mclg_serve"
TRACE = BUILD_DIR / "perfbench_trace"

# Design structure (cell library, fences, hotspots) comes from a fixed
# generator seed; --seed perturbs the GP positions (legalize workloads) or
# draws the ECO request stream (eco_serve). Whole-design reseeding changes
# legalization cost and quality by up to 4x between seeds, which would
# drown any change under test.
DESIGN_SEED = 7
FENCES = 2
PRESET = "contest"
JITTER_SITES = 3.0
JITTER_ROWS = 1.0

WORKLOADS = {
    # Dense, serial: MGL's window insertion and its full-core fallback do
    # nearly all the work; the executor is idle.
    "dense_t1": {"kind": "legalize", "cells": 2000, "density": 0.90,
                 "threads": 1, "designs": 36},
    # Sparse, four lanes: the only workload that runs MglScheduler and the
    # work-stealing executor.
    "sparse_t4": {"kind": "legalize", "cells": 8000, "density": 0.55,
                  "threads": 4, "designs": 16},
    # Resident ECO: small writes against one loaded design.
    "eco_serve": {"kind": "serve", "cells": 8000, "density": 0.55,
                  "threads": 1},
}

ECO_SETUPS = 11           # daemon spawns per run; setup_s is their median
ECO_MIN_REQUESTS = 1000   # p99 needs ten samples beyond it
ECO_TRACE_MIN_REQUESTS = 200
ECO_OPS = 3               # moves per EcoDelta
ECO_MOVE_SITES = 6        # each move is +-6 sites from the legal position
ECO_ROLLBACK_EVERY = 10   # the 10th request rolls back, the others commit
ECO_REPLAY = 100          # requests replayed on a second daemon

MIN_LEGALIZE_RUNS = 20   # ten samples beyond p50
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "score": "score",
    "avg_disp": "rows",
    "max_disp": "rows",
}

PER_LAYER = {
    "parsers.load_s": "s",
    "parsers.save_s": "s",
    "db.build_s": "s",
    "mgl.s": "s",
    "mgl.fallback_cells": "count",
    "mgl.fallback_frac": "ratio",
    "mgl.window_expansions": "count",
    "mgl.insert.attempted": "count",
    "mgl.insert.commit_ratio": "ratio",
    "mgl.window.candidates": "count",
    "mgl.curve_cache.hit_ratio": "ratio",
    "pipeline.cpu_s": "s",
    "pipeline.lanes_busy": "lanes",
    "executor.steals": "count",
    "executor.parks": "count",
    "executor.chunk_grabs": "count",
    "maxdisp.s": "s",
    "maxdisp.groups": "count",
    "maxdisp.cells_moved": "count",
    "mcfopt.s": "s",
    "mcfopt.components": "count",
    "mcfopt.arcs": "count",
    "mcf.simplex.pivots": "count",
    "mcf.simplex.warm.solves": "count",
    "guard.s": "s",
    "guard.rollbacks": "count",
    "guard.degradations": "count",
    "eval.score_s": "s",
    "eco.s": "s",
    "eco.dirty_cells": "count",
    "eco.spilled_cells": "count",
    "eco.warm_restarts": "count",
    "eco.cold_fallbacks": "count",
    "eco.full_run_frac": "ratio",
    "serve.apply_s": "s",
    "serve.commit_s": "s",
    "serve.overhead_ms": "ms",
    "serve.busy_rejections": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.hash_match": "bool",
}

# Layer metrics the traced run cannot separate from outside on a workload,
# with the reason; they are reported as 0 there.
NOT_MEASURED = {
    "legalize": {
        "eco.*, serve.*": "no ECO request or serve session on this workload",
    },
    "serve": {
        "mgl.s, maxdisp.s, mcfopt.s, guard.s":
            "the stages run inside ecoRelegalize, which reports only its "
            "total (eco.s)",
        "parsers.save_s": "the serve path never writes a design file",
    },
}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ---- Small pure helpers (covered by test_run.py) ----------------------------

def valid_metric_name(name):
    return NAME_RE.fullmatch(name) is not None


def tail_percentile(samples):
    """The highest of p99/p90/p50 with at least ten samples beyond it, as
    (percentile, nearest-rank value), or None when there is none."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 90, 50):
        if n * (100 - pct) // 100 >= 10:
            rank = (n * pct + 99) // 100
            return pct, ordered[rank - 1]
    return None


def run_failed(exit_code):
    """A legalize process fails unless it exits 0 (legal) or 2 (legal after
    guard degradation)."""
    return exit_code not in (0, 2)


def serve_failed(status):
    """A serve response fails unless its status is ok or degraded."""
    return status not in ("ok", "degraded")


def lanes_busy(cpu_s, wall_s):
    """Average number of busy lanes: process CPU over wall time."""
    return cpu_s / wall_s if wall_s > 0 else 0.0


STAGE_ROW_RE = re.compile(r"^(mgl|maxdisp|mcf|ripup|recovery) +\S+ +\d+ +"
                          r"(\d+\.\d+) ", re.M)


def stage_seconds(output):
    """Sum of the stage seconds in the guard table `mclg_cli legalize`
    prints, or None when the table is not complete."""
    rows = dict(STAGE_ROW_RE.findall(output))
    if len(rows) != 5:
        return None
    return sum(float(seconds) for seconds in rows.values())


def perturb_design(text, seed, index):
    """Shift every movable cell's GP position by a seeded uniform offset of
    up to JITTER_SITES sites and JITTER_ROWS rows, kept inside the core."""
    rng = random.Random(seed * 1000 + index)
    sizes, out = [], []
    core_x = core_y = 0
    for line in text.splitlines(keepends=True):
        fields = line.split()
        if fields and fields[0] == "CORE":
            core_x, core_y = int(fields[1]), int(fields[2])
        elif fields and fields[0] == "TYPE":
            sizes.append((int(fields[2]), int(fields[3])))
        elif fields and fields[0] == "CELL" and fields[5] == "0":
            width, height = sizes[int(fields[1])]
            x = float(fields[2]) + rng.uniform(-JITTER_SITES, JITTER_SITES)
            y = float(fields[3]) + rng.uniform(-JITTER_ROWS, JITTER_ROWS)
            fields[2] = repr(min(max(x, 0.0), float(core_x - width)))
            fields[3] = repr(min(max(y, 0.0), float(core_y - height)))
            line = " ".join(fields) + "\n"
        out.append(line)
    return "".join(out)


def eco_requests(seed, movable, core_x):
    """The seeded ECO request stream: (moves, verb) pairs, each move a
    (cell, gpX, gpY) within ECO_MOVE_SITES of the cell's legal position."""
    rng = random.Random(seed)
    k = 0
    while True:
        moves = []
        for _ in range(ECO_OPS):
            cell, x, y = movable[rng.randrange(len(movable))]
            dx = rng.randint(-ECO_MOVE_SITES, ECO_MOVE_SITES)
            moves.append((cell, min(max(x + dx, 0), core_x - 1), y))
        k += 1
        yield moves, ("rollback" if k % ECO_ROLLBACK_EVERY == 0 else "commit")


def result_line(correct, attempted, failed, values, units):
    metrics = {}
    for name, value in values.items():
        if not valid_metric_name(name) or name not in units:
            raise ValueError(f"bad metric name {name!r}")
        metrics[name] = {"value": value, "unit": units[name]}
    missing = set(units) - set(metrics)
    if missing:
        raise ValueError(f"metrics not measured: {sorted(missing)}")
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# ---- Processes --------------------------------------------------------------

def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "mclg_cli", "mclg_serve", "perfbench_trace"])
    with open(log_path, "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                tail = log_path.read_text(errors="replace")[-3000:]
                sys.stderr.write(tail)
                raise SystemExit(f"perfbench: build step failed: {step}")


Child = collections.namedtuple("Child", "wall code rss_kb")


def run_child(args, out_path):
    """Run one process to completion; stdout and stderr go to out_path.
    Returns its wall time, exit code and peak RSS in KiB."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in args], stdout=out,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss)


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


EVAL_RE = re.compile(r": (LEGAL|ILLEGAL).* avgDisp=(\S+) maxDisp=(\S+) .*"
                     r"score=(\S+)")


def evaluate(path, work):
    """Re-check a placement with `mclg_cli evaluate` (src/eval): returns
    (legal, score, avg_disp, max_disp)."""
    out = work / "evaluate.txt"
    child = run_child([CLI, "evaluate", "--in", path], out)
    match = EVAL_RE.search(out.read_text(errors="replace"))
    if match is None:
        return False, 0.0, 0.0, 0.0
    legal = child.code == 0 and match.group(1) == "LEGAL"
    return legal, float(match.group(4)), float(match.group(2)), \
        float(match.group(3))


def generate(spec, path, work):
    child = run_child([CLI, "generate", "--cells", spec["cells"], "--density",
                       spec["density"], "--fences", FENCES, "--seed",
                       DESIGN_SEED, "--out", path], work / "generate.txt")
    if child.code != 0:
        raise SystemExit("perfbench: mclg_cli generate failed")
    return Path(path).read_text()


# ---- Legalize workloads (dense_t1, sparse_t4) -------------------------------

def legalize_inputs(spec, seed, work):
    base = generate(spec, work / "base.mclg", work)
    inputs = []
    for i in range(spec["designs"]):
        path = work / f"in{i}.mclg"
        path.write_text(perturb_design(base, seed, i))
        inputs.append(path)
    return inputs


def legalize_args(spec, inp, out):
    return [CLI, "legalize", "--in", inp, "--out", out, "--preset", PRESET,
            "--threads", spec["threads"]]


def legalize_untraced(spec, seed, seconds, work):
    inputs = legalize_inputs(spec, seed, work)
    count = len(inputs)
    # Cycle through the designs until the time is up. Every design runs at
    # least once and the first one at least twice, so each run re-checks
    # determinism on a repeated input; MIN_LEGALIZE_RUNS gives the
    # percentile rule enough samples. The set-up sample of a process is its
    # wall time outside the legalization stages (process start, parse,
    # database build, guard checks, evaluation and save).
    setup, runs = [], []  # runs: (design, wall, exit code, peak kb, hash)
    start = time.perf_counter()
    while (len(runs) < max(count + 1, MIN_LEGALIZE_RUNS) or
           time.perf_counter() - start < seconds):
        d = len(runs) % count
        out = work / (f"out{d}.mclg" if len(runs) < count else "repeat.mclg")
        out.unlink(missing_ok=True)
        report = work / "legalize.txt"
        child = run_child(legalize_args(spec, inputs[d], out), report)
        stages = stage_seconds(report.read_text(errors="replace"))
        if stages is not None:
            setup.append(child.wall - stages)
        digest = file_hash(out) if out.exists() else None
        runs.append((d, child.wall, child.code, child.rss_kb, digest,
                     stages))

    quality = [evaluate(work / f"out{d}.mclg", work) for d in range(count)]
    first_hash = {d: runs[d][4] for d in range(count)}
    failed = 0
    for d, _, code, _, digest, stages in runs:
        bad = (run_failed(code) or digest is None or stages is None or
               digest != first_hash[d] or not quality[d][0])
        if bad:
            failed += 1
            log(f"design {d}: exit {code}, hash {digest} vs {first_hash[d]}, "
                f"legal {quality[d][0]}, stage table "
                f"{'missing' if stages is None else 'read'}")
    walls = [r[1] for r in runs]
    tail = tail_percentile(walls)
    log(f"{len(runs)} legalize runs over {count} designs, tail p{tail[0]}; "
        "hashes " + " ".join(first_hash[d] or "-" for d in range(count)))
    values = {
        "setup_s": statistics.median(setup or [0.0]),
        "latency_p50_ms": statistics.median(walls) * 1000.0,
        "latency_tail_ms": tail[1] * 1000.0,
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(r[3] for r in runs) / 1024.0,
        "score": statistics.fmean(q[1] for q in quality),
        "avg_disp": statistics.fmean(q[2] for q in quality),
        "max_disp": statistics.fmean(q[3] for q in quality),
    }
    return failed == 0, len(runs), failed, values


def legalize_traced(spec, seed, seconds, work):
    inputs = legalize_inputs(spec, seed, work)
    traces, cli_walls, trace_walls = [], [], []
    failed = 0
    hashes_match = True
    start = time.perf_counter()
    for d, inp in enumerate(inputs):
        if d >= 2 and time.perf_counter() - start > seconds:
            break
        cli_out, trace_out = work / f"cli{d}.mclg", work / f"trace{d}.mclg"
        cli = run_child(legalize_args(spec, inp, cli_out),
                        work / "legalize.txt")
        json_path = work / f"trace{d}.json"
        traced = run_child([TRACE, "legalize", "--in", inp, "--out",
                            trace_out, "--threads", spec["threads"]],
                           json_path)
        data = json.loads(json_path.read_text().strip().splitlines()[-1])
        traces.append(data)
        cli_walls.append(cli.wall)
        trace_walls.append(traced.wall)
        same = (cli_out.exists() and trace_out.exists() and
                file_hash(cli_out) == file_hash(trace_out))
        hashes_match = hashes_match and same
        if (run_failed(cli.code) or traced.code != 0 or not data["legal"] or
                data["unplaced"] != 0):
            failed += 1

    def mean(key):
        return statistics.fmean(key(t) for t in traces)

    def counter(name):
        return mean(lambda t: t["counters"].get(name, 0))

    def total(key):
        return sum(key(t) for t in traces)

    def counter_total(name):
        return total(lambda t: t["counters"].get(name, 0))

    attempted = counter_total("mgl.insert.attempted")
    hits = counter_total("mgl.curve_cache.hit")
    misses = counter_total("mgl.curve_cache.miss")
    windows, candidates = (
        total(lambda t: t["histograms"].get("mgl.window.candidates",
                                            [0, 0])[i]) for i in (0, 1))
    spans = ("load", "segment_map", "placement_state", "legalize", "eval",
             "save")
    values = {name: 0.0 for name in PER_LAYER}
    values.update({
        "parsers.load_s": mean(lambda t: t["spans"]["load"]),
        "parsers.save_s": mean(lambda t: t["spans"]["save"]),
        "db.build_s": mean(lambda t: t["spans"]["segment_map"] +
                           t["spans"]["placement_state"]),
        "mgl.s": mean(lambda t: t["stages"]["mgl"]),
        "mgl.fallback_cells": mean(lambda t: t["mgl"]["fallback"]),
        "mgl.fallback_frac": total(lambda t: t["mgl"]["fallback"]) /
        max(1, total(lambda t: t["mgl"]["placed"])),
        "mgl.window_expansions": mean(lambda t: t["mgl"]["window_expansions"]),
        "mgl.insert.attempted": counter("mgl.insert.attempted"),
        "mgl.insert.commit_ratio":
            counter_total("mgl.insert.committed") / max(1, attempted),
        "mgl.window.candidates": candidates / max(1, windows),
        "mgl.curve_cache.hit_ratio": hits / max(1, hits + misses),
        "pipeline.cpu_s": mean(lambda t: t["cpu_s"]),
        "pipeline.lanes_busy": lanes_busy(
            total(lambda t: t["cpu_s"]),
            total(lambda t: t["spans"]["legalize"])),
        "executor.steals": mean(lambda t: t["executor"]["steals"]),
        "executor.parks": mean(lambda t: t["executor"]["parks"]),
        "executor.chunk_grabs": mean(lambda t: t["executor"]["chunk_grabs"]),
        "maxdisp.s": mean(lambda t: t["stages"]["maxdisp"]),
        "maxdisp.groups": counter("maxdisp.groups"),
        "maxdisp.cells_moved": counter("maxdisp.cells_moved"),
        "mcfopt.s": mean(lambda t: t["stages"]["mcf"]),
        "mcfopt.components": counter("mcfopt.components"),
        "mcfopt.arcs": counter("mcfopt.arcs"),
        "mcf.simplex.pivots": counter("mcf.simplex.pivots"),
        "mcf.simplex.warm.solves": counter("mcf.simplex.warm.solves"),
        "guard.s": mean(lambda t: t["spans"]["legalize"] -
                        sum(t["stages"].values())),
        "guard.rollbacks": counter("guard.rollbacks"),
        "guard.degradations": counter("guard.degradations"),
        "eval.score_s": mean(lambda t: t["spans"]["eval"]),
        "trace.unattributed_s": mean(lambda t: t["spans"]["total"] -
                                     sum(t["spans"][s] for s in spans)),
        "trace.overhead_frac": sum(trace_walls) / sum(cli_walls) - 1.0,
        "trace.hash_match": 1 if hashes_match else 0,
    })
    return failed == 0, len(traces), failed, values, hashes_match


# ---- Resident ECO workload (eco_serve) ---------------------------------------

FRAME_MAGIC = 0x4D434C47
FRAME_LOAD, FRAME_ECO, FRAME_COMMIT, FRAME_ROLLBACK = 6, 7, 8, 9
FRAME_QUERY, FRAME_SHUTDOWN, FRAME_RESPONSE = 10, 11, 12
TENANT = "perfbench"


class Daemon:
    """One `mclg_serve --stdio` child speaking the length-prefixed frame
    protocol of docs/PROTOCOL.md."""

    def __init__(self, log_file):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen([str(SERVE), "--stdio"],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=log_file,
                                     bufsize=0)
        self.next_id = 1
        self.pending = b""

    def request(self, frame_type, headers, body=None):
        lines = [f"proto=1\nid={self.next_id}\n"]
        lines += [f"{key}={value}\n" for key, value in headers.items()]
        payload = "".join(lines).encode()
        if body is not None:
            payload += b"---\n" + body
        self.next_id += 1
        self.proc.stdin.write(struct.pack("<III", FRAME_MAGIC, frame_type,
                                          len(payload)) + payload)
        return self._response()

    def _read(self, size):
        while len(self.pending) < size:
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise SystemExit("perfbench: mclg_serve closed the stream")
            self.pending += chunk
        data, self.pending = self.pending[:size], self.pending[size:]
        return data

    def _response(self):
        magic, frame_type, size = struct.unpack("<III", self._read(12))
        if magic != FRAME_MAGIC or frame_type != FRAME_RESPONSE:
            raise SystemExit("perfbench: bad frame from mclg_serve")
        payload = self._read(size)
        split = payload.find(b"\n---\n")
        head, body = ((payload[:split], payload[split + 5:]) if split >= 0
                      else (payload, b""))
        headers = dict(line.split("=", 1) for line in
                       head.decode().splitlines() if "=" in line)
        return headers, body

    def close(self):
        """Shut the daemon down; returns its peak RSS in KiB."""
        try:
            self.request(FRAME_SHUTDOWN, {"scope": "daemon"})
        except (SystemExit, OSError):
            self.proc.kill()
        self.proc.stdin.close()
        _, _, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = 0
        self.proc.stdout.close()
        return usage.ru_maxrss


def load_daemon(text, log_file):
    """Spawn a daemon and load the design; returns (daemon, seconds from
    spawn to the LoadDesign response, response headers)."""
    daemon = Daemon(log_file)
    headers, _ = daemon.request(FRAME_LOAD, {"tenant": TENANT,
                                             "preset": PRESET, "threads": 1},
                                text)
    return daemon, time.perf_counter() - daemon.spawned, headers


def movable_positions(daemon):
    """(cell id, x, y) of every movable cell in the daemon's legal design,
    and the core width."""
    _, body = daemon.request(FRAME_QUERY, {"tenant": TENANT, "key": "design"})
    movable, cell, core_x = [], 0, 0
    for line in body.decode().splitlines():
        fields = line.split()
        if fields and fields[0] == "CORE":
            core_x = int(fields[1])
        elif fields and fields[0] == "CELL":
            if fields[5] == "0":
                movable.append((cell, int(fields[7]), int(fields[8])))
            cell += 1
    return movable, core_x


def eco_round_trip(daemon, moves, verb):
    """One EcoDelta plus its Commit/Rollback; returns (latency s, delta
    headers, delta body, finish headers)."""
    body = "".join(f"move {c} {x} {y}\n" for c, x, y in moves).encode()
    start = time.perf_counter()
    delta, report = daemon.request(FRAME_ECO, {"tenant": TENANT,
                                               "ops": len(moves)}, body)
    finish, _ = daemon.request(
        FRAME_COMMIT if verb == "commit" else FRAME_ROLLBACK,
        {"tenant": TENANT})
    return time.perf_counter() - start, delta, report, finish


def eco_untraced(spec, seed, seconds, work):
    text = generate(spec, work / "base.mclg", work).encode()
    with open(work / "serve.log", "wb") as log_file:
        daemons, setup, load_hashes = [], [], set()

        def load():
            daemon, seconds_to_load, headers = load_daemon(text, log_file)
            daemons.append(daemon)
            setup.append(seconds_to_load)
            load_hashes.add(headers.get("hash"))
            if serve_failed(headers.get("status")):
                raise SystemExit(f"perfbench: LoadDesign failed: {headers}")
            return daemon

        try:
            main = load()
            movable, core_x = movable_positions(main)
            stream = eco_requests(seed, movable, core_x)
            sent, latencies, hashes, quality = [], [], [], []
            failed = 0
            # The host's speed drifts over seconds, so set-ups are spread
            # over the run: one before the loop, ECO_SETUPS - 2 inside it
            # (their time is not loop time) and the replay daemon after it.
            # The request right after an inner set-up finds its caches
            # evicted by the other daemon, so its latency is not sampled.
            interval = seconds / (ECO_SETUPS - 1)
            start = time.perf_counter()
            paused = 0.0
            while (len(latencies) < ECO_MIN_REQUESTS or
                   time.perf_counter() - start - paused < seconds):
                cold =(len(setup) < ECO_SETUPS - 1 and
                        time.perf_counter() - start - paused >=
                        len(setup) * interval)
                if cold:
                    pause = time.perf_counter()
                    load()
                    daemons.pop().close()
                    paused += time.perf_counter() - pause
                moves, verb = next(stream)
                latency, delta, report, finish = eco_round_trip(main, moves,
                                                                verb)
                sent.append((moves, verb))
                if not cold:
                    latencies.append(latency)
                hashes.append((delta.get("hash"), finish.get("hash")))
                if (serve_failed(delta.get("status")) or
                        serve_failed(finish.get("status"))):
                    failed += 1
                if len(quality) < ECO_MIN_REQUESTS:
                    quality.append(json.loads(report)["quality"])
            elapsed = time.perf_counter() - start - paused

            replay = load()
            drift = len(load_hashes) != 1
            for k, (moves, verb) in enumerate(sent[:ECO_REPLAY]):
                _, delta, _, finish = eco_round_trip(replay, moves, verb)
                if (delta.get("hash"), finish.get("hash")) != hashes[k]:
                    drift = True
            if drift:
                failed += 1
                log("placement hash drift between daemons at a fixed seed")

            _, design = main.request(FRAME_QUERY, {"tenant": TENANT,
                                                   "key": "design"})
            final_path = work / "final.mclg"
            final_path.write_bytes(design)
            if not evaluate(final_path, work)[0]:
                failed += 1
                log("final committed design is not legal")
        finally:
            rss = [daemon.close() for daemon in daemons]
    tail = tail_percentile(latencies)
    log(f"set-ups {[round(x, 3) for x in setup]}")
    log(f"{len(sent)} requests; load hash {sorted(load_hashes)}; final "
        f"{hashes[-1][1]}; tail p{tail[0]}")
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail[1] * 1000.0,
        "ops_per_s": len(sent) / elapsed,
        "peak_rss_mb": rss[0] / 1024.0,
        # Means over a fixed request prefix: the design's maximum
        # displacement changes only a few times in 1,000 requests, so a
        # median would pick one seed-specific level.
        "score": statistics.fmean(q["score"] for q in quality),
        "avg_disp": statistics.fmean(q["avg_disp"] for q in quality),
        "max_disp": statistics.fmean(q["max_disp"] for q in quality),
    }
    return failed == 0, len(sent), failed, values


def eco_traced(spec, seed, seconds, work):
    text = generate(spec, work / "base.mclg", work).encode()
    with open(work / "serve.log", "wb") as log_file:
        daemon, _, headers = load_daemon(text, log_file)
        try:
            movable, core_x = movable_positions(daemon)
            stream = eco_requests(seed, movable, core_x)
            sent, rows = [], []
            start = time.perf_counter()
            while (len(sent) < ECO_TRACE_MIN_REQUESTS or
                   time.perf_counter() - start < seconds / 2):
                moves, verb = next(stream)
                latency, delta, _, finish = eco_round_trip(daemon, moves, verb)
                sent.append((moves, verb))
                rows.append((latency, delta, finish))
        finally:
            daemon.close()

    requests_path = work / "requests.txt"
    requests_path.write_text("".join(
        verb + "".join(f" {c} {x} {y}" for c, x, y in moves) + "\n"
        for moves, verb in sent))
    json_path = work / "trace.json"
    traced = run_child([TRACE, "serve", "--design", work / "base.mclg",
                        "--requests", requests_path, "--threads", 1],
                       json_path)
    data = json.loads(json_path.read_text().strip().splitlines()[-1])
    reqs = data["requests"]
    n = len(reqs)
    # The obs registry was on for the traced half of the requests only.
    n_traced = max(1, sum(1 for r in reqs if r["traced"]))

    statuses = [row[1].get("status") for row in rows]
    failed = sum(1 for s in statuses if serve_failed(s))
    failed += sum(1 for r in reqs if serve_failed(r["status"]))
    if traced.code != 0 or not data["legal"]:
        failed += 1
    hashes_match = (
        data["load_hash"] == headers.get("hash") and n == len(rows) and
        all((r["hash"], r["finish_hash"]) ==
            (row[1].get("hash"), row[2].get("hash"))
            for r, row in zip(reqs, rows)))

    reports = [r.get("report", {}) for r in reqs]
    eco = [rep.get("eco", {}) for rep in reports]
    mgl = [rep.get("pipeline", {}).get("mgl", {}) for rep in reports]
    counters = data["counters"]
    hist = data["histograms"].get("mgl.window.candidates", [0, 0])
    attempted = counters.get("mgl.insert.attempted", 0)
    hits = counters.get("mgl.curve_cache.hit", 0)
    misses = counters.get("mgl.curve_cache.miss", 0)

    def per_request(name):
        return counters.get(name, 0) / n_traced

    def eco_mean(key):
        return statistics.fmean(float(e.get(key, 0)) for e in eco)

    def service_s(traced_half):
        return statistics.median(r["apply_s"] + r["finish_s"] for r in reqs
                                 if r["traced"] == traced_half)

    daemon_service = [float(row[1].get("seconds", 0)) +
                      float(row[2].get("seconds", 0)) for row in rows]
    values = {name: 0.0 for name in PER_LAYER}
    values.update({
        "parsers.load_s": data["spans"]["load"],
        "db.build_s": data["spans"]["segment_map"] +
        data["spans"]["placement_state"],
        "mgl.fallback_cells": statistics.fmean(
            m.get("fallback_placed", 0) for m in mgl),
        "mgl.fallback_frac": sum(m.get("fallback_placed", 0) for m in mgl) /
        max(1, sum(m.get("placed", 0) for m in mgl)),
        "mgl.window_expansions": statistics.fmean(
            m.get("window_expansions", 0) for m in mgl),
        "mgl.insert.attempted": per_request("mgl.insert.attempted"),
        "mgl.insert.commit_ratio":
            counters.get("mgl.insert.committed", 0) / max(1, attempted),
        "mgl.window.candidates": hist[1] / max(1, hist[0]),
        "mgl.curve_cache.hit_ratio": hits / max(1, hits + misses),
        "pipeline.cpu_s": data["cpu_s"] / n,
        "pipeline.lanes_busy": lanes_busy(data["cpu_s"], data["loop_s"]),
        "executor.steals": data["executor"]["steals"] / n,
        "executor.parks": data["executor"]["parks"] / n,
        "executor.chunk_grabs": data["executor"]["chunk_grabs"] / n,
        "maxdisp.groups": per_request("maxdisp.groups"),
        "maxdisp.cells_moved": per_request("maxdisp.cells_moved"),
        "mcfopt.components": per_request("mcfopt.components"),
        "mcfopt.arcs": per_request("mcfopt.arcs"),
        "mcf.simplex.pivots": per_request("mcf.simplex.pivots"),
        "mcf.simplex.warm.solves": per_request("mcf.simplex.warm.solves"),
        "guard.rollbacks": per_request("guard.rollbacks"),
        "guard.degradations": per_request("guard.degradations"),
        "eval.score_s": data["spans"]["eval"],
        "eco.s": eco_mean("seconds_incremental"),
        "eco.dirty_cells": eco_mean("dirty_cells"),
        "eco.spilled_cells": eco_mean("spilled_cells"),
        "eco.warm_restarts": eco_mean("warm_restarts"),
        "eco.cold_fallbacks": eco_mean("cold_fallbacks"),
        "eco.full_run_frac": eco_mean("used_full_run"),
        "serve.apply_s": statistics.fmean(r["apply_s"] for r in reqs),
        "serve.commit_s": statistics.fmean(r["finish_s"] for r in reqs),
        "serve.overhead_ms": statistics.median(
            row[0] - s for row, s in zip(rows, daemon_service)) * 1000.0,
        "serve.busy_rejections": statuses.count("busy"),
        "trace.unattributed_s": statistics.fmean(r["apply_s"] for r in reqs) -
        eco_mean("seconds_incremental") - data["spans"]["eval"],
        "trace.overhead_frac": service_s(True) / service_s(False) - 1.0,
        "trace.hash_match": 1 if hashes_match else 0,
    })
    return failed == 0, n, failed, values, hashes_match


# ---- Entry point -------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build()
    spec = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            run = legalize_traced if spec["kind"] == "legalize" else eco_traced
            correct, attempted, failed, values, match = run(
                spec, args.seed, args.seconds, work)
            for names, reason in NOT_MEASURED[spec["kind"]].items():
                log(f"not measured on {args.workload}: {names} ({reason})")
            if not match:
                log("WARNING: traced placements differ from the untraced "
                    "run; these layer numbers describe a different program")
            line = result_line(correct, attempted, failed, values, PER_LAYER)
        else:
            run = (legalize_untraced if spec["kind"] == "legalize"
                   else eco_untraced)
            correct, attempted, failed, values = run(
                spec, args.seed, args.seconds, work)
            line = result_line(correct, attempted, failed, values, END_TO_END)
    finally:
        for path in sorted(work.glob("*")):
            path.unlink()
        work.rmdir()
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
