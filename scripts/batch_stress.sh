#!/usr/bin/env bash
# Batch supervisor torture test: hammer `mclg_batch`
# with workers that segfault, abort, get SIGKILLed, and hang past the
# design timeout, over many iterations, and assert the supervisor's
# contract every time:
#
#   * the batch never dies with the worker — healthy designs always finish;
#   * crash/timeout victims are retried and recover (exit 0) when the fault
#     plan stops firing, or surface as per-design failures (exit 3) when it
#     never does;
#   * shard runs partition the manifest exactly.
#
# Intended to run against an asan-ubsan preset build (build-asan/) where a
# supervisor-side lifetime bug would be fatal, but works with any build:
#
#   scripts/batch_stress.sh <mclg_batch> <mclg_cli> [iterations] [workdir]
#
# Wired as the optional `batch_stress` CTest (-DMCLG_STRESS_TESTS=ON, label
# "stress"); see docs/ROBUSTNESS.md.
set -u

BATCH=${1:?usage: batch_stress.sh <mclg_batch> <mclg_cli> [iterations] [workdir]}
CLI=${2:?usage: batch_stress.sh <mclg_batch> <mclg_cli> [iterations] [workdir]}
ITERATIONS=${3:-25}
WORKDIR=${4:-$(mktemp -d /tmp/mclg_batch_stress.XXXXXX)}

# Resolve the binaries before cd'ing into the workdir.
BATCH=$(readlink -f "$BATCH") || exit 1
CLI=$(readlink -f "$CLI") || exit 1

mkdir -p "$WORKDIR"
cd "$WORKDIR" || exit 1

fail() {
  echo "batch_stress: FAIL at iteration $iter: $*" >&2
  exit 1
}

echo "batch_stress: $ITERATIONS iterations in $WORKDIR"

# One small design set, reused across iterations (generation is the slow
# part; the supervisor behavior under test does not depend on the inputs).
for d in 0 1 2 3; do
  "$CLI" generate --cells $((300 + 60 * d)) --density 0.55 \
         --seed $((40 + d)) --out "d$d.mclg" >/dev/null \
    || { iter=setup; fail "mclg_cli generate d$d"; }
  echo "d$d.mclg d$d.out.mclg"
done > batch.txt

for ((iter = 1; iter <= ITERATIONS; ++iter)); do
  victim="d$((RANDOM % 4))"
  mode_pick=$((RANDOM % 3))

  # Recoverable fault: fails the victim's first attempt only; with retries
  # available the whole batch must come back clean.
  case $mode_pick in
    0) fault="$victim:segv:1" ;;
    1) fault="$victim:abort:1" ;;
    2) fault="$victim:kill:1" ;;
  esac
  "$BATCH" --manifest batch.txt \
           --inject-fault "$fault" --max-retries 2 --backoff-ms 1 \
           >out.txt 2>&1
  code=$?
  [ $code -eq 0 ] || { cat out.txt >&2; fail "recoverable $fault exit $code"; }
  grep -q "4/4 designs legalized" out.txt \
    || { cat out.txt >&2; fail "recoverable $fault: not all designs ok"; }

  # Unrecoverable fault: every attempt dies; the victim must surface as a
  # per-design failure (exit 3) while the other three designs finish.
  "$BATCH" --manifest batch.txt \
           --inject-fault "$victim:kill:99" --max-retries 1 --backoff-ms 1 \
           >out.txt 2>&1
  code=$?
  [ $code -eq 3 ] || { cat out.txt >&2; fail "unrecoverable exit $code (want 3)"; }
  grep -q "3/4 designs legalized" out.txt \
    || { cat out.txt >&2; fail "unrecoverable: survivors did not finish"; }
  grep -q "crashed" out.txt \
    || { cat out.txt >&2; fail "unrecoverable: no crash status reported"; }

  # Timeout escalation every few iterations (slow: SIGTERM is ignored, the
  # supervisor must wait out the grace period before SIGKILL).
  if ((iter % 5 == 0)); then
    "$BATCH" --manifest batch.txt \
             --inject-fault "$victim:hang:1" --design-timeout 1 \
             --max-retries 2 --backoff-ms 1 >out.txt 2>&1
    code=$?
    [ $code -eq 0 ] || { cat out.txt >&2; fail "timeout-retry exit $code"; }
  fi

  # Shard partition: the three shards together legalize each design once.
  if ((iter % 5 == 1)); then
    total=0
    for s in 0 1 2; do
      "$BATCH" --manifest batch.txt --shard $s/3 \
               >out.txt 2>&1 || { cat out.txt >&2; fail "shard $s/3"; }
      n=$(grep -c "hash" out.txt)
      total=$((total + n))
    done
    [ $total -eq 4 ] || fail "shard union covered $total designs (want 4)"
  fi

  echo "batch_stress: iteration $iter/$ITERATIONS ok"
done

echo "batch_stress: PASS ($ITERATIONS iterations)"
