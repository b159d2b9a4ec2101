#!/bin/sh
# Command-line regression test for tpcp_tool: the flags-only forms work end
# to end on a temporary posix store, and malformed command lines exit 2
# before doing any work.
#
#   sh tests/tpcp_tool_cli_test.sh path/to/tpcp_tool path/to/tpcpd
set -u
TOOL=$1
TPCPD=$2
DIR=$(mktemp -d "${TMPDIR:-/tmp}/tpcp_tool_cli.XXXXXX") || exit 1
trap 'rm -rf "$DIR"' EXIT
FAILED=0

fail() {
  echo "FAIL: $*"
  FAILED=1
}

# expect_exit CODE ARGS...: runs the tool with ARGS (output in out.txt)
# and requires exit status CODE. A call that hangs is killed after 300 s
# and fails with status 124.
expect_exit() {
  want=$1
  shift
  timeout 300 "$TOOL" "$@" > "$DIR/out.txt" 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    fail "tpcp_tool $* exited $got, want $want"
    cat "$DIR/out.txt"
  fi
}

# generate -> decompose at prefetch depth 0 and 2: same plan, so the two
# factor directories must be byte-identical.
for d in depth0 depth2; do
  expect_exit 0 generate "$DIR/$d" --dims=12x12x12 --parts=2 --rank=3 \
    --seed=7
done
for depth in 0 2; do
  expect_exit 0 decompose "$DIR/depth$depth" --rank=3 --schedule=zo \
    --buffer-fraction=0.3 --max-virtual-iterations=6 --fit-tolerance=-1 \
    --prefetch-depth=$depth
  grep -q "surrogate fit" "$DIR/out.txt" ||
    fail "decompose at depth $depth printed no surrogate fit"
done
diff -r "$DIR/depth0/factors" "$DIR/depth2/factors" > /dev/null ||
  fail "prefetch depth 0 and 2 left different factors"

# dist runs Phase 2 on two forked worker processes, under the same
# factor-store lifecycle as decompose: on a mode-centric and a fiber-order
# plan, its factor directory (MANIFEST included) must be byte-identical to
# decompose's on an identically generated store. On fiber order (singleton
# waves) the fleet also prefetches two owned steps ahead while decompose
# stays at depth 0.
for schedule in mc fo; do
  depth=0
  [ "$schedule" = fo ] && depth=2
  for run in decompose dist; do
    expect_exit 0 generate "$DIR/$schedule-$run" --dims=12x12x12 --parts=2 \
      --rank=3 --seed=7
  done
  expect_exit 0 decompose "$DIR/$schedule-decompose" --rank=3 \
    --schedule=$schedule --buffer-fraction=0.5 --max-virtual-iterations=4 \
    --fit-tolerance=-1
  expect_exit 0 dist "$DIR/$schedule-dist" --rank=3 --schedule=$schedule \
    --buffer-fraction=0.5 --max-virtual-iterations=4 --fit-tolerance=-1 \
    --workers=2 --prefetch-depth=$depth
  grep -q "dist: decomposed .* across 2 workers" "$DIR/out.txt" ||
    fail "dist --schedule=$schedule printed no fleet summary"
  diff -r "$DIR/$schedule-decompose/factors" "$DIR/$schedule-dist/factors" \
    > /dev/null ||
    fail "dist and decompose left different factors on $schedule"
done

# A resume through the tool: a completed decompose leaves the plain
# manifest, so --resume-phase2 extends the run by a fresh schedule pass
# over the persisted sub-factors. dist on one store and decompose on an
# identically generated twin must leave byte-identical factor directories
# (MANIFEST included), and each ends on the plain manifest again.
for run in decompose dist; do
  expect_exit 0 generate "$DIR/resume-$run" --dims=12x12x12 --parts=2 \
    --rank=3 --seed=7
  expect_exit 0 decompose "$DIR/resume-$run" --rank=3 --schedule=mc \
    --buffer-fraction=0.5 --max-virtual-iterations=2 --fit-tolerance=-1
done
expect_exit 0 dist "$DIR/resume-dist" --rank=3 --schedule=mc \
  --buffer-fraction=0.5 --max-virtual-iterations=2 --fit-tolerance=-1 \
  --workers=2 --resume-phase2
expect_exit 0 decompose "$DIR/resume-decompose" --rank=3 --schedule=mc \
  --buffer-fraction=0.5 --max-virtual-iterations=2 --fit-tolerance=-1 \
  --resume-phase2
diff -r "$DIR/resume-decompose/factors" "$DIR/resume-dist/factors" \
  > /dev/null ||
  fail "dist and decompose resumed to different factors"
for run in decompose dist; do
  if grep -q "^ckpt_" "$DIR/resume-$run/factors/MANIFEST"; then
    fail "$run --resume-phase2 left a checkpoint in its MANIFEST"
  fi
done

# A one-line jobs spec in the same flags-only syntax.
echo "$DIR/depth0 --rank=3 --max-virtual-iterations=4" > "$DIR/jobs.spec"
expect_exit 0 jobs "$DIR/jobs.spec" --workers=1 --quiet
grep -q "job 1: succeeded fit" "$DIR/out.txt" ||
  fail "the jobs spec line did not succeed"

# Malformed command lines are exit 2.
expect_exit 2 decompose "$DIR/depth0" "$DIR/depth2"
expect_exit 2 decompose "$DIR/depth0" --no-such-option=1
expect_exit 2 decompose "$DIR/depth0" --prefetch-depth=-1
# Retired plan-window, slab-sharding and FMA options are unknown flags.
expect_exit 2 decompose "$DIR/depth0" --shard-slab-blocks=2
expect_exit 2 decompose "$DIR/depth0" --plan-reorder-window=4
expect_exit 2 decompose "$DIR/depth0" --kernel-fma=1
expect_exit 2 decompose "$DIR/depth0" 4 mc
expect_exit 2 simulate --parts=4 --buffer-fraction=0.5 extra
# The fleet runs no solver params; one is a typo, not a silent no-op.
expect_exit 2 dist "$DIR/depth0" --param=x=1
# Worker processes cannot open another process's memory store.
expect_exit 2 dist mem://
# An out-of-range port is refused before any connection attempt.
expect_exit 2 client list --port=4294974510
if grep -q "connect" "$DIR/out.txt"; then
  fail "client tried to connect with an out-of-range port"
fi

# tpcpd range-checks its integer flags and exits non-zero before it
# listens; an unchecked --port would wrap onto another port. `timeout`
# turns a daemon that listens anyway into a failed case, not a hung test.
for flags in --port=4294974510 --port=-1 --total-threads=0 \
    --total-threads=4294967297 --max-jobs=0 --total-buffer-mb=-1 \
    --total-buffer-mb=17592186044416; do
  timeout 10 "$TPCPD" "--tenant=a,$DIR/tenant" $flags > "$DIR/out.txt" 2>&1
  got=$?
  if [ "$got" -eq 0 ] || [ "$got" -eq 124 ] ||
      grep -q "listening" "$DIR/out.txt"; then
    fail "tpcpd $flags exited $got, want a refusal before listening"
    cat "$DIR/out.txt"
  fi
done

# A tpcpd restart on a posix --state keeps its finished jobs and its ids.
# Every daemon and client call runs under `timeout`, so a hang is a failed
# case, not a hung suite.
DAEMON=
PORT=
# start_daemon LOG: starts tpcpd on an ephemeral port and sets DAEMON to
# its pid and PORT to the port from its "listening on" line.
start_daemon() {
  timeout 120 "$TPCPD" --port=0 --state="$DIR/tpcpd/state" \
    "--tenant=a,$DIR/tpcpd/a" > "$1" 2>&1 &
  DAEMON=$!
  PORT=
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$1")
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  fail "tpcpd printed no listening line"
  cat "$1"
  return 1
}
stop_daemon() {
  kill -TERM "$DAEMON" 2> /dev/null
  wait "$DAEMON" || fail "tpcpd did not stop cleanly on SIGTERM"
}
client() {
  timeout 60 "$TOOL" client "$@" --port="$PORT" > "$DIR/out.txt" 2>&1
}
if start_daemon "$DIR/tpcpd1.log"; then
  client submit --tenant=a --generate=8x8x8 --opt=rank=2 ||
    fail "tpcpd submit failed: $(cat "$DIR/out.txt")"
  client await --job=1 --timeout=50
  grep -q '"state":"succeeded"' "$DIR/out.txt" ||
    fail "tpcpd job 1 did not succeed: $(cat "$DIR/out.txt")"
  stop_daemon
  record="$DIR/tpcpd/state/jobs/1"
  if [ "$(head -c 1 "$record")" != "{" ] ||
      [ "$(tail -c 1 "$record")" != "}" ] ||
      [ "$(wc -l < "$record")" -ne 0 ]; then
    fail "state/jobs/1 is not one JSON object: $(cat "$record")"
  fi
fi
if start_daemon "$DIR/tpcpd2.log"; then
  client list
  grep -q '"id":1,.*"state":"succeeded"' "$DIR/out.txt" ||
    fail "restarted tpcpd lost job 1: $(cat "$DIR/out.txt")"
  client submit --tenant=a --generate=8x8x8 --opt=rank=2
  grep -q '"job":2' "$DIR/out.txt" ||
    fail "restarted tpcpd reused an id: $(cat "$DIR/out.txt")"
  stop_daemon
fi

exit $FAILED
