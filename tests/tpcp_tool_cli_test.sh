#!/bin/sh
# Command-line regression test for tpcp_tool: the flags-only forms work end
# to end on a temporary posix store, and malformed command lines exit 2
# before doing any work.
#
#   sh tests/tpcp_tool_cli_test.sh path/to/tpcp_tool
set -u
TOOL=$1
DIR=$(mktemp -d "${TMPDIR:-/tmp}/tpcp_tool_cli.XXXXXX") || exit 1
trap 'rm -rf "$DIR"' EXIT
FAILED=0

fail() {
  echo "FAIL: $*"
  FAILED=1
}

# expect_exit CODE ARGS...: runs the tool with ARGS (output in out.txt)
# and requires exit status CODE.
expect_exit() {
  want=$1
  shift
  "$TOOL" "$@" > "$DIR/out.txt" 2>&1
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

# A one-line jobs spec in the same flags-only syntax.
echo "$DIR/depth0 --rank=3 --max-virtual-iterations=4" > "$DIR/jobs.spec"
expect_exit 0 jobs "$DIR/jobs.spec" --workers=1 --quiet
grep -q "job 1: succeeded fit" "$DIR/out.txt" ||
  fail "the jobs spec line did not succeed"

# Malformed command lines are exit 2.
expect_exit 2 decompose "$DIR/depth0" "$DIR/depth2"
expect_exit 2 decompose "$DIR/depth0" --no-such-option=1
expect_exit 2 decompose "$DIR/depth0" --prefetch-depth=-1
expect_exit 2 decompose "$DIR/depth0" 4 mc
expect_exit 2 simulate --parts=4 --buffer-fraction=0.5 extra
# An out-of-range port is refused before any connection attempt.
expect_exit 2 client list --port=4294974510
if grep -q "connect" "$DIR/out.txt"; then
  fail "client tried to connect with an out-of-range port"
fi

exit $FAILED
