#!/bin/sh
# Counting host-compiler wrapper, installed as $TRIDENT_CC by the
# benchmark. Forwards the command line to the first of $CC, cc, gcc and
# clang found on PATH (the order the native engine tries them in) and,
# when PERFBENCH_CC_LOG is set, appends one line per run to that file:
# the run's wall time in nanoseconds.
for c in "$CC" cc gcc clang; do
  [ -n "$c" ] && command -v "$c" >/dev/null 2>&1 && break
  c=
done
[ -n "$c" ] || exit 127
[ -n "$PERFBENCH_CC_LOG" ] || exec "$c" "$@"
start=$(date +%s%N)
"$c" "$@"
status=$?
end=$(date +%s%N)
echo "$((end - start))" >>"$PERFBENCH_CC_LOG"
exit "$status"
