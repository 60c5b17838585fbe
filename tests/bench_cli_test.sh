#!/usr/bin/env bash
# Command-line error contract of the bench binaries: --help prints the
# options and exits 0; a malformed, out-of-range or unknown option prints a
# named error and exits 2 (never an abort).
#
# Usage: tests/bench_cli_test.sh <path to bench_table5_exec_times>
set -u
bin="$1"
status=0

expect() {
  local want="$1"
  shift
  local err
  err=$("$bin" "$@" 2>&1 >/dev/null)
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: $* exited $got, expected $want" >&2
    status=1
  elif [[ "$want" == 2 && "$err" != *"error: "* ]]; then
    echo "FAIL: $* exited 2 without a named error: $err" >&2
    status=1
  else
    echo "ok: $* -> $got"
  fi
}

expect 0 --help
expect 2 --rows abc
expect 2 --rows 0
expect 2 --rows -3
expect 2 --replication 0
expect 2 --no-such-option
expect 2 --csv maybe
exit "$status"
