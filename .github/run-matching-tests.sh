#!/usr/bin/env bash
# Usage: run-matching-tests.sh PATTERN [go test flags...] PACKAGES...
#
# `go test -run PATTERN` passes when PATTERN matches nothing, so renaming a
# test silently empties every CI step that selected it by name. This runs
# `go test -count=1 -run PATTERN "$@"` only after `go test -list` proves the
# pattern still selects at least one test in the given packages.
set -euo pipefail
pattern=$1
shift
listed=$(go test -list "$pattern" "$@")
if ! grep -q '^Test' <<<"$listed"; then
  echo "no test matches -run '$pattern' in: $*" >&2
  exit 1
fi
exec go test -count=1 -run "$pattern" "$@"
