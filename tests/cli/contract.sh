#!/usr/bin/env bash
# Runs the tool CLIs and checks their command-line contract.
#
#   contract.sh <bin-dir> <source-dir> <case-file>
#
# <case-file> is bash, sourced after these helpers are defined:
#   expect_help TOOL        `TOOL --help` exits 0 with nothing on stderr and
#                           prints tests/golden/cli/TOOL.help byte for byte
#   expect CODE LINE CMD... CMD exits with CODE and the first line it
#                           writes to stderr is LINE
# Commands run with <bin-dir> first on PATH, inside a fresh temporary
# directory holding x.cpp (a clean C++ file), empty.stream (an empty
# numaprofd client stream) and trace.jsonl (tests/golden's telemetry
# trace). Every failing case is listed; the exit status is 1 if any fail.
set -u
bin=$(realpath "$1") src=$(realpath "$2") cases=$(realpath "$3") || exit 1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
export PATH="$bin:$PATH"
cd "$work" || exit 1
printf 'int main() { return 0; }\n' > x.cpp
: > empty.stream
cp "$src/tests/golden/telemetry_trace.jsonl" trace.jsonl

ran=0
failed=0
fail() {
  echo "FAIL: $*"
  failed=$((failed + 1))
}

expect_help() {
  ran=$((ran + 1))
  "$1" --help > stdout.txt 2> stderr.txt
  local code=$?
  [ "$code" -eq 0 ] || fail "$1 --help exited $code"
  [ -s stderr.txt ] && fail "$1 --help wrote to stderr: $(head -n 1 stderr.txt)"
  cmp -s stdout.txt "$src/tests/golden/cli/$1.help" ||
    fail "$1 --help differs from tests/golden/cli/$1.help:
$(diff "$src/tests/golden/cli/$1.help" stdout.txt)"
}

expect() {
  ran=$((ran + 1))
  local want_code=$1 want_line=$2
  shift 2
  "$@" > /dev/null 2> stderr.txt
  local code=$?
  local line
  line=$(head -n 1 stderr.txt)
  if [ "$code" -ne "$want_code" ] || [ "$line" != "$want_line" ]; then
    fail "$* -> exit $code, '$line'; want exit $want_code, '$want_line'"
  fi
}

# shellcheck source=/dev/null
source "$cases"
echo "$((ran - failed)) of $ran cases passed ($(basename "$cases"))"
[ "$ran" -gt 0 ] && [ "$failed" -eq 0 ]
