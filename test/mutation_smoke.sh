#!/bin/sh
# Mutation smoke: every patch under test/mutations breaks a library in a
# way that still builds, and names the test suite that must fail on it
# in a "Caught by test_X" sentence above the diff.  For each patch the
# working tree (without _build and .git) is copied to WORKDIR, patched
# and built, and that suite's binary is run there; the tests that
# caught the mutant are printed.  Exits 1 if any mutant passes, and
# stops at once if a patch names no suite, does not apply, or a mutant
# does not build.  Run from the root of a checkout:
#
#   sh test/mutation_smoke.sh WORKDIR
#
# WORKDIR must lie outside the checkout; it is emptied before each
# mutant, and WORKDIR.log holds the last mutant's test output.
set -eu
work=${1:?usage: sh test/mutation_smoke.sh WORKDIR}
status=0
for p in test/mutations/*.patch; do
  suite=$(sed '/^--- /q' "$p" | tr '\n' ' ' | sed -n 's/.*Caught by  *\(test_[a-z_]*\).*/\1/p')
  if [ -z "$suite" ]; then
    echo "$p: no \"Caught by test_X\" line" >&2
    exit 1
  fi
  rm -rf "$work"
  mkdir -p "$work"
  tar --exclude=./_build --exclude=./.git -cf - . | tar -xf - -C "$work"
  patch -s -d "$work" -p1 < "$p"
  (cd "$work" && dune build "./test/$suite.exe")
  if (cd "$work" && "./_build/default/test/$suite.exe") > "$work.log" 2>&1; then
    echo "$p: $suite passed on the mutant" >&2
    status=1
  else
    echo "$p: caught by $suite"
    grep 'FAIL' "$work.log"
  fi
done
exit $status
