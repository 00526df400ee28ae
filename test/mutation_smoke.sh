#!/bin/sh
# Mutation smoke: every patch under test/mutations breaks the freelist
# library in a way that still builds, and test_freelist must fail on
# each one.  For each patch the working tree (without _build and .git)
# is copied to WORKDIR, patched and built, and the test binary is run
# there; the tests that caught the mutant are printed.  Exits 1 if any
# mutant passes, and stops at once if a patch does not apply or a
# mutant does not build.  Run from the root of a checkout:
#
#   sh test/mutation_smoke.sh WORKDIR
#
# WORKDIR must lie outside the checkout; it is emptied before each
# mutant, and WORKDIR.log holds the last mutant's test output.
set -eu
work=${1:?usage: sh test/mutation_smoke.sh WORKDIR}
status=0
for p in test/mutations/*.patch; do
  rm -rf "$work"
  mkdir -p "$work"
  tar --exclude=./_build --exclude=./.git -cf - . | tar -xf - -C "$work"
  patch -s -d "$work" -p1 < "$p"
  (cd "$work" && dune build ./test/test_freelist.exe)
  if (cd "$work" && ./_build/default/test/test_freelist.exe) > "$work.log" 2>&1; then
    echo "$p: test_freelist passed on the mutant" >&2
    status=1
  else
    echo "$p: caught by"
    grep 'FAIL' "$work.log"
  fi
done
exit $status
