#!/usr/bin/env python3
"""The perf gate: simbench's work counters and throughput floors, a
wall-time ceiling for every experiment at full scale, and the sharded
engines at widths 1 and 2.

Run from the root of a checkout:

    python3 bench/gate.py

It builds the simulator, then checks against bench/expected.json:

1. every simbench workload at the committed seed, run once with
   --trace 1 and once with --trace 0:
   - both runs are correct, with no failed cell;
   - the eight work counters equal the committed values exactly;
   - gc.minor_words_per_op is within MINOR_WORDS_RATIO of the committed
     value, either way;
   - sim_ops_per_s is at least the committed median over SLOWDOWN;
   - peak_heap_mb is at most HEAP_RATIO times the committed value;
2. `dsas_sim run <id>` for every experiment, at full scale, finishes
   with exit 0 in at most max(SLOWDOWN x committed median, MIN_CEILING_S)
   seconds of wall time;
3. bench/widths.exe's fastest runs of the sharded alloc and paging
   engines: width 2 within WIDTH_MARGIN of width 1, and width 1 within
   SLOWDOWN x its committed median.

Each check prints one line; the gate exits 1 if any fails.  The
committed values are medians measured on one machine, named in
DESIGN.md section 7; a change that moves a counter on purpose commits
the new value and says why.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "bench", "expected.json")
DSAS_SIM = os.path.join(ROOT, "_build", "default", "bin", "dsas_sim.exe")
WIDTHS = os.path.join(ROOT, "_build", "default", "bench", "widths.exe")

# Throughput and wall time may be this many times worse than the
# committed medians: loose enough for a CI runner unlike the machine
# that measured them, tight enough to catch a blowup such as an
# accidental quadratic loop.
SLOWDOWN = 4.0

# Below this the process start-up and the host's jitter outweigh the
# experiment's own work, so a ceiling of SLOWDOWN x median would fail
# at random and would not measure the experiment.
MIN_CEILING_S = 0.1

# A run over its ceiling is tried again, this many times in all: load
# from elsewhere on the host only slows a run down, while a real
# slowdown fails every try.
TRIES = 3

# Minor-heap words allocated per simulated operation depend on the
# compiler and its standard library (the medians were taken under
# OCaml 5.1.1, CI runs 5.2), so they are held to a ratio, not exactly.
# 1.25 leaves room for code-generation differences and still fails
# when an engine allocates on a path it should not: building one event
# per fault on the null sink moves `replace` by more than that.
MINOR_WORDS_RATIO = 1.25

# The peak heap (peak_heap_mb, the major heap's high-water mark after
# the checking pass at width 1) may be at most this many times the
# committed value.  It repeats exactly at width 1, but the values were
# taken under OCaml 5.1.1 and CI runs 5.2, so it is a ratio, and a
# ceiling only: a smaller heap is no failure.  1.25 still fails when
# the Chrome export holds a buffer doubled past its output again:
# sharded_trace then reads 15.96 MB against a ceiling of 13.23 MB.
HEAP_RATIO = 1.25

# Width 2 may be this much slower than width 1.  Both widths run the
# same shards, so a second domain that slows an engine means its shards
# contend for state they should own; the margin absorbs the noise left
# on runs of a few milliseconds.  The check needs two cores.
WIDTH_MARGIN = 1.35

COUNTERS = [
    "fault_sim.candidate_words",
    "freelist.nodes_examined",
    "device.served",
    "device.mean_queue_depth",
    "obs.events",
    "obs.bytes",
    "parallel.checkpoints",
    "telemetry.snapshots",
]

# Seconds of measurement per simbench run: the counters repeat exactly
# at any length, and the floor is a quarter of a median taken at the
# same length.
TRACE_SECONDS = 1
THROUGHPUT_SECONDS = 2

# A simbench run that takes longer than this is stuck or pathologically
# slow; it fails the gate instead of holding it up.
SIMBENCH_TIMEOUT_S = 120


failures = []


def report(ok, what, detail):
    print("%s %-48s %s" % ("ok  " if ok else "FAIL", what, detail), flush=True)
    if not ok:
        failures.append(what)


def value(metrics, name):
    return metrics.get(name, {}).get("value")


def simbench(workload, seed, seconds, trace):
    """The JSON result of one simbench run, or None."""
    cmd = [sys.executable, os.path.join(ROOT, "simbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # run.py starts the benchmark as its own child: kill the whole
    # session, or a stuck benchmark outlives the gate.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=SIMBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_workload(name, seed, want):
    runs = {}
    for trace, seconds in ((1, TRACE_SECONDS), (0, THROUGHPUT_SECONDS)):
        r = simbench(name, seed, seconds, trace)
        ok = r is not None and r.get("correct") is True and r.get("failed") == 0
        report(ok, "%s --trace %d correct" % (name, trace),
               "no result" if r is None else
               "correct %s, %s of %s cells failed" % (r.get("correct"), r.get("failed"),
                                                      r.get("attempted")))
        runs[trace] = r["metrics"] if ok else None
    traced, timed = runs[1], runs[0]
    if traced is not None:
        for c in COUNTERS:
            got = value(traced, c)
            report(got == want["counters"][c], "%s %s" % (name, c),
                   "%r, committed %r" % (got, want["counters"][c]))
        got = value(traced, "gc.minor_words_per_op")
        base = want["gc.minor_words_per_op"]
        report(got is not None and base / MINOR_WORDS_RATIO <= got <= base * MINOR_WORDS_RATIO,
               "%s gc.minor_words_per_op" % name,
               "%r, committed %r, limit %gx either way" % (got, base, MINOR_WORDS_RATIO))
        print("     %-48s %r (reported, not gated)"
              % (name + " gc.major_collections", value(traced, "gc.major_collections")))
    if timed is not None:
        got = value(timed, "sim_ops_per_s") or 0
        floor = want["sim_ops_per_s"] / SLOWDOWN
        report(got >= floor, "%s sim_ops_per_s" % name,
               "%.0f, floor %.0f (median %.0f / %g)"
               % (got, floor, want["sim_ops_per_s"], SLOWDOWN))
        got = value(timed, "peak_heap_mb")
        ceiling = want["peak_heap_mb"] * HEAP_RATIO
        report(got is not None and got <= ceiling, "%s peak_heap_mb" % name,
               "%r MB, ceiling %.3f MB (committed %r x %g)"
               % (got, ceiling, want["peak_heap_mb"], HEAP_RATIO))


def wall_time(exp, ceiling):
    """Wall seconds of one full-scale run, or None past the ceiling or on
    a non-zero exit."""
    # A blocking wait with a timer to kill the run: subprocess's own
    # timeout polls, which rounds short runs up by tens of milliseconds.
    start = time.monotonic()
    proc = subprocess.Popen([DSAS_SIM, "run", exp], cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(ceiling, proc.kill)
    timer.start()
    rc = proc.wait()
    took = time.monotonic() - start
    timer.cancel()
    return took if rc == 0 and took <= ceiling else None


def check_experiment(exp, median):
    ceiling = max(SLOWDOWN * median, MIN_CEILING_S)
    for attempt in range(1, TRIES + 1):
        took = wall_time(exp, ceiling)
        if took is not None:
            break
    report(took is not None, "run %s" % exp,
           "over the ceiling, or failed, %d times" % TRIES if took is None else
           "%.3f s, ceiling %.3f s (median %.3f s), try %d"
           % (took, ceiling, median, attempt))


def check_widths(medians):
    got = json.loads(subprocess.run([WIDTHS], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                    check=True).stdout)
    for engine, median in medians.items():
        one, two = got[engine]
        report(two <= WIDTH_MARGIN * one, "widths %s, width 2 against width 1" % engine,
               "%.3f ms against %.3f ms, ratio %.2f (limit %.2f)"
               % (two * 1e3, one * 1e3, two / one, WIDTH_MARGIN))
        report(one <= SLOWDOWN * median, "widths %s, width 1" % engine,
               "%.3f ms, ceiling %.3f ms (median %.3f ms)"
               % (one * 1e3, SLOWDOWN * median * 1e3, median * 1e3))


def main():
    with open(EXPECTED) as f:
        expected = json.load(f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ROOT, "./simbench/main.exe",
                            "./bin/dsas_sim.exe", "./bench/widths.exe"], cwd=ROOT, env=env)
    if build.returncode != 0:
        print("gate: build failed", file=sys.stderr)
        return 2
    listed = subprocess.run([DSAS_SIM, "list"], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    ids = [line.split()[0] for line in listed if line.strip()]
    # An experiment without a committed median would go ungated.
    report(sorted(ids) == sorted(expected["experiments_s"]), "experiment list",
           "%d listed, %d committed" % (len(ids), len(expected["experiments_s"])))
    for name, want in expected["workloads"].items():
        check_workload(name, expected["seed"], want)
    for exp, median in expected["experiments_s"].items():
        check_experiment(exp, median)
    check_widths(expected["widths_s"])
    if failures:
        print("perf gate: %d check(s) failed: %s" % (len(failures), ", ".join(failures)))
        return 1
    print("perf gate: every check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
