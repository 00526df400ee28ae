#!/bin/sh
# Runs a fixed list of fast, deterministic dsas_sim invocations and
# prints, for each one, its command line, stdout, stderr and exit
# status.  Usage: sh cli_transcript.sh PATH/TO/dsas_sim.exe
# Run from the directory holding fixtures/; files the invocations write
# go to a temporary directory that is removed afterwards.

B=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
F=$(pwd)/fixtures
W=$(mktemp -d)
trap 'rm -rf "$W"' EXIT
cd "$W" || exit 1
ln -s "$F" fixtures

run() {
  printf '$ dsas_sim %s\n' "$*"
  "$B" "$@" >stdout.txt 2>stderr.txt
  status=$?
  cat stdout.txt
  if [ -s stdout.txt ] && [ "$(tail -c 1 stdout.txt | wc -l)" -eq 0 ]; then
    printf '\n\\ no newline at end of stdout\n'
  fi
  if [ -s stderr.txt ]; then
    printf -- '--- stderr\n'
    cat stderr.txt
  fi
  printf '[exit %d]\n\n' "$status"
}

run list
run replay -t fixtures/replay_ok.txt --frames 2
run replay -t fixtures/replay_ok.txt --frames 2 --json

run stats fixtures/fig3_quick_trace.jsonl
run stats fixtures/fig3_quick_trace.jsonl --json
run query fixtures/fig3_quick_trace.jsonl
run query fixtures/fig3_quick_trace.jsonl --pair io_start,io_done --percentiles
run query fixtures/fig3_quick_trace.jsonl --pair io_start,io_done --json
run query fixtures/fig3_quick_trace.jsonl --group-by field:page --top 5
run query fixtures/pair_trace.jsonl --kinds io_start,io_done --group-by run --json
run query fixtures/merged_par_trace.jsonl --group-by kind --agg mean:shard
run export fixtures/pair_trace.jsonl --format chrome

run check fixtures/fig3_quick_trace.jsonl
run check fixtures/corrupt_trace.jsonl
run check fixtures/corrupt_trace.jsonl --json --limit 3
run check --list-invariants

run run fig3 --quick --telemetry t.jsonl --watch 'ev.fault>3@2'
run top t.jsonl
run top t.jsonl --json
run check t.jsonl
run check t.jsonl --json
run export t.jsonl --format telemetry-csv
run export fixtures/profile.folded --format flamegraph

run chaos --quick --runs 4
run chaos --quick --runs 4 --json
run chaos --quick --domains 1 --runs 4
run chaos --quick --domains 1 --runs 4 --json

run campaign cells
run campaign run fixtures/campaign_base/spec.json --dir camp
run campaign run fixtures/campaign_base/spec.json --dir camp --quiet
run campaign diff fixtures/campaign_base camp
run campaign status fixtures/campaign_base
run campaign status fixtures/campaign_base --json
run campaign report fixtures/campaign_base
run campaign report fixtures/campaign_base --json
run campaign report fixtures/campaign_base --metric frag.external --by policy
run campaign report fixtures/campaign_base --metric frag.external --by policy --json
run campaign report fixtures/campaign_base --metric frag.holes --by words --winner policy
run campaign report fixtures/campaign_base --metric frag.holes --by words --winner policy --max --json
run campaign report fixtures/campaign_base --metric frag.holes --fit words
run campaign diff fixtures/campaign_base fixtures/campaign_slow20
run campaign diff fixtures/campaign_base fixtures/campaign_slow20 --json
