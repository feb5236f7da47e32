#!/usr/bin/env bash
# Builds servehd and the perfbench program from this checkout's source
# into .bench_build, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact, cache and
# trace file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomod" GOTMPDIR="${out}/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "${out}/servehd" repro/cmd/servehd && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" -servehd "${out}/servehd" -spans "${out}/spans" "$@"
