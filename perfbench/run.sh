#!/usr/bin/env bash
# Builds regserve and the perfbench command from the checkout this file
# sits in, then runs one benchmark pass with the given arguments:
#
#   bash perfbench/run.sh --workload read_mostly --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build at the checkout's root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/regserve" ]]; then
	echo "perfbench: $root is not a churnreg checkout (no go.mod or cmd/regserve)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$build/bin/regserve" ./cmd/regserve) >&2
(cd "$here" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" -regserve "$build/bin/regserve" -build-dir "$build" "$@"
