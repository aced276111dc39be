#!/usr/bin/env bash
# Builds the benchmark driver and runs it from the repository root.
# Everything the build and the run write (Go build cache, binary, model
# artefacts, the observation log) stays under .bench_build/ in the
# checkout, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user's config
# directory; that, too, stays in the checkout.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The commit stamp is best effort: a checkout that is not itself a git
# repository reports "unknown" rather than some enclosing repository.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

go build -C "$here" -buildvcs=false -o "$out/colobench" .
cd "$root"
BENCH_COMMIT="$commit" exec "$out/colobench" -tmp "$out/tmp" "$@"
