#!/usr/bin/env bash
# Builds femux-bench into bench/.build/ and runs it with the given
# arguments (see README.md). Everything the build and the run write —
# Go's build cache, the binary, the data root, trace files — stays under
# bench/.build/, which the repository's .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/femux-bench" ./femux-bench)
exec "$build/femux-bench" "$@"
