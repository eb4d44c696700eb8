#!/usr/bin/env bash
# Builds fmserve and the benchmark from source into .bench_build/ and runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fit_census_d14 --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays inside the working
# directory: the Go build cache, telemetry and temporary files go to
# .bench_build/, result files to .bench_run/. The write-ahead logs go to
# .bench_run/tmpfs/, on which a private tmpfs is mounted inside a user and
# mount namespace, so WAL fsyncs cost what the sandbox charges rather than
# what the virtual disk happens to charge that minute. Where that mount is
# not allowed the logs stay on the disk, and the run records which it got.
#
# The go command's telemetry is switched off for this private HOME: left on,
# the first go command in a fresh checkout forks a detached upload process
# that can outlive the script.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fmserve" ]; then
	echo "perfbench: run from the repository root; no go.mod or cmd/fmserve in $root" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/home/.config/go/telemetry" "$build/tmp"
echo off >"$build/home/.config/go/telemetry/mode"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -o "$build/fmserve" ./cmd/fmserve
go build -o "$build/perfbench" ./perfbench

wal="$root/.bench_run/tmpfs"
mkdir -p "$wal"
run=("$build/perfbench" -fmserve "$build/fmserve" -out "$root/.bench_run" -wal-root "$wal" "$@")
if unshare -rm --propagation private true 2>/dev/null; then
	exec unshare -rm --propagation private bash -c '
		mount -t tmpfs -o size=256m perfbench "$0" 2>/dev/null ||
			echo "perfbench: cannot mount a tmpfs; the WAL stays on disk" >&2
		exec "$@"' "$wal" "${run[@]}"
fi
echo "perfbench: no user namespaces; the WAL stays on disk" >&2
exec "${run[@]}"
