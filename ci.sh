#!/usr/bin/env bash
# ci.sh — the full verification gate, in dependency order: formatting,
# vet, build, tests (the root module and bench/), race detector,
# coverage floors, the hot-path allocation contract (AllocsPerRun pins
# + hotalloc lint), short fuzz passes (the fuzz table), and the
# bulletlint determinism contract (see
# DESIGN.md, "Determinism contract", "Concurrency contract", and
# "Allocation contract"). Determinism is pinned by the golden tests:
# each compares against bytes recorded by another process, and the
# cluster-arm goldens also run at -workers 4 under GOMAXPROCS(4), so the
# race pass checks serial ≡ parallel under the race detector. Every step
# must pass; the script stops at the first failure.
#
# Usage: ./ci.sh            (or: make ci)    every gate
#        ./ci.sh fuzz       (or: make fuzz)  the fuzz table alone
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n=== %s ===\n' "$*"; }

# fuzz_table runs one row per fuzz target: go test fuzzes one target per
# run, so the table is looped like the coverage floors. The rows cover
# the SM-mask set algebra, the calibration trace parser, the Chrome
# trace writer, the reader of replay traces from outside the program,
# the percentile selection against a full sort, and Algorithm 1's
# decisions against a reference that prices every level.
fuzz_table() {
    step "fuzz table (5s per target)"
    local targets='
FuzzSetAlgebra              ./internal/smmask
FuzzCalibParse              ./internal/calib
FuzzWriteChrome             ./internal/timeline
FuzzRead                    ./internal/workload
FuzzRoundTrip               ./internal/workload
FuzzPercentileInPlace       ./internal/metrics
FuzzDecideMatchesReference  ./internal/sched
'
    while read -r target pkg; do
        [[ -n "$target" ]] || continue
        echo "fuzz: $target ($pkg)"
        go test -run='^$' -fuzz="^$target\$" -fuzztime=5s "$pkg"
    done <<< "$targets"
}

case "${1-}" in
    fuzz) fuzz_table; exit 0 ;;
    '') ;;
    *) echo "usage: $0 [fuzz]" >&2; exit 2 ;;
esac

step "gofmt"
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

step "go test -shuffle=on ./..."
go test -shuffle=on ./...

step "go -C bench test ./..."
# bench/ is a module of its own, so the root test pass does not reach
# it. Its golden check pins every deterministic benchmark counter and
# simulated metric (bench/golden.json), the bit-identity bar for any
# change to the simulator's hot paths.
go -C bench test ./...

step "go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

step "coverage floors"
# One coverage run. Each row floors a package's statement coverage, a
# file's (from the merged profile), or the mean over packages with
# tests. The floors were recorded at the merges that introduced them —
# raise them when coverage rises, never lower them to make a failure go
# away.
floors='
repro/internal/timeline               90
repro/internal/pressure               90
repro/internal/qos                    90
repro/internal/calib                  90
repro/internal/resilience             90
repro/internal/estimator              92
repro/internal/metrics                91
repro/internal/gpusim/backend.go      90
repro/internal/gpusim/sampled.go      90
repro/internal/gpusim/hierarchy.go    90
repro/internal/cluster/cluster.go     91
repro/internal/cluster/resilience.go  90
repro/internal/experiments/build.go   100
mean                                  86
'
profile=$(mktemp)
go test -coverprofile="$profile" ./... | awk -v floors="$floors" -v profile="$profile" '
    { print }
    $1 == "ok" && /coverage: [0-9.]+% of statements/ {
        pct = $0
        sub(/.*coverage: /, "", pct); sub(/% of statements.*/, "", pct)
        got[$2] = pct + 0; sum += pct; npkg++
    }
    END {
        if (npkg == 0) { print "coverage: no packages parsed" > "/dev/stderr"; exit 1 }
        got["mean"] = sum / npkg
        # Profile lines read "file:start,end statements count".
        while ((getline line < profile) > 0) {
            if (split(line, a, " ") != 3) continue
            file = a[1]; sub(/:.*/, "", file)
            tot[file] += a[2]; if (a[3] > 0) cov[file] += a[2]
        }
        for (file in tot) got[file] = 100 * cov[file] / tot[file]
        n = split(floors, rows, "\n")
        for (i = 1; i <= n; i++) {
            if (split(rows[i], r, " ") != 2) continue
            if (!(r[1] in got)) {
                printf "coverage: %s missing from the run\n", r[1] > "/dev/stderr"; fail = 1; continue
            }
            printf "coverage: %-36s %5.1f%% (floor %d%%)\n", r[1], got[r[1]], r[2]
            if (got[r[1]] < r[2] + 0) {
                printf "coverage: %s below its %d%% floor\n", r[1], r[2] > "/dev/stderr"; fail = 1
            }
        }
        exit fail
    }
'
rm -f "$profile"

step "allocation contract: steady-state AllocsPerRun pins"
# The hot-path allocation contract (DESIGN.md, "Allocation contract"):
# the sim event push/pop cycle and a caller-owned event's schedule, move
# and cancel, disabled-timeline call sites, the water-filling re-rate,
# the gpusim re-rate and a kernel launch run to completion, the
# estimator's predictors, the engines' metadata snapshot and deadline
# reorder (pinned in internal/engine), partition rebuilds, pressure
# gates, in-place percentiles and inline fork/join regions must allocate
# nothing at steady state; the per-request KV sequence header and a
# cluster pump decision (its fork-site task closure, pinned in
# internal/cluster) are pinned at exactly one. Run the pins explicitly
# so an allocation regression fails CI by name even if the broader test
# pass is trimmed.
go test -count=1 -run 'ZeroAlloc|OneAlloc|SteadyState' . ./internal/cluster ./internal/engine

step "allocation contract: bulletlint -rules hotalloc smoke"
# The analyzer must hold the whole module clean on its own (the full
# bulletlint pass below also covers it; this names the rule directly).
go run ./cmd/bulletlint -rules hotalloc ./...

fuzz_table

step "bulletlint ./..."
go run ./cmd/bulletlint ./...

step "bulletlint -json smoke test"
# The tree is clean, so -json on the module must emit no *reported*
# findings — suppressed ones ("suppressed":true) are expected output, the
# audit trail of the tree's //lint:ignore directives. Then verify the
# machine-readable path works (and emits only JSON objects) on a fixture
# known to contain findings instead of trusting it blindly.
json_out=$(go run ./cmd/bulletlint -json ./... | grep -v '"suppressed":true' || true)
if [[ -n "$json_out" ]]; then
    echo "bulletlint -json: unexpected reported findings on clean tree:" >&2
    echo "$json_out" >&2
    exit 1
fi
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/bulletlint" ./cmd/bulletlint
mkdir -p "$smoke/mod/internal/demo"
printf 'module lintsmoke\n\ngo 1.22\n' > "$smoke/mod/go.mod"
printf 'package demo\n\nimport "time"\n\n// Stamp trips nodeterm on purpose.\nfunc Stamp() time.Time { return time.Now() }\n' \
    > "$smoke/mod/internal/demo/demo.go"
json_out=$( (cd "$smoke/mod" && ../bulletlint -json) || true)
if [[ -z "$json_out" ]] || grep -qv '^{' <<< "$json_out"; then
    echo "bulletlint -json: expected one JSON object per line, got:" >&2
    echo "$json_out" >&2
    exit 1
fi

step "ci: all gates passed"
