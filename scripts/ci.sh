#!/usr/bin/env bash
# Tier-1 verification in one command: formatting, lints, build, tests, docs,
# and a service-daemon smoke stage.
#
#   scripts/ci.sh           # fmt --check + clippy -D warnings + tests
#                           #   + doctests + cargo doc -D warnings
#                           #   + fast examples (each must exit 0)
#                           #   + benchmark smoke (perfbench's own tests)
#                           #   + daemon smoke (serve/submit/cache/shutdown,
#                           #     two concurrent clients ≡ tests/golden/)
#                           #   + bounds smoke (oversized thread counts exit 2)
#                           #   + determinism smoke (thm1, omission, thm3,
#                           #     fig4, prop2 ≡ tests/golden/ across threads)
#                           #   + omission smoke (cross-model cache isolation)
#                           #   + fleet smoke (workers, SIGKILL, local re-run)
#                           #   + query-parity smoke (one-shot ≡ submit)
#                           #   + observability smoke (stats/--prom/--log-json)
#   scripts/ci.sh --bench   # additionally run the benchmark declared in
#                           #   BENCHMARK.json on all four workloads
#
# The --bench arm runs `perfbench` (see perfbench/README.md) once per
# workload at seed 1 and prints each run's metric table and JSON line.
# Run it on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
# `--locked` on the root-workspace builds: a root Cargo.lock that no longer
# matches the manifests fails CI instead of being rewritten silently.
cargo clippy --locked --workspace --all-targets -- -D warnings

# The cargo test steps keep their temp files in a fresh directory on
# /dev/shm when that is a writable tmpfs: the durable-store suites call
# `sync_all` thousands of times, which waits on a disk and not on a tmpfs
# (`store_faults.rs` spent ~160 s of its run in fsync).  Elsewhere TMPDIR is
# left as it is.
TEST_TMPDIR=""
if [[ -d /dev/shm && -w /dev/shm && "$(stat -f -c %T /dev/shm 2>/dev/null)" == tmpfs ]]; then
    TEST_TMPDIR="$(mktemp -d /dev/shm/ci-tests.XXXXXX)"
    trap 'rm -rf "$TEST_TMPDIR"' EXIT
fi
# with_test_tmpdir CMD…: runs CMD with TMPDIR set to TEST_TMPDIR, if any.
with_test_tmpdir() {
    if [[ -n "$TEST_TMPDIR" ]]; then
        TMPDIR="$TEST_TMPDIR" "$@"
    else
        "$@"
    fi
}
with_test_tmpdir cargo test --locked --workspace -q
# Doc tests again in isolation (fast; makes a doctest-only breakage obvious)
# and warning-free API docs.
with_test_tmpdir cargo test --locked --workspace --doc -q
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# --- Examples ---------------------------------------------------------------
# The fast examples run end to end in release (each takes milliseconds), so
# a panic in one fails CI; topology_tour drives the protocol-complex star
# checks.  unbeatability_audit (about 4 s) is left out.
for example in quickstart topology_tour uniform_gap wire_efficiency; do
    cargo run --locked --release -q --example "$example" >/dev/null
done

# --- Benchmark smoke --------------------------------------------------------
# perfbench is a workspace of its own that builds against the library
# crates; its smoke tests run every workload through the correctness gate.
# A library change that breaks the benchmark's build or gate fails here.
# One test at a time: the traced run's gate compares traced and untraced
# walls, which concurrent workloads on a 2-core machine skew past its band.
with_test_tmpdir cargo test --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --test-threads 1
if [[ -n "$TEST_TMPDIR" ]]; then
    rm -rf "$TEST_TMPDIR"
    trap - EXIT
fi

# --- Daemon smoke -----------------------------------------------------------
# Boot `sweep serve` on a temp socket, submit the same small thm1 job twice,
# and assert: the folds diff clean, the second run is served 100% from the
# shard-accumulator cache with zero shards executed, and shutdown is graceful
# (the server process exits by itself — no orphaned workers — and removes its
# socket file).  Binaries are run directly (not via `cargo run`) so the
# server and client never contend for the cargo target-dir lock.
cargo build --locked -q -p bench_harness --bin sweep
SMOKE_DIR="$(mktemp -d)"
SMOKE_SOCK="$SMOKE_DIR/serve.sock"
# A failing assertion below must not orphan the background daemon (the
# very thing this stage asserts against) or leak the temp dir.
SERVE_PID=""
WORKER1_PID=""
WORKER2_PID=""
cleanup_smoke() {
    [[ -n "$WORKER1_PID" ]] && kill -9 "$WORKER1_PID" 2>/dev/null || true
    [[ -n "$WORKER2_PID" ]] && kill -9 "$WORKER2_PID" 2>/dev/null || true
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup_smoke EXIT
# start_daemon SOCK LOG [serve flags…]: boots `sweep serve` on SOCK with its
# stderr in LOG, sets SERVE_PID and waits for the socket; if the socket never
# appears it prints the log and fails the run.
start_daemon() {
    local sock="$1" log="$2"
    shift 2
    target/debug/sweep serve --socket "$sock" "$@" 2>"$log" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -S "$sock" ]] && return 0
        sleep 0.1
    done
    echo "ci.sh: daemon on $sock did not come up" >&2
    cat "$log" >&2
    exit 1
}
# wait_registered LOG…: waits until every worker log shows its registration;
# otherwise prints the logs and fails the run.
wait_registered() {
    local log pending
    for _ in $(seq 1 100); do
        pending=0
        for log in "$@"; do
            grep -q "registered as worker" "$log" 2>/dev/null || pending=1
        done
        [[ "$pending" == 0 ]] && return 0
        sleep 0.1
    done
    echo "ci.sh: fleet workers did not register" >&2
    cat "$@" >&2
    exit 1
}
start_daemon "$SMOKE_SOCK" "$SMOKE_DIR/serve.log" --workers 1
target/debug/sweep submit --socket "$SMOKE_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/cold.txt" 2>"$SMOKE_DIR/cold.log"
target/debug/sweep submit --socket "$SMOKE_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/warm.txt" 2>"$SMOKE_DIR/warm.log"
diff "$SMOKE_DIR/cold.txt" "$SMOKE_DIR/warm.txt"
grep -q "4 shards total, 0 cached" "$SMOKE_DIR/cold.log"
grep -q "(100.0% cached), 0 executed" "$SMOKE_DIR/warm.log"
# Two clients at once: each connection runs its job on its own thread, so
# the thm1 and omission jobs run side by side over the one pool worker, and
# each table must still equal its golden file.
target/debug/sweep submit --socket "$SMOKE_SOCK" thm1 >"$SMOKE_DIR/thm1-concurrent.txt" \
    2>/dev/null &
THM1_SUBMIT_PID=$!
target/debug/sweep submit --socket "$SMOKE_SOCK" omission \
    >"$SMOKE_DIR/omission-concurrent.txt" 2>/dev/null &
OMISSION_SUBMIT_PID=$!
wait "$THM1_SUBMIT_PID"
wait "$OMISSION_SUBMIT_PID"
diff tests/golden/thm1.txt "$SMOKE_DIR/thm1-concurrent.txt"
diff tests/golden/omission.txt "$SMOKE_DIR/omission-concurrent.txt"
target/debug/sweep shutdown --socket "$SMOKE_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
if [[ -e "$SMOKE_SOCK" ]]; then
    echo "ci.sh: daemon left its socket behind" >&2
    exit 1
fi
echo "ci.sh: daemon smoke passed (warm run 100% cached, concurrent clients ≡ golden," \
    "graceful shutdown)"

# --- Bounds smoke -----------------------------------------------------------
# A thread count above sweep::MAX_THREADS (1,024), for the one-shot engine or
# the daemon's pool, is a usage error: exit 2 with the usage text, before any
# thread starts or the daemon binds its socket.
BOUNDS_SOCK="$SMOKE_DIR/bounds.sock"
for args in "thm1 --threads 1025" "serve --socket $BOUNDS_SOCK --workers 1025"; do
    status=0
    # shellcheck disable=SC2086 # the flags are word-split on purpose
    target/debug/sweep $args >/dev/null 2>"$SMOKE_DIR/bounds.log" || status=$?
    if [[ "$status" != 2 ]] || ! grep -q "^usage: sweep" "$SMOKE_DIR/bounds.log" ||
        [[ -e "$BOUNDS_SOCK" ]]; then
        echo "ci.sh: 'sweep $args' was not refused as a usage error (exit $status)" >&2
        cat "$SMOKE_DIR/bounds.log" >&2
        exit 1
    fi
done
echo "ci.sh: bounds smoke passed (oversized thread counts are usage errors)"

# --- Determinism smoke ------------------------------------------------------
# Every built-in table must print the bytes checked in under tests/golden/,
# sequentially and at two threads over 13 shards, a count that cuts no
# built-in scope evenly.  A change that must not move any fold (a speedup, a
# refactor) is held to those bytes here; a change that moves a table on
# purpose regenerates its file with `sweep <query> --threads 1` and says why.
# The sharding decides which patterns follow each other through a runner's
# per-node analysis slots, so a stale slot would show here.  fig4 (a fixed
# source, blocks of one) is also run at four threads over eight shards,
# thm3 (a random source) and prop2 (a protocol-complex build beside a
# sharded per-run scan) at two threads over seven, and thm1 and omission,
# whose cases drain one queue of (case, shard) pairs, at three threads: more
# workers than cores, the calling thread plus two helpers.
golden_diff() {
    local query="$1"
    shift
    target/debug/sweep "$query" "$@" >"$SMOKE_DIR/$query-run.txt" 2>/dev/null
    if ! diff "tests/golden/$query.txt" "$SMOKE_DIR/$query-run.txt"; then
        echo "ci.sh: 'sweep $query $*' differs from tests/golden/$query.txt" >&2
        exit 1
    fi
}
for query in thm1 omission thm3 fig4 prop2; do
    golden_diff "$query" --threads 1
    golden_diff "$query" --threads 2 --shards 13
done
golden_diff fig4 --threads 4 --shards 8
golden_diff thm3 --threads 2 --shards 7
golden_diff prop2 --threads 2 --shards 7
golden_diff thm1 --threads 3 --shards 5
golden_diff omission --threads 3
echo "ci.sh: determinism smoke passed (every table equals its golden file across parallelism)"

# --- Omission smoke ---------------------------------------------------------
# The omission pattern space end to end.  One-shot: `sweep omission` prints
# the same table at different shard counts.  Daemon: a crash job first warms
# the shard cache for a scope, then the omission job on the *same* scope must
# run fully cold — the model is part of the cache fingerprint, so crash
# accumulators never replay into an omission fold — and only its own warm
# repeat is served 100% from cache with a clean diff.
target/debug/sweep omission --shards 3 >"$SMOKE_DIR/omission-a.txt" 2>/dev/null
target/debug/sweep omission --shards 7 >"$SMOKE_DIR/omission-b.txt" 2>/dev/null
diff "$SMOKE_DIR/omission-a.txt" "$SMOKE_DIR/omission-b.txt"
OMISSION_SOCK="$SMOKE_DIR/omission.sock"
start_daemon "$OMISSION_SOCK" "$SMOKE_DIR/omission-serve.log" --workers 1
target/debug/sweep submit --socket "$OMISSION_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >/dev/null 2>&1
target/debug/sweep submit --socket "$OMISSION_SOCK" omission --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/omission-cold.txt" 2>"$SMOKE_DIR/omission-cold.log"
target/debug/sweep submit --socket "$OMISSION_SOCK" omission --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/omission-warm.txt" 2>"$SMOKE_DIR/omission-warm.log"
diff "$SMOKE_DIR/omission-cold.txt" "$SMOKE_DIR/omission-warm.txt"
grep -q "4 shards total, 0 cached" "$SMOKE_DIR/omission-cold.log"
grep -q "(100.0% cached), 0 executed" "$SMOKE_DIR/omission-warm.log"
target/debug/sweep shutdown --socket "$OMISSION_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "ci.sh: omission smoke passed (no cross-model replay, warm repeat 100% cached)"

# --- Daemon restart smoke ---------------------------------------------------
# Same shape, with a durable cache dir: submit, shut the daemon down, start a
# *new* daemon process on the same cache dir, and assert the re-submitted job
# replays 100% from the persisted shard store with zero shards executed and a
# clean stdout diff.  The temp cache dir rides in SMOKE_DIR, so the EXIT trap
# cleans it up on any failure.
RESTART_SOCK="$SMOKE_DIR/restart.sock"
CACHE_DIR="$SMOKE_DIR/cache"
start_daemon "$RESTART_SOCK" "$SMOKE_DIR/restart-a.log" --workers 1 --cache-dir "$CACHE_DIR"
target/debug/sweep submit --socket "$RESTART_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/before.txt" 2>/dev/null
target/debug/sweep shutdown --socket "$RESTART_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
start_daemon "$RESTART_SOCK" "$SMOKE_DIR/restart-b.log" --workers 1 --cache-dir "$CACHE_DIR"
target/debug/sweep submit --socket "$RESTART_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/after.txt" 2>"$SMOKE_DIR/after.log"
diff "$SMOKE_DIR/before.txt" "$SMOKE_DIR/after.txt"
grep -q "4 cached (100.0% cached), 0 executed" "$SMOKE_DIR/after.log"
target/debug/sweep shutdown --socket "$RESTART_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "ci.sh: restart smoke passed (persisted cache replayed 100% after restart)"

# --- Fleet smoke ------------------------------------------------------------
# Coordinator plus two worker processes on a temp socket.  SIGKILL one worker
# the moment it starts executing a lease mid-job, and assert: the daemon
# re-ran at least one lost shard on its local pool, the merged fold still diffs clean against the
# same job re-run with an empty fleet (pure local execution), and the
# empty-fleet run reports zero live workers.  Shard caching is off on both
# submits so the second run really re-executes every shard locally.  The
# scope is (4,2,2): 7,857 scenarios after the symmetry reduction, enough
# that the job is still running when the SIGKILL lands.  (4,2,1) has 1,552,
# which a debug build folds in about 25 ms, and in about one run of ten the
# job ended before the kill and lost nothing.
FLEET_SOCK="$SMOKE_DIR/fleet.sock"
start_daemon "$FLEET_SOCK" "$SMOKE_DIR/fleet-serve.log" --workers 1 --lease-ttl-ms 2000
target/debug/sweep worker --connect "$FLEET_SOCK" 2>"$SMOKE_DIR/worker-1.log" &
WORKER1_PID=$!
target/debug/sweep worker --connect "$FLEET_SOCK" 2>"$SMOKE_DIR/worker-2.log" &
WORKER2_PID=$!
wait_registered "$SMOKE_DIR/worker-1.log" "$SMOKE_DIR/worker-2.log"
target/debug/sweep submit --socket "$FLEET_SOCK" thm1 --scope 4,2,2 --shards 12 \
    --no-shard-cache >"$SMOKE_DIR/fleet.txt" 2>"$SMOKE_DIR/fleet.log" &
SUBMIT_PID=$!
for _ in $(seq 1 500); do
    grep -q "executing lease" "$SMOKE_DIR/worker-1.log" 2>/dev/null && break
    sleep 0.02
done
kill -9 "$WORKER1_PID" 2>/dev/null || true
wait "$SUBMIT_PID"
grep -q "re-queued shard .* on the local pool" "$SMOKE_DIR/fleet-serve.log"
# Drop the surviving worker too and re-submit: the empty fleet must degrade
# to pure local execution with a bit-identical fold.
kill -9 "$WORKER2_PID" 2>/dev/null || true
wait "$WORKER1_PID" 2>/dev/null || true
wait "$WORKER2_PID" 2>/dev/null || true
WORKER1_PID=""
WORKER2_PID=""
target/debug/sweep submit --socket "$FLEET_SOCK" thm1 --scope 4,2,2 --shards 12 \
    --no-shard-cache >"$SMOKE_DIR/local.txt" 2>"$SMOKE_DIR/local.log"
diff "$SMOKE_DIR/fleet.txt" "$SMOKE_DIR/local.txt"
grep -q "fleet: 0 workers" "$SMOKE_DIR/local.log"
target/debug/sweep shutdown --socket "$FLEET_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "ci.sh: fleet smoke passed (SIGKILL local re-run + empty-fleet degradation diff clean)"

# --- Query-parity smoke -----------------------------------------------------
# Every built-in query through all three paths: the one-shot CLI, a cold
# daemon submit and its warm repeat must print the same stdout.  (thm1 was
# left out while its debug one-shot wall was ~9 s on a 2-vCPU box; folded
# up to relabeling it takes ~0.7 s there.)  One `sweep worker`
# is attached, so the cold submit of each sharded query runs shards on the
# fleet, and each warm repeat is served 100% from the shard cache.
PARITY_SOCK="$SMOKE_DIR/parity.sock"
start_daemon "$PARITY_SOCK" "$SMOKE_DIR/parity-serve.log" --workers 1
target/debug/sweep worker --connect "$PARITY_SOCK" 2>"$SMOKE_DIR/parity-worker.log" &
WORKER1_PID=$!
wait_registered "$SMOKE_DIR/parity-worker.log"
for query in thm1 omission thm3 fig4 prop2; do
    target/debug/sweep "$query" >"$SMOKE_DIR/$query-oneshot.txt" 2>/dev/null
    target/debug/sweep submit --socket "$PARITY_SOCK" "$query" \
        >"$SMOKE_DIR/$query-cold.txt" 2>"$SMOKE_DIR/$query-cold.log"
    target/debug/sweep submit --socket "$PARITY_SOCK" "$query" \
        >"$SMOKE_DIR/$query-warm.txt" 2>"$SMOKE_DIR/$query-warm.log"
    diff "$SMOKE_DIR/$query-oneshot.txt" "$SMOKE_DIR/$query-cold.txt"
    diff "$SMOKE_DIR/$query-oneshot.txt" "$SMOKE_DIR/$query-warm.txt"
    if [[ "$query" != prop2 ]] &&
        ! grep -Eq "executed \([1-9][0-9]* remote\)" "$SMOKE_DIR/$query-cold.log"; then
        echo "ci.sh: cold $query job ran no shard on the fleet" >&2
        cat "$SMOKE_DIR/$query-cold.log" >&2
        exit 1
    fi
    grep -q "(100.0% cached)" "$SMOKE_DIR/$query-warm.log"
done
target/debug/sweep shutdown --socket "$PARITY_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
wait "$WORKER1_PID" 2>/dev/null || true
WORKER1_PID=""
echo "ci.sh: query-parity smoke passed (one-shot ≡ cold ≡ warm submit for every query)"

# --- Observability smoke ----------------------------------------------------
# Boot a fresh daemon, submit the same job twice (the second with --log-json),
# and assert via `sweep stats` that the snapshot matches the behavior the
# submits observed: two jobs total, at least one warm cache replay.  The
# --prom form must expose unique series with finite values, the --json form
# one JSON object, and the --log-json submit only JSON lines on stderr.
STATS_SOCK="$SMOKE_DIR/stats.sock"
start_daemon "$STATS_SOCK" "$SMOKE_DIR/stats-serve.log" --workers 1
target/debug/sweep submit --socket "$STATS_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >/dev/null 2>&1
target/debug/sweep --log-json submit --socket "$STATS_SOCK" thm1 --scope 3,1,1 \
    --shards 4 >/dev/null 2>"$SMOKE_DIR/json.log"
if grep -vEq '^\{.*\}$' "$SMOKE_DIR/json.log"; then
    echo "ci.sh: --log-json emitted a non-JSON stderr line" >&2
    cat "$SMOKE_DIR/json.log" >&2
    exit 1
fi
grep -q '"level":"info"' "$SMOKE_DIR/json.log"
target/debug/sweep stats --socket "$STATS_SOCK" >"$SMOKE_DIR/stats.txt"
grep -Eq "jobs\.total +2\$" "$SMOKE_DIR/stats.txt"
REPLAYS=$(awk '$1 == "cache.replays" { print $2 }' "$SMOKE_DIR/stats.txt")
if [[ -z "$REPLAYS" || "$REPLAYS" -lt 1 ]]; then
    echo "ci.sh: warm submit recorded no cache replays" >&2
    cat "$SMOKE_DIR/stats.txt" >&2
    exit 1
fi
target/debug/sweep stats --socket "$STATS_SOCK" --json >"$SMOKE_DIR/stats.json"
grep -Eq '^\{.*\}$' "$SMOKE_DIR/stats.json"
target/debug/sweep stats --socket "$STATS_SOCK" --prom >"$SMOKE_DIR/stats.prom"
awk '
    /^#/ { next }
    NF != 2 { print "ci.sh: malformed prometheus line: " $0; exit 1 }
    seen[$1]++ { print "ci.sh: duplicate prometheus series: " $1; exit 1 }
    $2 !~ /^-?[0-9]+(\.[0-9]+)?$/ {
        print "ci.sh: non-finite prometheus value: " $0; exit 1
    }
' "$SMOKE_DIR/stats.prom" >"$SMOKE_DIR/prom-errors.txt"
if [[ -s "$SMOKE_DIR/prom-errors.txt" ]]; then
    cat "$SMOKE_DIR/prom-errors.txt" >&2
    exit 1
fi
target/debug/sweep shutdown --socket "$STATS_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
trap - EXIT
rm -rf "$SMOKE_DIR"
echo "ci.sh: observability smoke passed (stats table/json/prom valid, JSON log clean)"

if [[ "${1:-}" == "--bench" ]]; then
    for workload in exhaustive fresh-patterns daemon-mixed fleet-cold; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 25 --trace 0
    done
fi
