#!/usr/bin/env bash
# Runs every workload in two sets, the second in reverse order, and fails
# unless the two sets agree: every simulated metric exactly equal, every
# host-time metric's medians within its bound from BENCHMARK.json.
#
#   crates/benchmark/check.sh            # ~10 min
#   SEED=20230325 crates/benchmark/check.sh   # the held-out seed
#
# Each set runs every workload three times and the medians are compared:
# a single run's `setup_s` (a few tenths of a second of thread start-up
# and page faults) can be off by half on its own.
#
# This is the CI hook for the benchmark; it lives here because `.github/`
# is outside the benchmark's directory.
set -euo pipefail

cd "$(dirname "$0")/../.."
SEED="${SEED:-1}"
TARGET="${CARGO_TARGET_DIR:-target}"
OUT="$TARGET/benchmark-check.$$"

cargo build --release --quiet -p aqua-benchmark
BIN="$TARGET/release/aqua-benchmark"
mkdir -p "$OUT"
trap 'rm -rf "$OUT"' EXIT

WORKLOADS=(svc_azure sim_azure aquatope_mix svc_overload)
REVERSED=(svc_overload aquatope_mix sim_azure svc_azure)

run_set() { # <set name> <workloads...>
    local set="$1"
    shift
    for w in "$@"; do
        for i in 1 2 3; do
            echo "set $set: $w (run $i of 3)" >&2
            "$BIN" --workload "$w" --seed "$SEED" --seconds 20 --trace 0 |
                tail -n 1 >>"$OUT/$set.$w.jsonl"
        done
    done
}

run_set a "${WORKLOADS[@]}"
run_set b "${REVERSED[@]}"

python3 - "$OUT" "${WORKLOADS[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
HOST = {"setup_s", "wall_s", "inv_per_s", "peak_rss_mb", "sim_s_per_host_s"}
failed = False
for w in workloads:
    sets = []
    for s in "ab":
        runs = [json.loads(line) for line in open(f"{out}/{s}.{w}.jsonl")]
        assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{w}: a run failed its own checks"
        sets.append(runs)
    print(f"{w}:")
    for m in spec["end_to_end"]:
        name = m["name"]
        a, b = ([r["metrics"][name]["value"] for r in runs] for runs in sets)
        if name in HOST:
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = abs(worse) <= m["bound"]
            print(f"  {name:20s} {ma:16.6f} {mb:16.6f}  differ {abs(worse):7.2%} (bound {m['bound']:.0%})  {'ok' if ok else 'FAIL'}")
        else:
            ok = len(set(a + b)) == 1
            print(f"  {name:20s} {a[0]!r:>16} {b[0]!r:>16}  {'equal' if ok else 'FAIL: simulated metric differs'}")
        failed |= not ok
sys.exit(1 if failed else 0)
EOF
echo "check.sh: the two sets agree"
