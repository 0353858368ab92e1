#!/usr/bin/env bash
# Measures the runtime cost of -DLNCL_AUDIT=ON and proves the audit layer
# only reads: builds the table2/table3 benches in a plain and an audit
# tree, runs only their timed Logic-LNCL fits (--runs=0 skips the method
# sweep; the timed section always runs, seed 424242), and then
#
#   1. asserts that each fit's FitDigest is bit-identical across the two
#      binaries (same seed + digests equal ==> the audit checks changed
#      no number anywhere in the trajectory), and
#   2. writes results/BENCH_table2.json / BENCH_table3.json: the release
#      run's own BENCH document plus an "audit_overhead" block — per-mode
#      release vs audit fit seconds, the overhead ratio, and the matched
#      digests.
#
#   scripts/bench_audit_overhead.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

echo "===== building plain (build/) and audit (build-audit/) benches ====="
cmake -B build -S . >/dev/null
cmake -B build-audit -S . -DLNCL_AUDIT=ON >/dev/null
cmake --build build -j "$(nproc)" --target table2_sentiment table3_ner
cmake --build build-audit -j "$(nproc)" --target table2_sentiment table3_ner

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

for bench in table2_sentiment:table2 table3_ner:table3; do
  target=${bench%%:*}
  id=${bench##*:}
  for mode in release audit; do
    build_dir=build
    [ "$mode" = audit ] && build_dir=build-audit
    echo "===== ${id}: timed fits, ${mode} build ====="
    mkdir -p "$scratch/$mode"
    (cd "$scratch/$mode" && "$root/$build_dir/bench/$target" --runs=0)
  done
  python3 - "$root" "$scratch" "$id" <<'EOF'
import json
import os
import sys

root, scratch, bench_id = sys.argv[1:4]
release = json.load(open(f"{scratch}/release/results/BENCH_{bench_id}.json"))
audit = json.load(open(f"{scratch}/audit/results/BENCH_{bench_id}.json"))

by_mode = lambda doc: {f["mode"]: f for f in doc["timed_fits"]}
rel, aud = by_mode(release), by_mode(audit)
assert set(rel) == set(aud), (sorted(rel), sorted(aud))

fits = []
for mode in sorted(rel):
    r, a = rel[mode], aud[mode]
    assert not r["audit"] and a["audit"], (mode, r["audit"], a["audit"])
    match = r["result_digest"] == a["result_digest"]
    fits.append({
        "mode": mode,
        "release_fit_seconds": r["fit_seconds"],
        "audit_fit_seconds": a["fit_seconds"],
        "overhead_ratio": round(a["fit_seconds"] / r["fit_seconds"], 3),
        "result_digest": r["result_digest"],
        "digests_match": match,
    })
    print(f"{bench_id} [{mode}]: release {r['fit_seconds']:.3f}s, "
          f"audit {a['fit_seconds']:.3f}s "
          f"(x{a['fit_seconds'] / r['fit_seconds']:.3f}), "
          f"digest {'MATCH' if match else 'MISMATCH'}")

if not all(f["digests_match"] for f in fits):
    print(f"{bench_id}: FAIL — audit build changed the computed numbers")
    sys.exit(1)

os.makedirs(f"{root}/results", exist_ok=True)
path = f"{root}/results/BENCH_{bench_id}.json"
doc = release
doc["audit_overhead"] = {
    "timed_fit_seed": 424242,
    "note": "same-seed timed fits, plain vs -DLNCL_AUDIT=ON binaries; "
            "matching FitDigest proves the audit checks are read-only",
    "fits": fits,
}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"[audit overhead written to {path}]")
EOF
done

echo "Audit overhead measured; all digests bit-identical."
