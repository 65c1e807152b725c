#!/usr/bin/env bash
# CI entry point: tier-1 build + tests, sanitizer build + tests, a
# Release bench_index_micro --quick gate (vectorized-scan and heatmap
# speedup floors, plus a 20% drift band against the committed
# bench/baselines/BENCH_index_micro.json invariants), and
# observability smoke checks: bench_knn --quick must emit a parseable
# BENCH_knn.json with latency quantiles, a metrics snapshot, and an EXPLAIN
# profile with nonzero pruning; bench_failure_recovery --quick must show the
# gray-failure health alert firing and resolving in its "health" section;
# bench_partitioning --quick must show the heat observatory catching the
# zipf(1.1) camera skew (true hottest partition, >=3x load stddev vs the
# uniform run, advisor improvement >=25%) and staying silent under uniform;
# bench_summaries --quick must prune trajectory fan-out below broadcast;
# bench_planner --quick must keep warm k-NN fan-out and bytes below the
# broadcast row's;
# perfbench must build and pass its oracle check on every workload.
#
# Usage: ./ci.sh [--skip-sanitize]
set -euo pipefail
cd "$(dirname "$0")"

SKIP_SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1 build =="
cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build -j "$JOBS"

echo "== tier-1 tests =="
ctest --test-dir build -j "$JOBS" --output-on-failure

echo "== metrics doc lint (tools/metrics_doc --check) =="
# Every registered metric must carry a help string, and docs/METRICS.md must
# match the generated reference byte for byte (regenerate with
# ./build/tools/metrics_doc > docs/METRICS.md).
./build/tools/metrics_doc --check docs/METRICS.md

if [ "$SKIP_SANITIZE" -eq 0 ]; then
  echo "== sanitizer build (ASan+UBSan) =="
  cmake -B build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSTCN_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  echo "== sanitizer tests =="
  ctest --test-dir build-asan -j "$JOBS" --output-on-failure
  echo "== sanitizer health-alert chaos rerun =="
  # The chaos health test exercises the ticker, wildcard rules, and the
  # hysteresis state machine under ASan+UBSan explicitly.
  ./build-asan/tests/test_health_alerts \
      --gtest_filter='ChaosHealth.*' >/dev/null
  echo "== sanitizer recovery chaos rerun =="
  # Crash/recovery interleavings (holder death mid-resync, double crash,
  # snapshot install racing the live replica stream) under ASan+UBSan.
  ./build-asan/tests/test_failure_recovery \
      --gtest_filter='RecoveryChaos.*' >/dev/null
  echo "== sanitizer tiered-store differential rerun =="
  # Decode-fused cold-tier scans, snapshot round-trips, the incrementally
  # kept snapshot vault against full-image installs (with its corruption
  # sweep), and the int8 quantized appearance path under ASan+UBSan
  # explicitly.
  ./build-asan/tests/test_tiered_store \
      --gtest_filter='*TieredDifferential.*:*VaultDifferential.*:QuantizedAppearance.*' \
      >/dev/null
fi

echo "== columnar scan smoke (Release -O3, bench_index_micro --quick) =="
# The zone-map speedup claim is an -O3 claim; the RelWithDebInfo tier-1
# build is not the configuration the numbers are quoted from.
cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" --target bench_index_micro
COLUMNAR_DIR="$(mktemp -d)"
(cd "$COLUMNAR_DIR" && "$OLDPWD/build-release/bench/bench_index_micro" --quick)
python3 - "$COLUMNAR_DIR/BENCH_index_micro.json" \
    bench/baselines/BENCH_index_micro.json <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["bench"] == "index_micro", report
col = report["columnar"]
assert col["blocks_skipped_ratio"] > 0, col
assert col["blocks_scanned"] > 0, col
assert col["scan_speedup"] > 1.0, col
assert col["matched"] > 0, col
assert report["scalars"]["blocks_skipped_ratio"] == col["blocks_skipped_ratio"]

# Vectorized-section floors: the morsel scan must beat the scalar block
# scan it replaced by >=3x on the zone-selective workload, and the dense
# aggregation must beat the per-row map heatmap by >=5x.
vec = report["vectorized"]
assert vec["matched"] > 0, vec
assert vec["zone_fast_path"] > 0, vec
assert vec["rows_evaluated"] > 0, vec
assert vec["rows_selected"] > 0, vec
assert vec["vectorized_scan_speedup"] >= 3.0, vec
assert vec["heatmap_speedup"] >= 5.0, vec

# Regression gate: the deterministic columnar invariants (matched rows,
# blocks visited/skipped) must stay within 20% of the committed baseline.
# Timings are machine-dependent and are gated by the absolute floors above
# instead.
# Compression-section floors (E10c): the cold tier must compress the mixed
# row (ids, positions, int8 embedding arena) at least 3x against the raw
# hot layout, decode-fused cold scans must stay within 10% of hot-tier
# scans on the selective workload, and the int8 quantized appearance path
# must honor its closed-form error bound exactly (soundness, not luck).
comp = report["compression"]
assert comp["rows"] > 0, comp
assert comp["cold_blocks_scanned"] > 0, comp
assert comp["compression_ratio"] >= 3.0, comp
assert comp["cold_hot_scan_ratio"] <= 1.10, comp
assert comp["quantized_max_err"] <= comp["quantized_bound"], comp
assert comp["quantized_rmse"] <= 5e-3, comp

baseline_report = json.load(open(sys.argv[2]))
baseline = baseline_report["columnar"]
for key in ("matched", "blocks_scanned", "blocks_skipped",
            "blocks_skipped_ratio"):
    expect, got = baseline[key], col[key]
    assert expect > 0, (key, baseline)
    drift = abs(got - expect) / expect
    assert drift <= 0.20, \
        f"columnar {key} drifted {drift:.1%} from baseline: {got} vs {expect}"

# The cold-tier byte counts are deterministic for the fixed seed; a drift
# gate keeps encoder regressions (e.g. lost dictionary or FOR width wins)
# from slipping under the absolute 3x floor.
comp_baseline = baseline_report["compression"]
for key in ("rows", "compression_ratio"):
    expect, got = comp_baseline[key], comp[key]
    assert expect > 0, (key, comp_baseline)
    drift = abs(got - expect) / expect
    assert drift <= 0.20, \
        f"compression {key} drifted {drift:.1%} from baseline: {got} vs {expect}"

print("BENCH_index_micro.json OK:",
      f"scan_speedup={col['scan_speedup']:.1f}x,",
      f"blocks_skipped_ratio={col['blocks_skipped_ratio']:.3f},",
      f"vectorized={vec['vectorized_scan_speedup']:.1f}x,",
      f"heatmap={vec['heatmap_speedup']:.1f}x,",
      f"compression={comp['compression_ratio']:.2f}x,",
      f"cold/hot scan={comp['cold_hot_scan_ratio']:.2f},",
      f"int8 max_err={comp['quantized_max_err']:.1e}")
PY
rm -rf "$COLUMNAR_DIR"

echo "== bench report smoke (bench_knn --quick) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
(cd "$SMOKE_DIR" && "$OLDPWD/build/bench/bench_knn" --quick >/dev/null)
python3 - "$SMOKE_DIR/BENCH_knn.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["bench"] == "knn", report
assert report["quick"] is True, report
hist = report["histograms"]["query_latency_us"]
assert hist["count"] > 0, hist
assert hist["p50"] <= hist["p95"] <= hist["p99"], hist
metrics = report["metrics"]
assert metrics["counters"]["net.messages_sent"] > 0, "missing net counters"
assert any(k.startswith("coordinator.") for k in metrics["counters"])
assert any(k.startswith("worker.") for k in metrics["counters"])

# EXPLAIN section: per-stage estimated-vs-actual with nonzero pruning.
explain = report["explain"]
stages = explain["stages"]
assert stages, "explain profile has no stages"
names = {s["name"] for s in stages}
for required in ("knn.plan", "knn.round", "partition_selection",
                 "worker.scan"):
    assert required in names, f"missing explain stage {required}: {names}"
assert any(s.get("pruned", 0) > 0 for s in stages), "nothing pruned"
assert any("estimated" in s and "actual" in s for s in stages), \
    "no stage recorded both estimate and actual"
scalars = report["scalars"]
assert scalars["knn_plan_q_error_p50"] >= 1.0, scalars
assert scalars["estimate_q_error_p50"] >= 1.0, scalars
print("BENCH_knn.json OK:", len(report["scalars"]), "scalars,",
      f"query p50={hist['p50']:.0f}us p99={hist['p99']:.0f}us,",
      len(stages), "explain stages")
PY

echo "== health + recovery report smoke (bench_failure_recovery --quick) =="
(cd "$SMOKE_DIR" && "$OLDPWD/build/bench/bench_failure_recovery" --quick >/dev/null)
python3 - "$SMOKE_DIR/BENCH_failure_recovery.json" \
    bench/baselines/BENCH_failure_recovery.json <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
scalars = report["scalars"]
assert scalars["health_gray_alert_fired"] == 1.0, scalars
assert scalars["health_gray_victim_suspect"] == 1.0, scalars
assert scalars["health_gray_alert_resolved"] == 1.0, scalars
health = report["health"]
assert health["samples"] > 0, health
events = health["events"]
assert any(e["kind"] == "firing" and e["subject"].startswith("worker.")
           for e in events), events
assert any(e["kind"] == "resolved" for e in events), events
assert health["nodes"], "health rollup has no nodes"

# E9d gate: recovery cost must be monotone in snapshot age — a fresher
# snapshot means strictly less replayed data, and every snapshot age must
# beat the full-resync (no snapshot) column on bytes and replayed rows.
# Recovery time is monotone too, but delta exchanges can tie at this scale,
# so that check is non-strict.
ages = ["age0", "age5", "nosnap"]
for a in ages:
    assert scalars[f"e9d_complete_{a}"] == 1.0, \
        f"recovery at {a} lost data: {scalars}"
replayed = [scalars[f"e9d_replayed_{a}"] for a in ages]
bytes_ = [scalars[f"e9d_bytes_{a}"] for a in ages]
times = [scalars[f"e9d_recovery_ms_{a}"] for a in ages]
assert replayed[0] < replayed[1] < replayed[2], \
    f"replayed rows not strictly monotone in snapshot age: {replayed}"
assert bytes_[0] < bytes_[2] and bytes_[1] < bytes_[2], \
    f"a snapshot age failed to beat full resync on bytes: {bytes_}"
assert times[0] <= times[2] and times[1] <= times[2], \
    f"a snapshot age failed to beat full resync on time: {times}"

# Tiered-storage row: snapshots of demoted partitions carry compressed
# cold blocks, so the vault must shrink materially (>=15%) against the raw
# row at the same snapshot age, while recovery stays complete and replays
# the identical delta (compression must not change what is resynced).
assert scalars["e9d_complete_age0_tiered"] == 1.0, scalars
assert scalars["e9d_snapshot_bytes_age0"] > 0, scalars
tiered, raw = (scalars["e9d_snapshot_bytes_age0_tiered"],
               scalars["e9d_snapshot_bytes_age0"])
assert tiered <= 0.85 * raw, \
    f"compressed snapshot vault saved <15%: {tiered} vs {raw}"
assert scalars["e9d_replayed_age0_tiered"] == scalars["e9d_replayed_age0"], \
    scalars

# Drift gate against the committed baseline: the full-resync replay volume
# is deterministic for the fixed seed; 20% tolerates batch-layout tweaks.
baseline = json.load(open(sys.argv[2]))["scalars"]
for key in ("e9d_replayed_nosnap", "e9d_bytes_nosnap"):
    expect, got = baseline[key], scalars[key]
    assert expect > 0, (key, baseline)
    drift = abs(got - expect) / expect
    assert drift <= 0.20, \
        f"{key} drifted {drift:.1%} from baseline: {got} vs {expect}"

print("BENCH_failure_recovery.json OK:", len(events), "health events,",
      f"{int(scalars['health_samples'])} samples,",
      f"E9d replayed {[int(r) for r in replayed]} (age0/age5/full),",
      f"tiered snapshot {int(tiered)}/{int(raw)} B "
      f"({1.0 - tiered / raw:.0%} saved)")
PY

echo "== heat observatory smoke (bench_partitioning --quick) =="
(cd "$SMOKE_DIR" && "$OLDPWD/build/bench/bench_partitioning" --quick >/dev/null)
python3 - "$SMOKE_DIR/BENCH_partitioning.json" \
    bench/baselines/BENCH_partitioning.json <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
scalars = report["scalars"]

# Zipf(1.1) camera skew: the coordinator heat map must identify the true
# hottest partition, windowed load skew must read >= 3x the uniform run,
# and the read-only placement advisor must find a strong move (>= 25%
# projected per-worker load-stddev improvement).
assert scalars["heat_hottest_match_zipf"] == 1.0, scalars
assert scalars["heat_load_stddev_zipf"] >= \
    3.0 * scalars["heat_load_stddev_uniform"], scalars
assert scalars["heat_load_stddev_zipf"] > 0.5, scalars
assert scalars["heat_hot_cold_ratio_zipf"] > 8.0, scalars
assert scalars["heat_advisor_recs_zipf"] > 0, scalars
assert scalars["heat_advisor_improvement_zipf"] >= 0.25, scalars

# The uniform run is balanced per partition and per worker by
# construction: the advisor must stay silent with zero projected gain.
assert scalars["heat_advisor_recs_uniform"] == 0.0, scalars
assert scalars["heat_advisor_improvement_uniform"] == 0.0, scalars

# Drift gate: the zipf heat scalars are seeded and deterministic; 20%
# tolerates sampling-path tweaks without letting the skew signal rot.
baseline = json.load(open(sys.argv[2]))["scalars"]
for key in ("heat_load_stddev_zipf", "heat_hot_cold_ratio_zipf",
            "heat_advisor_improvement_zipf"):
    expect, got = baseline[key], scalars[key]
    assert expect > 0, (key, baseline)
    drift = abs(got - expect) / expect
    assert drift <= 0.20, \
        f"{key} drifted {drift:.1%} from baseline: {got} vs {expect}"

print("BENCH_partitioning.json OK:",
      f"zipf stddev={scalars['heat_load_stddev_zipf']:.2f}",
      f"(uniform {scalars['heat_load_stddev_uniform']:.2f}),",
      f"hot/cold={scalars['heat_hot_cold_ratio_zipf']:.1f}x,",
      f"advisor {int(scalars['heat_advisor_recs_zipf'])} recs,",
      f"top improvement {scalars['heat_advisor_improvement_zipf']:.0%}")
PY

echo "== cost ledger smoke (bench_gateway --quick) =="
(cd "$SMOKE_DIR" && "$OLDPWD/build/bench/bench_gateway" --quick >/dev/null)
python3 - "$SMOKE_DIR/BENCH_gateway.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
scalars = report["scalars"]
assert scalars["cost_queries"] > 0, scalars

# Conservation invariant: the space-saving sketch folds evicted rows into
# their replacements, so per-tenant rows_evaluated must sum EXACTLY to the
# cluster total the ledger counted.
total = scalars["cost_rows_evaluated_total"]
tenant_sum = scalars["cost_rows_evaluated_tenant_sum"]
assert total > 0, scalars
assert tenant_sum == total, \
    f"cost conservation violated: per-tenant sum {tenant_sum} != total {total}"

cost = report["cost"]
assert cost["queries"] == scalars["cost_queries"], cost
by_tenant = cost["by_tenant"]
assert by_tenant, "no tenant attribution rows"
assert sum(r["cost"]["rows_evaluated"] for r in by_tenant) == total
by_kind = cost["by_kind"]
assert by_kind and by_kind[0]["key"] == "range", by_kind
assert scalars["exemplar_buckets"] > 0, "no latency exemplars pinned"
print("BENCH_gateway.json OK:",
      f"{int(scalars['cost_queries'])} queries attributed,",
      f"{len(by_tenant)} tenants conserve {int(total)} rows_evaluated,",
      f"{int(scalars['exemplar_buckets'])} exemplar buckets")
PY

echo "== trajectory pruning smoke (bench_summaries --quick) =="
(cd "$SMOKE_DIR" && "$OLDPWD/build/bench/bench_summaries" --quick >/dev/null)
python3 - "$SMOKE_DIR/BENCH_summaries.json" <<'PY'
import json, sys
scalars = json.load(open(sys.argv[1]))["scalars"]

# Heartbeat summaries must prune trajectory fan-out below the direct-mode
# broadcast: a coverage gate that never matches would tie the two rows.
assert scalars["fanout_pruned"] < scalars["fanout_broadcast"], scalars
print("BENCH_summaries.json OK:",
      f"fan-out {scalars['fanout_pruned']:.2f} pruned",
      f"vs {scalars['fanout_broadcast']:.2f} broadcast")
PY

echo "== planned k-NN smoke (bench_planner --quick) =="
(cd "$SMOKE_DIR" && "$OLDPWD/build/bench/bench_planner" --quick >/dev/null)
python3 - "$SMOKE_DIR/BENCH_planner.json" <<'PY'
import json, sys
scalars = json.load(open(sys.argv[1]))["scalars"]

# With the estimator warm, k-NN must ask fewer workers and ship fewer bytes
# than the dark-estimator row, which is the broadcast: a planner or
# coverage check that always fell back would tie the two rows.
assert scalars["fanout_warm"] < scalars["fanout_broadcast"], scalars
assert scalars["bytes_per_query_warm"] < \
    scalars["bytes_per_query_broadcast"], scalars
print("BENCH_planner.json OK:",
      f"fan-out {scalars['fanout_warm']:.2f} warm",
      f"vs {scalars['fanout_broadcast']:.2f} broadcast,",
      f"{scalars['bytes_per_query_warm']:.0f}",
      f"vs {scalars['bytes_per_query_broadcast']:.0f} B/query,",
      f"{int(scalars['fallbacks_warm'])} fallbacks")
PY

echo "== flight recorder chaos bundle =="
# The chaos test freezes a postmortem bundle when the injected gray-slow
# worker pages, and dumps it when STCN_BUNDLE_OUT is set. Validate the
# bundle is complete: trigger, burn-rate series, exemplar span trees that
# reach the slow partition, and top-K cost rows.
STCN_BUNDLE_OUT="$SMOKE_DIR/bundle.json" ./build/tests/test_health_alerts \
    --gtest_filter='ChaosHealth.SlowWorkerFreezesPostmortemBundle' >/dev/null
python3 - "$SMOKE_DIR/bundle.json" <<'PY'
import json, sys
bundle = json.load(open(sys.argv[1]))
trigger = bundle["trigger"]
assert trigger["rule"], trigger
assert trigger["kind"] in ("alert", "slo", "recovery_failed"), trigger
slos = bundle["slo"]
assert any(s.get("burn_series") for s in slos), "no burn-rate series"
exemplars = bundle["exemplars"]
assert any(e.get("spans") for e in exemplars), "no exemplar span trees"
cost = bundle["cost"]
assert cost["by_kind"] and cost["by_tenant"], cost
assert bundle["frames"], "no cluster-state frames in the bundle"
print("bundle.json OK:", f"trigger={trigger['kind']}:{trigger['rule']},",
      f"{len(exemplars)} exemplars, {len(bundle['frames'])} frames")
PY

echo "== perfbench smoke (perfbench/run.py, every workload) =="
# Builds the end-to-end benchmark from src/ and runs one short round of each
# workload. run.py exits non-zero when the build fails or the oracle check
# prints FAILED, so a src/ change that breaks perfbench/ fails here rather
# than at the next benchmark run.
for workload in city_ingest forensic_mix reid_paths; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      >/dev/null
done

echo "== ci.sh: all green =="
