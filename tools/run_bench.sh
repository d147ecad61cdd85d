#!/usr/bin/env bash
# Runs the engine, live-monitoring, and serialization benchmarks:
#   BENCH_engine.json     — host-parallel superstep throughput vs threads,
#                           sharded MessageStore, parallel CSR build
#   BENCH_streaming.json  — StreamingArchiver ingest throughput vs the
#                           batch Archiver, and mid-stream Snapshot() cost
#   BENCH_jsonl.json      — JSONL codec vs DOM emit/parse records/s, and
#                           parallel ReadLogRecords vs host threads
#   BENCH_archive.json    — binary archive (GBA) encode/decode vs the JSON
#                           codec, offset-table subtree fetch, level-cut
#                           load, index-served List(), LRU cold vs warm
#   BENCH_serve.json      — `granula serve` HTTP daemon: index-only list,
#                           304 revalidation, hot (shared LRU) vs cold
#                           subtree serving under concurrent readers
#   BENCH_analysis.json   — zero-copy ArchiveView repository scans vs the
#                           materialize (full Load) path, pool-size axis,
#                           per-archive chokepoint findings off the view
#   BENCH_granula.json    — the archive-build path: LintLog and
#                           Archiver::Build records/s, instrumentation
#                           overhead, JSON archive codec, path queries
#
# Usage: tools/run_bench.sh [build_dir] [engine_out.json] [streaming_out.json]
#                           [jsonl_out.json] [archive_out.json] [serve_out.json]
#                           [analysis_out.json] [granula_out.json]
#   build_dir defaults to ./build; outputs default to ./BENCH_engine.json,
#   ./BENCH_streaming.json, ./BENCH_jsonl.json, ./BENCH_archive.json,
#   ./BENCH_serve.json, ./BENCH_analysis.json, and ./BENCH_granula.json.
#
# Every JSON's "context" carries host_nproc, cmake_build_type (of
# build_dir) and git_sha, so a recorded number names its host and build.
#
# Notes:
# - The engine bench sweeps the thread axis itself (Resize per benchmark
#   arg), so GRANULA_HOST_THREADS is not needed; the env var only sets the
#   initial pool size.
# - The >=3x-at-8-threads acceptance point assumes >=8 physical cores;
#   on smaller hosts the curve flattens at the core count.
# - The jsonl acceptance point (ParseJsonl >= 3x ParseDom, single thread)
#   is core-count independent.
set -euo pipefail

build_dir="${1:-build}"
engine_out="${2:-BENCH_engine.json}"
streaming_out="${3:-BENCH_streaming.json}"
jsonl_out="${4:-BENCH_jsonl.json}"
archive_out="${5:-BENCH_archive.json}"
serve_out="${6:-BENCH_serve.json}"
analysis_out="${7:-BENCH_analysis.json}"
granula_out="${8:-BENCH_granula.json}"
engine_bench="${build_dir}/bench/micro_parallel_engine"
streaming_bench="${build_dir}/bench/micro_streaming_ingest"
jsonl_bench="${build_dir}/bench/micro_jsonl"
archive_bench="${build_dir}/bench/micro_archive_query"
serve_bench="${build_dir}/bench/micro_serve"
analysis_bench="${build_dir}/bench/micro_archive_scan"
granula_bench="${build_dir}/bench/micro_granula"

for bench in "${engine_bench}" "${streaming_bench}" "${jsonl_bench}" \
             "${archive_bench}" "${serve_bench}" "${analysis_bench}" \
             "${granula_bench}"; do
  if [[ ! -x "${bench}" ]]; then
    echo "error: ${bench} not found — build first:" >&2
    echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
    exit 1
  fi
done

nproc_count="$(nproc 2>/dev/null || sysctl -n hw.ncpu)"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "${build_dir}/CMakeCache.txt" 2>/dev/null || true)"
git_sha="$(git -C "$(dirname "$0")/.." describe --always --dirty 2>/dev/null \
  || echo unknown)"
context="--benchmark_context=host_nproc=${nproc_count}"
context+=",cmake_build_type=${build_type:-none},git_sha=${git_sha}"
echo "host cores: ${nproc_count}, build type: ${build_type:-none}," \
     "git sha: ${git_sha}"
"${engine_bench}" \
  --benchmark_out="${engine_out}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true \
  "${context}"

echo
"${streaming_bench}" \
  --benchmark_out="${streaming_out}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true \
  "${context}"

echo
"${jsonl_bench}" \
  --benchmark_out="${jsonl_out}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true \
  "${context}"

echo
"${archive_bench}" \
  --benchmark_out="${archive_out}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true \
  "${context}"

echo
"${serve_bench}" \
  --benchmark_out="${serve_out}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true \
  "${context}"

echo
"${analysis_bench}" \
  --benchmark_out="${analysis_out}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true \
  "${context}"

echo
"${granula_bench}" \
  --benchmark_out="${granula_out}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true \
  "${context}"

echo
echo "wrote ${engine_out}, ${streaming_out}, ${jsonl_out}, ${archive_out}," \
     "${serve_out}, ${analysis_out}, and ${granula_out}"
# Print the superstep-compute scaling summary (speedup vs the 1-thread row
# of each benchmark family) if python3 is around; the JSON has everything.
if command -v python3 >/dev/null; then
  python3 - "${engine_out}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
base = {}
rows = []
for b in data.get("benchmarks", []):
    name = b["name"].split("/")[0]
    arg = b["name"].split("/")[1].split(":")[0] if "/" in b["name"] else "1"
    t = b["real_time"]
    base.setdefault(name, {})[arg] = t
for name, series in base.items():
    if "1" not in series:
        continue
    speedups = ", ".join(
        f"{arg}t: {series['1'] / t:.2f}x"
        for arg, t in sorted(series.items(), key=lambda kv: int(kv[0])))
    rows.append(f"  {name}: {speedups}")
print("speedup vs 1 host thread:")
print("\n".join(rows))
EOF
  # Streaming vs batch: records/s at the largest log size.
  python3 - "${streaming_out}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
best = {}
for b in data.get("benchmarks", []):
    name = b["name"].split("/")[0]
    if "items_per_second" in b:
        best[name] = max(best.get(name, 0.0), b["items_per_second"])
if best:
    print("ingest throughput (largest log):")
    for name, rate in sorted(best.items()):
        print(f"  {name}: {rate / 1e6:.2f}M records/s")
EOF
  # JSONL codec vs DOM: records/s plus the fast-path speedup ratios.
  python3 - "${jsonl_out}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
best = {}
for b in data.get("benchmarks", []):
    name = b["name"].split("/")[0]
    if "items_per_second" in b:
        best[name] = max(best.get(name, 0.0), b["items_per_second"])
if best:
    print("jsonl codec throughput (best size):")
    for name, rate in sorted(best.items()):
        print(f"  {name}: {rate / 1e6:.2f}M records/s")
    for fast, dom, label in [("BM_EmitJsonl", "BM_EmitDom", "emit"),
                             ("BM_ParseJsonl", "BM_ParseDom", "parse")]:
        if fast in best and dom in best and best[dom] > 0:
            print(f"  {label} fast-path speedup vs DOM: "
                  f"{best[fast] / best[dom]:.2f}x")
EOF
  # Binary archive vs JSON: full-decode speedup against the acceptance
  # point (>= 5x).
  python3 - "${archive_out}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
times = {}
for b in data.get("benchmarks", []):
    times[b["name"]] = b["real_time"] * {
        "ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
def ratio(slow, fast):
    return times[slow] / times[fast] if slow in times and fast in times else 0
print("binary archive (GBA) vs JSON:")
if ratio("BM_JsonParseFull", "BM_GbaDecodeFull"):
    print(f"  full decode speedup:    "
          f"{ratio('BM_JsonParseFull', 'BM_GbaDecodeFull'):.1f}x (>= 5x wanted)")
for name, label in [("BM_RepoListIndexed", "indexed List()"),
                    ("BM_GbaSubtreeFetch", "subtree fetch (cold)"),
                    ("BM_FetchSubtreeWarm", "subtree fetch (LRU hit)")]:
    if name in times:
        print(f"  {label}: {times[name] / 1e3:.1f}us")
EOF
  # Serve daemon: hot (shared LRU) vs cold subtree throughput per thread
  # count, against the >= 2x acceptance point.
  python3 - "${serve_out}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
rates = {}
for b in data.get("benchmarks", []):
    if "items_per_second" not in b:
        continue
    name = b["name"].split("/")[0]
    threads = "1"
    for part in b["name"].split("/")[1:]:
        if part.startswith("threads:"):
            threads = part.split(":")[1]
    rates[(name, threads)] = b["items_per_second"]
if rates:
    print("serve daemon throughput:")
    for (name, threads), rate in sorted(rates.items()):
        print(f"  {name} x{threads}: {rate:.0f} req/s")
    for threads in ("1", "4"):
        hot = rates.get(("BM_ServeSubtreeHot", threads))
        cold = rates.get(("BM_ServeSubtreeCold", threads))
        if hot and cold:
            print(f"  hot/cold subtree speedup x{threads}: "
                  f"{hot / cold:.2f}x (>= 2x wanted)")
EOF
  # Zero-copy view scan vs the materialize path. This one is a hard gate:
  # the run fails (exit 1) if the repository-wide view scan at pool size 1
  # is not at least 2x faster than the materialize path — the acceptance
  # target is 5x; the gate keeps headroom for noisy CI runners.
  python3 - "${analysis_out}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
times = {}
for b in data.get("benchmarks", []):
    times[b["name"]] = b["real_time"] * {
        "ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
print("zero-copy view scan vs materialize:")
for pool in ("1", "2", "8"):
    name = f"BM_ViewScan/pool:{pool}"
    if name in times:
        print(f"  view scan pool:{pool}: {times[name] / 1e6:.2f}ms")
mat = times.get("BM_MaterializeScan")
view = times.get("BM_ViewScan/pool:1")
if mat and view:
    print(f"  materialize scan:     {mat / 1e6:.2f}ms")
    print(f"  view/materialize speedup (pool 1): {mat / view:.1f}x"
          f" (>= 5x wanted, >= 2x gated)")
fm, fv = times.get("BM_FindingsMaterialize"), times.get("BM_FindingsView")
if fm and fv:
    print(f"  findings off view speedup: {fm / fv:.1f}x")
if not (mat and view):
    print("error: scan benchmarks missing from output", file=sys.stderr)
    sys.exit(1)
if mat < 2.0 * view:
    print(f"error: view scan is only {mat / view:.2f}x the materialize "
          f"path (gate: >= 2x)", file=sys.stderr)
    sys.exit(1)
EOF
  # Archive-build path: lint and full Build records/s per log size.
  python3 - "${granula_out}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
rows = [b for b in data.get("benchmarks", [])
        if b["name"].split("/")[0] in ("BM_LintLog", "BM_ArchiverBuild")
        and "items_per_second" in b]
if rows:
    print("archive-build path (records/s):")
    for b in rows:
        print(f"  {b['name']}: {b['items_per_second'] / 1e6:.2f}M")
EOF
fi
