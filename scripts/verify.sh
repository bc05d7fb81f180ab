#!/usr/bin/env bash
# Repo verification: the tier-1 gate (ROADMAP.md), formatting, the full
# workspace test suite, and an end-to-end `kmm search --stats` smoke test
# on a tiny synthetic genome.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== cargo fmt --check =="
cargo fmt --check

echo "== workspace tests =="
cargo test --workspace -q

echo "== perfbench tests (the API's out-of-workspace consumer) =="
# The benchmark package is its own workspace, so `cargo test --workspace`
# never compiles it; build and smoke-test it here so an API change
# cannot break it silently.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== kmm search --stats smoke test =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
kmm=target/release/kmm
"$kmm" generate --genome cmerolae --scale 0.02 -o "$tmp/ref.fa"
"$kmm" index --reference "$tmp/ref.fa" -o "$tmp/ref.idx"
# A pattern lifted from the reference itself (second FASTA line, first
# 40 bases) is guaranteed to occur at least once.
pattern=$(sed -n 2p "$tmp/ref.fa" | cut -c1-40)
"$kmm" search --index "$tmp/ref.idx" --pattern "$pattern" -k 2 \
    --stats --stats-json "$tmp/stats.json" > "$tmp/hits.tsv" 2> "$tmp/summary.txt"
grep -q "occurrences" "$tmp/summary.txt"
grep -q "search.queries" "$tmp/summary.txt"
test -s "$tmp/hits.tsv"
# The JSON artifact must carry the schema tag and all three stages.
for needle in kmm-telemetry/v1 index.load preprocess.rarray search.query; do
    grep -q "$needle" "$tmp/stats.json"
done

echo "== kmm search --threads 4 smoke test (multi-threaded batch) =="
# Index construction and batch search across 4 workers must reproduce
# the single-threaded hits byte for byte.
"$kmm" index --reference "$tmp/ref.fa" -o "$tmp/ref-mt.idx" --threads 4
cmp "$tmp/ref.idx" "$tmp/ref-mt.idx"
"$kmm" search --index "$tmp/ref-mt.idx" --pattern "$pattern" -k 2 --threads 4 \
    --stats > "$tmp/hits-mt.tsv" 2> "$tmp/summary-mt.txt"
grep -q "occurrences" "$tmp/summary-mt.txt"
grep -q "search.queries" "$tmp/summary-mt.txt"
cmp "$tmp/hits.tsv" "$tmp/hits-mt.tsv"
# Multi-pattern batch: two patterns fan out across the pool; output lines
# are prefixed with the 0-based pattern index, in input order.
pattern2=$(sed -n 2p "$tmp/ref.fa" | cut -c41-80)
"$kmm" search --index "$tmp/ref-mt.idx" --pattern "$pattern" --pattern "$pattern2" \
    -k 2 -j 4 > "$tmp/hits-multi.tsv" 2> "$tmp/summary-multi.txt"
grep -q "across 2 patterns" "$tmp/summary-multi.txt"
grep -q "^0	" "$tmp/hits-multi.tsv"
grep -q "^1	" "$tmp/hits-multi.tsv"
# Flag validation: zero and junk thread counts must be rejected.
if "$kmm" search --index "$tmp/ref-mt.idx" --pattern "$pattern" --threads 0 2>/dev/null; then
    echo "verify: --threads 0 was not rejected" >&2; exit 1
fi
if "$kmm" search --index "$tmp/ref-mt.idx" --pattern "$pattern" --threads nope 2>/dev/null; then
    echo "verify: --threads nope was not rejected" >&2; exit 1
fi

echo "== kmm search --trace-out smoke test (span tracing) =="
"$kmm" search --index "$tmp/ref.idx" --pattern "$pattern" -k 2 \
    --trace-out "$tmp/nested/dir/trace.json" --slowest 3 \
    > /dev/null 2> "$tmp/summary-trace.txt"
grep -q "trace ->" "$tmp/summary-trace.txt"
grep -q "slowest" "$tmp/summary-trace.txt"
# The artifact is Chrome trace-event JSON (loadable in Perfetto).
grep -q '"traceEvents"' "$tmp/nested/dir/trace.json"
grep -q '"ph": "X"' "$tmp/nested/dir/trace.json"

echo "== kmm explain smoke test (depth-profile attribution) =="
"$kmm" explain --index "$tmp/ref.idx" --pattern "$pattern" -k 2 \
    > "$tmp/explain.txt" 2>/dev/null
grep -q "EXPLAIN pattern=" "$tmp/explain.txt"
grep -q "verdict:" "$tmp/explain.txt"
"$kmm" explain --index "$tmp/ref.idx" --pattern "$pattern" -k 2 --json \
    > "$tmp/explain.json" 2>/dev/null
python3 -c "
import json
doc = json.load(open('$tmp/explain.json'))
assert doc['schema'] == 'kmm-explain/v1', doc['schema']
assert doc['verdict'] and doc['verdict']['winner'], doc.get('verdict')
assert all(m['work_units'] > 0 for m in doc['methods']), doc['methods']
# Uninstrumented text scanners (Amir) report no depth rows; the
# tree-walkers must, and their rows must sum to real expansions.
profiled = [m for m in doc['methods'] if m['depths']]
assert profiled, 'no method produced a depth profile'
for m in profiled:
    assert sum(d['expanded'] for d in m['depths']) > 0, m['method']
" || { echo "verify: explain JSON report is malformed" >&2; exit 1; }
# The verdict reads counters, never clocks: rerunning at a different
# thread width must reproduce the document byte for byte.
"$kmm" explain --index "$tmp/ref.idx" --pattern "$pattern" -k 2 --json \
    --threads 8 > "$tmp/explain-t8.json" 2>/dev/null
cmp "$tmp/explain.json" "$tmp/explain-t8.json"

echo "== kmm serve smoke test =="
# Start the daemon on an ephemeral port, discover it via --port-file.
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --port-file "$tmp/port" 2> "$tmp/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port" ] && break
    sleep 0.1
done
[ -s "$tmp/port" ] || { echo "verify: serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port")
# Tiny HTTP client over bash's /dev/tcp (no curl dependency).
http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'GET %s HTTP/1.1\r\nHost: v\r\nConnection: close\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
}
http_post() {
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'POST %s HTTP/1.1\r\nHost: v\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
        "$1" "${#2}" "$2" >&3
    cat <&3
    exec 3<&- 3>&-
}
http_get /healthz | grep -q "200 OK"
# /metrics speaks Prometheus: typed series with real samples.
metrics=$(http_get /metrics)
echo "$metrics" | grep -q "^# TYPE "
echo "$metrics" | grep -q "kmm_http_requests_total"
# ...including the flight-recorder and sliding-window gauges.
echo "$metrics" | grep -q "kmm_flight_recorder_capacity"
echo "$metrics" | grep -q "kmm_http_window_samples"
# The live dashboard is one self-contained HTML document.
dash=$(http_get /dashboard)
echo "$dash" | grep -q "200 OK"
echo "$dash" | grep -q "<!DOCTYPE html>"
# POST /explain serves the same kmm-explain/v1 report as the CLI.
http_post /explain "{\"pattern\": \"$pattern\", \"k\": 2}" > "$tmp/http-explain.json"
grep -q "kmm-explain/v1" "$tmp/http-explain.json"
grep -q '"work_units"' "$tmp/http-explain.json"
grep -q '"pruned_budget"' "$tmp/http-explain.json"
# POST /search reports the same positions as the CLI search path.
http_post /search "{\"pattern\": \"$pattern\", \"k\": 2}" > "$tmp/http-search.json"
grep -q '"occurrences"' "$tmp/http-search.json"
cli_positions=$(cut -f1 "$tmp/hits.tsv" | sort -n | tr '\n' ',')
http_positions=$(grep -o '"position": [0-9]*' "$tmp/http-search.json" \
    | grep -o '[0-9]*' | sort -n | tr '\n' ',')
if [ "$cli_positions" != "$http_positions" ]; then
    echo "verify: POST /search ($http_positions) != CLI search ($cli_positions)" >&2
    exit 1
fi
# Clean shutdown: the daemon acknowledges and the process exits.
http_post /shutdown "" | grep -q "200 OK"
wait "$serve_pid"
grep -q "served" "$tmp/serve.log"

echo "== occbench smoke: BENCH_occ.json with occ, occ_all and kernel rows =="
target/release/experiments occbench --scale 0.02 --out-dir "$tmp/bench" \
    > "$tmp/occbench.txt"
grep -q "fused speedup" "$tmp/occbench.txt"
grep -q "dispatched kernel" "$tmp/occbench.txt"
test -s "$tmp/bench/BENCH_occ.json"
python3 -c "
import json, sys
doc = json.load(open('$tmp/bench/BENCH_occ.json'))
assert doc['schema'] == 'kmm-bench/v1', doc['schema']
methods = {r['method'] for r in doc['records']}
assert {'occ', 'occ_all'} <= methods, methods
# The SIMD-vs-scalar sweep lands one pair per checkpoint rate.
for rate in (64, 256, 1024):
    assert f'occ_all_scalar@r{rate}' in methods, methods
    assert f'occ_all_simd@r{rate}' in methods, methods
" || { echo "verify: BENCH_occ.json missing occ/occ_all/kernel rows" >&2; exit 1; }

echo "== SIMD beats scalar at wide checkpoint rates (kmm bench diff) =="
# Split the kernel sweep into a scalar doc and a simd doc with matching
# record keys, then let the timing gate decide: if the SIMD kernel is
# not at least as fast as forced-scalar at rate 1024, the diff fails.
# Only meaningful when the dispatcher actually picked a vector kernel.
if grep -q "dispatched kernel: avx2" "$tmp/occbench.txt"; then
    python3 -c "
import json
doc = json.load(open('$tmp/bench/BENCH_occ.json'))
def pick(suffix):
    out = dict(doc)
    out['records'] = [
        {**r, 'method': 'occ_all_kernel@r1024'}
        for r in doc['records'] if r['method'] == f'occ_all_{suffix}@r1024'
    ]
    assert out['records'], f'no occ_all_{suffix}@r1024 row'
    return out
json.dump(pick('scalar'), open('$tmp/bench/occ-scalar.json', 'w'))
json.dump(pick('simd'), open('$tmp/bench/occ-simd.json', 'w'))
"
    "$kmm" bench diff "$tmp/bench/occ-scalar.json" "$tmp/bench/occ-simd.json" \
        --fail-on-time-regress 0 2> "$tmp/diff-simd.txt" \
        || { echo "verify: SIMD kernel slower than scalar at rate 1024" >&2
             cat "$tmp/diff-simd.txt" >&2; exit 1; }
else
    echo "  (no AVX2 on this machine; kernel timing gate skipped)"
fi

echo "== parallel index determinism at widths 1 and 8 =="
# The interleaved-block rank build must stay byte-identical at any
# thread width (width 4 is already pinned above against the default).
"$kmm" index --reference "$tmp/ref.fa" -o "$tmp/ref-w1.idx" --threads 1
"$kmm" index --reference "$tmp/ref.fa" -o "$tmp/ref-w8.idx" --threads 8
cmp "$tmp/ref.idx" "$tmp/ref-w1.idx"
cmp "$tmp/ref.idx" "$tmp/ref-w8.idx"

echo "== chaos smoke: failpoint arming and deadline flags =="
# Bad failpoint specs are rejected up front with a clear error.
if KMM_FAILPOINTS='x=frobnicate' "$kmm" search --index "$tmp/ref.idx" \
    --pattern "$pattern" 2> "$tmp/badspec.txt"; then
    echo "verify: bad KMM_FAILPOINTS spec was not rejected" >&2; exit 1
fi
grep -q "bad failpoint spec" "$tmp/badspec.txt"
# An injected index-load failure surfaces as an ordinary CLI error.
if KMM_FAILPOINTS='index.load.io=err' "$kmm" search --index "$tmp/ref.idx" \
    --pattern "$pattern" 2> "$tmp/ioerr.txt"; then
    echo "verify: injected index.load.io error did not fail the search" >&2; exit 1
fi
grep -q "injected fault" "$tmp/ioerr.txt"
# Deadline flags: zero is rejected, a generous budget is bit-identical.
if "$kmm" search --index "$tmp/ref.idx" --pattern "$pattern" --timeout-ms 0 2>/dev/null; then
    echo "verify: --timeout-ms 0 was not rejected" >&2; exit 1
fi
"$kmm" search --index "$tmp/ref.idx" --pattern "$pattern" -k 2 --timeout-ms 60000 \
    > "$tmp/hits-deadline.tsv" 2>/dev/null
cmp "$tmp/hits.tsv" "$tmp/hits-deadline.tsv"

echo "== chaos smoke: daemon survives injected worker panics =="
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --port-file "$tmp/port-chaos" --failpoints 'pool.worker.panic=after1.panic' \
    2> "$tmp/serve-chaos.log" &
chaos_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port-chaos" ] && break
    sleep 0.1
done
[ -s "$tmp/port-chaos" ] || { echo "verify: chaos serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port-chaos")
# The first hit is dormant, then every request panics inside the worker;
# the daemon answers 500 each time instead of dying. Capture responses
# into variables (grep -q on a live pipe races SIGPIPE under pipefail).
resp=$(http_get /healthz)
echo "$resp" | grep -q "200 OK"
resp=$(http_get /healthz)
echo "$resp" | grep -q "500 Internal Server Error"
resp=$(http_get /healthz)
echo "$resp" | grep -q "panicked"
kill "$chaos_pid" 2>/dev/null || true
wait "$chaos_pid" 2>/dev/null || true

echo "== chaos smoke: slow handler + per-request deadline =="
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --port-file "$tmp/port-slow" --failpoints 'serve.handler.slow=sleep100' \
    2> "$tmp/serve-slow.log" &
slow_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port-slow" ] && break
    sleep 0.1
done
[ -s "$tmp/port-slow" ] || { echo "verify: slow serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port-slow")
# The injected latency delays but does not fail requests...
resp=$(http_get /healthz)
echo "$resp" | grep -q "200 OK"
# ...and an already-expired per-request deadline returns 504 carrying
# the partial-results marker, ticking the timeout counter.
http_post /search "{\"pattern\": \"$pattern\", \"k\": 2, \"timeout_ms\": 0}" \
    > "$tmp/http-timeout.json"
grep -q "504 Gateway Timeout" "$tmp/http-timeout.json"
grep -q '"truncated": true' "$tmp/http-timeout.json"
resp=$(http_get /metrics)
echo "$resp" | grep -Eq '^kmm_search_timeouts_total [1-9]'
resp=$(http_post /shutdown "")
echo "$resp" | grep -q "200 OK"
wait "$slow_pid"
grep -q "served" "$tmp/serve-slow.log"

echo "== bench regression gate =="
# Two identical baseline runs must agree bit-for-bit on every
# deterministic counter (timing is reported but not gated)...
target/release/experiments baseline --out-dir "$tmp/base-a" > /dev/null
target/release/experiments baseline --out-dir "$tmp/base-b" > /dev/null
"$kmm" bench diff "$tmp/base-a/BENCH_baseline.json" "$tmp/base-b/BENCH_baseline.json" \
    --assert-identical 2> "$tmp/diff-repeat.txt"
grep -q "deterministic counters: identical" "$tmp/diff-repeat.txt"
# ...and the fresh run must stay within budget of the committed baseline.
"$kmm" bench diff BENCH_baseline.json "$tmp/base-a/BENCH_baseline.json" \
    --fail-on-regress 15 2> "$tmp/diff-committed.txt"
grep -q "PASS" "$tmp/diff-committed.txt"
# Every deterministic counter must match the committed artifact exactly.
"$kmm" bench diff BENCH_baseline.json "$tmp/base-a/BENCH_baseline.json" \
    --assert-identical 2> "$tmp/diff-committed-exact.txt"
grep -q "deterministic counters: identical" "$tmp/diff-committed-exact.txt"
# The gate actually gates: forcing the rank checkpoint rate to 4 roughly
# doubles the rank-block overhead bytes, which must trip the 15% budget.
KMM_BASELINE_OCC_RATE=4 target/release/experiments baseline \
    --out-dir "$tmp/base-inject" > /dev/null
if "$kmm" bench diff "$tmp/base-a/BENCH_baseline.json" \
    "$tmp/base-inject/BENCH_baseline.json" \
    --fail-on-regress 15 2> "$tmp/diff-inject.txt"; then
    echo "verify: injected occ-rate regression was not caught" >&2; exit 1
fi
grep -q "REGRESSION" "$tmp/diff-inject.txt"
grep -q "index.rank_overhead_bytes" "$tmp/diff-inject.txt"

echo "== explain depth-profile gate (BENCH_explain.json) =="
# The explain experiment re-derives the committed per-depth pruning
# profile; kmm bench diff then gates every dNN.* counter like any other.
target/release/experiments explain --out-dir "$tmp/bench" > "$tmp/explain-bench.txt"
grep -q "pr.budget" "$tmp/explain-bench.txt"
test -s "$tmp/bench/BENCH_explain.json"
python3 -c "
import json
doc = json.load(open('$tmp/bench/BENCH_explain.json'))
assert doc['schema'] == 'kmm-bench/v1', doc['schema']
assert {r['method'] for r in doc['records']} == {'BWT', 'A(.)'}, doc['records']
assert sorted({r['k'] for r in doc['records']}) == [1, 2, 3]
for r in doc['records']:
    assert any(s.endswith('.expanded') for s in r['stats']), r['method']
    assert any('.pruned_' in s for s in r['stats']), r['method']
" || { echo "verify: BENCH_explain.json records are wrong" >&2; exit 1; }
"$kmm" bench diff BENCH_explain.json "$tmp/bench/BENCH_explain.json" \
    --fail-on-regress 15 2> "$tmp/diff-explain.txt"
grep -q "PASS" "$tmp/diff-explain.txt"
"$kmm" bench diff BENCH_explain.json "$tmp/bench/BENCH_explain.json" \
    --assert-identical 2> "$tmp/diff-explain-exact.txt"
grep -q "deterministic counters: identical" "$tmp/diff-explain-exact.txt"

echo "== SIMD/scalar bit-identity: KMM_NO_SIMD=1 changes nothing =="
# The scalar fallback must produce the same hits and the same
# deterministic counters as the dispatched kernel, bit for bit.
KMM_NO_SIMD=1 "$kmm" search --index "$tmp/ref.idx" --pattern "$pattern" -k 2 \
    > "$tmp/hits-nosimd.tsv" 2>/dev/null
cmp "$tmp/hits.tsv" "$tmp/hits-nosimd.tsv"
KMM_NO_SIMD=1 target/release/experiments baseline --out-dir "$tmp/base-nosimd" > /dev/null
"$kmm" bench diff "$tmp/base-a/BENCH_baseline.json" \
    "$tmp/base-nosimd/BENCH_baseline.json" \
    --assert-identical 2> "$tmp/diff-nosimd.txt"
grep -q "deterministic counters: identical" "$tmp/diff-nosimd.txt"

echo "== kmm serve --mmap: zero-copy open, same answers =="
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --mmap --port-file "$tmp/port-mmap" 2> "$tmp/serve-mmap.log" &
mmap_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port-mmap" ] && break
    sleep 0.1
done
[ -s "$tmp/port-mmap" ] || { echo "verify: mmap serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port-mmap")
# The cold-start log line names the load mode; on linux it is mmap with
# zero read bytes, and /stats.json carries index.load.mode = 2.
grep -q "index opened via" "$tmp/serve-mmap.log"
resp=$(http_get /stats.json)
echo "$resp" | grep -q '"index.load.mode": 2'
echo "$resp" | grep -q '"index.load.io_bytes": 0'
# Searches against the mapped index match the CLI (read-path) hits.
http_post /search "{\"pattern\": \"$pattern\", \"k\": 2}" > "$tmp/http-mmap.json"
mmap_positions=$(grep -o '"position": [0-9]*' "$tmp/http-mmap.json" \
    | grep -o '[0-9]*' | sort -n | tr '\n' ',')
if [ "$cli_positions" != "$mmap_positions" ]; then
    echo "verify: --mmap /search ($mmap_positions) != CLI search ($cli_positions)" >&2
    exit 1
fi
resp=$(http_post /shutdown "")
echo "$resp" | grep -q "200 OK"
wait "$mmap_pid"

echo "== index upgrade + corruption handling =="
# Upgrading a current-format index is a clean no-op.
"$kmm" index upgrade --index "$tmp/ref.idx" 2> "$tmp/upgrade.txt"
grep -q "nothing to do" "$tmp/upgrade.txt"
# A flipped byte in the section table is a typed error on both the read
# path and the mmap path — never a panic or garbage results.
cp "$tmp/ref.idx" "$tmp/ref-corrupt.idx"
python3 -c "
with open('$tmp/ref-corrupt.idx', 'r+b') as f:
    f.seek(17)
    b = f.read(1)
    f.seek(17)
    f.write(bytes([b[0] ^ 0xff]))
"
if "$kmm" search --index "$tmp/ref-corrupt.idx" --pattern "$pattern" 2> "$tmp/corrupt.txt"; then
    echo "verify: corrupt index was not rejected (read path)" >&2; exit 1
fi
grep -Eiq "corrupt|malformed|magic|version" "$tmp/corrupt.txt"
if timeout 30 "$kmm" serve --index "$tmp/ref-corrupt.idx" --mmap --addr 127.0.0.1:0 \
    2> "$tmp/corrupt-mmap.txt"; then
    echo "verify: corrupt index was not rejected (mmap path)" >&2; exit 1
fi
grep -Eiq "corrupt|malformed|magic|version" "$tmp/corrupt-mmap.txt"
# Corruption under an armed failpoint still reports the injected fault
# first — the failpoint layer sits in front of the open.
if KMM_FAILPOINTS='index.load.io=err' "$kmm" search --index "$tmp/ref-corrupt.idx" \
    --pattern "$pattern" 2> "$tmp/corrupt-fp.txt"; then
    echo "verify: corrupt index + failpoint did not fail" >&2; exit 1
fi
grep -q "injected fault" "$tmp/corrupt-fp.txt"

echo "== coldstart artifact: mmap does zero startup I/O =="
target/release/experiments coldstart --scale 0.02 --out-dir "$tmp/bench" \
    > "$tmp/coldstart.txt"
test -s "$tmp/bench/BENCH_coldstart.json"
python3 -c "
import json
doc = json.load(open('$tmp/bench/BENCH_coldstart.json'))
assert doc['schema'] == 'kmm-bench/v1', doc['schema']
reads = [r for r in doc['records'] if r['method'] == 'open_read']
maps = [r for r in doc['records'] if r['method'] == 'open_mmap']
assert reads and maps, doc['records']
for r in reads:
    assert r['stats']['load_io_bytes'] == r['stats']['load_file_bytes'] > 0, r
for r in maps:
    if r['stats']['load_borrowed'] == 1:
        assert r['stats']['load_io_bytes'] == 0, r
        assert r['stats']['load_bytes_mapped'] == r['stats']['load_file_bytes'], r
" || { echo "verify: BENCH_coldstart.json byte counters are wrong" >&2; exit 1; }

echo "== event log + memory accounting smoke test =="
# --log-json writes structured JSON lines; --quiet silences stderr events.
"$kmm" search --index "$tmp/ref.idx" --pattern "$pattern" -k 2 --stats \
    --log-json "$tmp/events.jsonl" > /dev/null 2> "$tmp/summary-mem.txt"
# With the default alloc-track feature, --stats reports per-phase heap.
grep -q "heap:" "$tmp/summary-mem.txt"
grep -q "load" "$tmp/summary-mem.txt"
# The serve daemon logs startup/access/shutdown as structured events.
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --port-file "$tmp/port-events" --log-json "$tmp/serve-events.jsonl" \
    2> "$tmp/serve-events.log" &
events_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port-events" ] && break
    sleep 0.1
done
[ -s "$tmp/port-events" ] || { echo "verify: events serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port-events")
resp=$(http_get /healthz)
echo "$resp" | grep -q "200 OK"
# /metrics now carries the allocator gauges.
resp=$(http_get /metrics)
echo "$resp" | grep -q "kmm_mem_peak_bytes"
# A bad /search answers with a JSON error body carrying a request id...
resp=$(http_post /search '{"k": 1}')
echo "$resp" | grep -q '"request_id": "req-'
req_id=$(echo "$resp" | grep -o '"request_id": "req-[0-9]*"' | grep -o 'req-[0-9]*')
resp=$(http_post /shutdown "")
echo "$resp" | grep -q "200 OK"
wait "$events_pid"
# ...and the same id appears on the access-log line for that request,
# tagged with the handler outcome (ok / error / shed / truncated).
grep -q '"target":"serve.access"' "$tmp/serve-events.jsonl"
grep '"target":"serve.access"' "$tmp/serve-events.jsonl" | grep -q '"outcome":"ok"'
grep "$req_id" "$tmp/serve-events.jsonl" | grep -q '"status":"400"'
grep "$req_id" "$tmp/serve-events.jsonl" | grep -q '"outcome":"error"'
grep -q "listening" "$tmp/serve-events.jsonl"
grep -q "shutdown" "$tmp/serve-events.jsonl"

echo "== keep-alive smoke: two requests, one socket =="
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --port-file "$tmp/port-ka" 2> "$tmp/serve-ka.log" &
ka_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port-ka" ] && break
    sleep 0.1
done
[ -s "$tmp/port-ka" ] || { echo "verify: keep-alive serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port-ka")
# Two pipelined requests in one write; HTTP/1.1 defaults to keep-alive,
# the second carries Connection: close so the read drains to EOF.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'GET /healthz HTTP/1.1\r\nHost: v\r\n\r\nGET /healthz HTTP/1.1\r\nHost: v\r\nConnection: close\r\n\r\n' >&3
ka_resp=$(cat <&3)
exec 3<&- 3>&-
[ "$(echo "$ka_resp" | grep -c "200 OK")" = 2 ] \
    || { echo "verify: keep-alive socket did not serve both requests" >&2; exit 1; }
echo "$ka_resp" | grep -q "Connection: keep-alive"
echo "$ka_resp" | grep -q "Connection: close"
resp=$(http_get /metrics)
echo "$resp" | grep -Eq '^kmm_serve_keepalive_reuses_total [1-9]'

echo "== slow-loris eviction: half a header draws a 408 =="
# Same daemon, but the loris needs a tight idle window; restart with one.
resp=$(http_post /shutdown "")
echo "$resp" | grep -q "200 OK"
wait "$ka_pid"
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --idle-timeout-ms 300 --port-file "$tmp/port-loris" 2> "$tmp/serve-loris.log" &
loris_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port-loris" ] && break
    sleep 0.1
done
[ -s "$tmp/port-loris" ] || { echo "verify: loris serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port-loris")
# Send half a request line and stop: the idle deadline must evict the
# connection with a 408 instead of holding the slot forever.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'GET /hea' >&3
loris_resp=$(cat <&3)
exec 3<&- 3>&-
echo "$loris_resp" | grep -q "408 Request Timeout"
echo "$loris_resp" | grep -q "Connection: close"
resp=$(http_get /metrics)
echo "$resp" | grep -Eq '^kmm_serve_shed_stall_total [1-9]'
resp=$(http_post /shutdown "")
echo "$resp" | grep -q "200 OK"
wait "$loris_pid"

echo "== per-tenant admission: --tenant-rate 1 meters each tenant =="
"$kmm" serve --index "$tmp/ref.idx" --addr 127.0.0.1:0 --threads 2 -k 2 \
    --tenant-rate 1 --port-file "$tmp/port-tenant" 2> "$tmp/serve-tenant.log" &
tenant_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port-tenant" ] && break
    sleep 0.1
done
[ -s "$tmp/port-tenant" ] || { echo "verify: tenant serve never wrote its port file" >&2; exit 1; }
port=$(cat "$tmp/port-tenant")
http_tenant() {
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'GET /healthz HTTP/1.1\r\nHost: v\r\nX-Kmm-Tenant: %s\r\nConnection: close\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
}
# alice's bucket holds one token: first request lands, the immediate
# second draws 429 + Retry-After without closing her out for good.
resp=$(http_tenant alice)
echo "$resp" | grep -q "200 OK"
resp=$(http_tenant alice)
echo "$resp" | grep -q "429 Too Many Requests"
echo "$resp" | grep -q "Retry-After:"
# bob is a different bucket and sails through...
resp=$(http_tenant bob)
echo "$resp" | grep -q "200 OK"
# ...and the control plane is exempt from admission entirely.
resp=$(http_post /shutdown "")
echo "$resp" | grep -q "200 OK"
wait "$tenant_pid"
grep -q "served" "$tmp/serve-tenant.log"

echo "== servesoak gate (BENCH_serve.json) =="
# The soak re-derives the committed admission counters over live TCP;
# every gated value is a pure function of the request sequence.
target/release/experiments servesoak --out-dir "$tmp/bench" > "$tmp/servesoak.txt"
grep -q "keepalive" "$tmp/servesoak.txt"
test -s "$tmp/bench/BENCH_serve.json"
"$kmm" bench diff BENCH_serve.json "$tmp/bench/BENCH_serve.json" \
    --fail-on-regress 15 2> "$tmp/diff-serve.txt"
grep -q "PASS" "$tmp/diff-serve.txt"
"$kmm" bench diff BENCH_serve.json "$tmp/bench/BENCH_serve.json" \
    --assert-identical 2> "$tmp/diff-serve-exact.txt"
grep -q "deterministic counters: identical" "$tmp/diff-serve-exact.txt"

echo "== bidir cross-method smoke: a, bwt and bidir agree bit for bit =="
# A --bidir index carries the reverse-BWT mirror as optional v3 sections;
# scheme-driven bidirectional search over it must reproduce the
# unidirectional hits byte for byte.
"$kmm" index --reference "$tmp/ref.fa" -o "$tmp/ref-bd.idx" --bidir \
    2> "$tmp/index-bd.txt"
grep -q "reverse-index" "$tmp/index-bd.txt"
for m in a bwt bidir; do
    "$kmm" search --index "$tmp/ref-bd.idx" --pattern "$pattern" -k 2 \
        --method "$m" > "$tmp/hits-$m.tsv" 2>/dev/null
done
cmp "$tmp/hits-a.tsv" "$tmp/hits-bwt.tsv"
cmp "$tmp/hits-a.tsv" "$tmp/hits-bidir.tsv"
cmp "$tmp/hits.tsv" "$tmp/hits-bidir.tsv"
# Without --method, explain over a mirrored index adds the Bidir row;
# over the plain index it must not (the mirror is opt-in).
"$kmm" explain --index "$tmp/ref-bd.idx" --pattern "$pattern" -k 2 \
    > "$tmp/explain-bd.txt" 2>/dev/null
grep -q "Bidir" "$tmp/explain-bd.txt"
if grep -q "Bidir" "$tmp/explain.txt"; then
    echo "verify: plain index explain unexpectedly ran Bidir" >&2; exit 1
fi

echo "== bidir bench gate (BENCH_bidir.json) =="
# Two identical sweeps must agree bit-for-bit on every deterministic
# counter, and the fresh run must stay within budget of the committed
# artifact — including the headline rank-block / node-count wins.
target/release/experiments bidir --out-dir "$tmp/bidir-a" > "$tmp/bidirbench.txt"
grep -q "Bidir rank blocks" "$tmp/bidirbench.txt"
target/release/experiments bidir --out-dir "$tmp/bidir-b" > /dev/null
"$kmm" bench diff "$tmp/bidir-a/BENCH_bidir.json" "$tmp/bidir-b/BENCH_bidir.json" \
    --assert-identical 2> "$tmp/diff-bidir-repeat.txt"
grep -q "deterministic counters: identical" "$tmp/diff-bidir-repeat.txt"
"$kmm" bench diff BENCH_bidir.json "$tmp/bidir-a/BENCH_bidir.json" \
    --fail-on-regress 15 2> "$tmp/diff-bidir.txt"
grep -q "PASS" "$tmp/diff-bidir.txt"
"$kmm" bench diff BENCH_bidir.json "$tmp/bidir-a/BENCH_bidir.json" \
    --assert-identical 2> "$tmp/diff-bidir-exact.txt"
grep -q "deterministic counters: identical" "$tmp/diff-bidir-exact.txt"

echo "== bidir planted regression: pigeonhole schemes must trip the gate =="
# KMM_BIDIR_PIGEONHOLE=1 swaps the optimum search schemes for the naive
# pigeonhole partition; the extra tree nodes it visits must blow the
# nodes_visited budget against the committed artifact.
KMM_BIDIR_PIGEONHOLE=1 target/release/experiments bidir \
    --out-dir "$tmp/bidir-pigeon" > /dev/null
if "$kmm" bench diff BENCH_bidir.json "$tmp/bidir-pigeon/BENCH_bidir.json" \
    --fail-on-regress 5 2> "$tmp/diff-pigeon.txt"; then
    echo "verify: pigeonhole scheme regression was not caught" >&2; exit 1
fi
grep -q "REGRESSION" "$tmp/diff-pigeon.txt"
grep "nodes_visited" "$tmp/diff-pigeon.txt" | grep -q "REGRESSION"
grep -q "offending counters:" "$tmp/diff-pigeon.txt"

echo "verify: OK"
