#!/usr/bin/env bash
# 30-second soak of the `ofence serve` daemon: four concurrent clients
# issue a continuous mix of analyze / explain / status requests while an
# editor keeps rewriting corpus files (atomic replace, like a save in an
# IDE). Gates, in order:
#
#   1. zero error responses over the whole soak (`serve_errors` == 0 and
#      every client saw only ok:true),
#   2. request coalescing actually exercised (`serve_coalesced` > 0),
#   3. every soak response carries a non-empty `request_id`,
#   4. `/metrics` publishes a per-method p99 quantile after the soak,
#   5. `/debug/requests` retains at least one captured trace whose span
#      tree is balanced (node count == span_count),
#   6. the traces add up: over every captured `analyze` trace, the median
#      share of the `request` span covered by its child spans (snapshot,
#      coalesce, serve_run, ledger, publish, render, send) is at least 0.95,
#   7. the disk cache survives: a fresh single-shot run over the soaked
#      cache dir reloads the shards instead of discarding them,
#   8. the counters agree once the soak is over (no request in flight):
#      one `/metrics` scrape shows `ofence_serve_requests_total` equal to
#      `ofence_serve_request_duration_us_count`, `/health` `requests`
#      equals the sum of its per-method counts, and the final `status`
#      `serve_requests` matches both.
#
# Environment: OFENCE (binary path), SOAK_SECONDS (default 30).
set -euo pipefail

BIN=${OFENCE:-./target/release/ofence}
DURATION=${SOAK_SECONDS:-30}
WORK=$(mktemp -d)
SERVE=""
cleanup() {
  [ -n "$SERVE" ] && kill "$SERVE" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$BIN" gen --out "$WORK/corpus" --files 20 --seed 17 --bugs

"$BIN" serve "$WORK/corpus" --addr 127.0.0.1:0 --metrics 127.0.0.1:0 \
  --cache-dir "$WORK/cache" --history-dir "$WORK/history" \
  > "$WORK/serve.log" 2>&1 &
SERVE=$!

ADDR=""
for _ in $(seq 50); do
  ADDR=$(sed -n 's|^serve: listening on ||p' "$WORK/serve.log" | head -1)
  [ -n "$ADDR" ] && break
  sleep 0.2
done
test -n "$ADDR" || { echo "daemon never bound" >&2; cat "$WORK/serve.log"; exit 1; }
METRICS_ADDR=$(sed -n 's|^serve: serving /metrics and /health on http://||p' "$WORK/serve.log" | head -1)
test -n "$METRICS_ADDR" || { echo "daemon never bound its metrics endpoint" >&2; cat "$WORK/serve.log"; exit 1; }

python3 - "$ADDR" "$WORK/corpus" "$DURATION" "$METRICS_ADDR" <<'EOF'
import json, os, socket, sys, threading, time
import urllib.request

addr, corpus_dir, duration = sys.argv[1], sys.argv[2], float(sys.argv[3])
metrics_addr = sys.argv[4]
host, port = addr.rsplit(":", 1)
deadline = time.monotonic() + duration
errors = []
missing_request_ids = []

def connect():
    sock = socket.create_connection((host, int(port)), timeout=120)
    return sock, sock.makefile("rwb")

def call(io, request):
    io.write((json.dumps(request) + "\n").encode())
    io.flush()
    line = io.readline()
    assert line, "daemon closed the connection"
    return json.loads(line)

# One warmup analyze to find a real barrier site for the explain mix.
sock, io = connect()
doc = call(io, {"id": "warm", "method": "analyze"})
assert doc["ok"], doc
site = doc["result"]["sites"][0]["site"]
target = {"file": site["file_name"], "line": site["line"]}
sock.close()

def client(n):
    sock, io = connect()
    requests = [
        {"id": 0, "method": "analyze"},
        {"id": 0, "method": "explain", "params": target},
        {"id": 0, "method": "status"},
    ]
    i = 0
    while time.monotonic() < deadline:
        req = dict(requests[(n + i) % len(requests)])
        req["id"] = f"c{n}-{i}"
        resp = call(io, req)
        if not resp.get("ok"):
            errors.append(resp)
        if not resp.get("request_id"):
            missing_request_ids.append(resp)
        i += 1
    sock.close()

def editor():
    files = sorted(
        os.path.join(dirpath, f)
        for dirpath, _, names in os.walk(corpus_dir)
        for f in names if f.endswith(".c")
    )
    i = 0
    while time.monotonic() < deadline:
        path = files[i % len(files)]
        with open(path) as f:
            content = f.read()
        content += f"\nint soak_edit_{i}(void) {{ return {i}; }}\n"
        tmp = path + ".tmp-swap"
        with open(tmp, "w") as f:
            f.write(content)
        os.replace(tmp, path)
        i += 1
        time.sleep(0.3)

threads = [threading.Thread(target=client, args=(n,)) for n in range(4)]
threads.append(threading.Thread(target=editor))
for t in threads:
    t.start()
for t in threads:
    t.join()

def http_get(path):
    with urllib.request.urlopen(f"http://{metrics_addr}{path}", timeout=30) as r:
        return r.read().decode()

def tree_nodes(nodes):
    return sum(1 + tree_nodes(n.get("children", [])) for n in nodes)

# Gate 4: the post-soak scrape publishes a per-method p99.
metrics = http_get("/metrics")
assert 'quantile="0.99"' in metrics and 'method="analyze"' in metrics, (
    "no per-method p99 in /metrics:\n" + metrics
)

def metric(name):
    for line in metrics.splitlines():
        if line.startswith(name + " "):
            return int(line.split()[1])
    raise AssertionError(f"no {name} in /metrics:\n{metrics}")

# Gate 8 (first half): within that one scrape, the request counter and
# the latency histogram count the same requests, and so does /health.
scraped_requests = metric("ofence_serve_requests_total")
histogram_count = metric("ofence_serve_request_duration_us_count")
assert scraped_requests == histogram_count, (
    f"/metrics: {scraped_requests} requests vs {histogram_count} in the histogram"
)
health = json.loads(http_get("/health"))
per_method = sum(m["count"] for m in health["methods"].values())
assert health["requests"] == per_method == scraped_requests, (
    f"/health: {health['requests']} requests vs {per_method} per method "
    f"vs {scraped_requests} scraped"
)

# Gate 5: at least one captured trace reconstructs into a balanced tree.
listing = json.loads(http_get("/debug/requests"))
summaries = listing["recent"] + listing["slowest"]
assert summaries, "no captured traces in /debug/requests"
balanced = 0
coverage = []
for request_id in sorted({s["request_id"] for s in summaries}):
    trace = json.loads(http_get(f"/debug/trace/{request_id}"))
    if tree_nodes(trace["spans"]) == trace["span_count"]:
        balanced += 1
    root = trace["spans"][0] if trace["spans"] else None
    if trace["method"] == "analyze" and root and root["name"] == "request":
        children = sum(c["dur_us"] for c in root["children"])
        coverage.append(children / max(root["dur_us"], 1))
assert balanced >= 1, f"no balanced trace among {len(summaries)} captured"

# Gate 6: the child spans account for (nearly) all of an analyze request.
assert coverage, "no analyze trace captured"
coverage.sort()
median = coverage[len(coverage) // 2]
assert median >= 0.95, (
    f"analyze traces explain only {median:.3f} of a request (median of "
    f"{len(coverage)}; lowest {coverage[0]:.3f})"
)

sock, io = connect()
status = call(io, {"id": "final", "method": "status"})["result"]
counters = status["counters"]
call(io, {"id": "bye", "method": "shutdown"})
sock.close()

assert not errors, f"{len(errors)} error responses, first: {errors[0]}"
assert counters["serve_errors"] == 0, counters
assert counters["serve_coalesced"] > 0, f"soak never coalesced: {counters}"
assert counters["serve_runs"] > 0, counters
# Gate 8 (second half): `status` counts what the scrape counted.
assert counters["serve_requests"] == scraped_requests, (
    f"status: {counters['serve_requests']} requests vs {scraped_requests} scraped"
)
# Gate 3: request ids everywhere.
assert not missing_request_ids, (
    f"{len(missing_request_ids)} responses without a request_id, "
    f"first: {missing_request_ids[0]}"
)
print(
    f"soak OK: {counters['serve_requests']} requests, "
    f"{counters['serve_runs']} runs, "
    f"{counters['serve_coalesced']} coalesced, 0 errors, "
    f"{balanced} balanced traces, analyze trace coverage median {median:.3f}, "
    f"counters agree ({scraped_requests} requests)"
)
EOF

wait "$SERVE"
SERVE=""

# Gate 7: the soaked cache dir must reload cleanly. `cache_discarded` is
# only emitted when shards fail validation, so its absence is the pass.
"$BIN" analyze "$WORK/corpus" --cache-dir "$WORK/cache" --no-history \
  --fail-on none --metrics-out "$WORK/verify-metrics.txt" > /dev/null
if grep -q "ofence_cache_discarded_total" "$WORK/verify-metrics.txt"; then
  echo "cache shards were discarded after the soak" >&2
  exit 1
fi
grep -q "ofence_cache_loads_total" "$WORK/verify-metrics.txt"
echo "serve soak gate OK"
