#!/usr/bin/env bash
# Keyword-ranking + multi-tenancy smoke test: build release, generate a
# graph, and assert the keyword and tenant surface end to end:
#
#   1. `subrank keyword` (offline CLI) answers byte-identical bodies to
#      `POST /keyword` on a live server — for both an explicit --base
#      set and a --keyword resolved against generated labels.
#   2. A 2-shard server answers shard-resident /keyword byte-identically
#      to the single-shard deployment (routing stays invisible).
#   3. A concurrent burst of distinct-base /keyword queries over one
#      membership is fully accounted by the batch_* counters (every
#      burst request is counted in batch_keyword_columns_total, and no
#      more collapses are built than requests answered), and every burst
#      answer is byte-identical to the singleton CLI answer. Whether the
#      burst overlaps enough to share a collapse is a matter of timing;
#      the engine's unit tests prove the sharing deterministically.
#   4. Tenant admission: with --tenant-quota 1 --tenant-queue 0, a
#      barrage of simultaneous same-tenant requests sheds with 429 +
#      Retry-After; loadgen --tenants accounts sheds apart from errors
#      and an in-quota tenant finishes with zero sheds and zero errors.
#   5. /metrics exposes the batch_* and per-tenant tenant_* telemetry.
#   6. SIGINT still drains cleanly and no server logs a panic.
#
# Exits nonzero on any body mismatch, bad status, or missing metric.
set -euo pipefail

PORT_A="${BATCH_SMOKE_PORT_A:-7894}"
PORT_B="${BATCH_SMOKE_PORT_B:-7895}"
PORT_C="${BATCH_SMOKE_PORT_C:-7896}"
ADDR_A="127.0.0.1:${PORT_A}"
ADDR_B="127.0.0.1:${PORT_B}"
ADDR_C="127.0.0.1:${PORT_C}"
WORKDIR="$(mktemp -d)"
trap 'kill -9 "${PID_A:-}" "${PID_B:-}" "${PID_C:-}" 2>/dev/null || true; rm -rf "${WORKDIR}"' EXIT

say() { printf '== %s\n' "$*"; }

boot() { # boot <name> <addr> <extra flags...>
  local name="$1" addr="$2"
  shift 2
  "${SUBRANK}" serve --graph "${WORKDIR}/web.edges" --addr "${addr}" --threads 4 "$@" \
    >"${WORKDIR}/serve.${name}.out" 2>"${WORKDIR}/serve.${name}.err" &
  local pid=$!
  for _ in $(seq 1 100); do
    if curl -sf "http://${addr}/healthz" >/dev/null 2>&1; then
      echo "${pid}"
      return 0
    fi
    if ! kill -0 "${pid}" 2>/dev/null; then
      echo "server ${name} died during startup" >&2
      cat "${WORKDIR}/serve.${name}.err" >&2
      exit 1
    fi
    sleep 0.1
  done
  curl -sf "http://${addr}/healthz" >/dev/null
  echo "${pid}"
}

say "building release binaries"
cargo build --release -p approxrank-cli -p approxrank-bench

SUBRANK=target/release/subrank
LOADGEN=target/release/loadgen

say "generating a graph"
"${SUBRANK}" gen --dataset au --pages 20000 --out "${WORKDIR}/web.edges" >/dev/null

# Shard-0-resident membership (range partitioning: shard 0 owns 0..10000).
seq 100 131 >"${WORKDIR}/members.txt"

say "booting single-shard, 2-shard, and quota'd servers"
PID_A="$(boot single "${ADDR_A}")"
PID_B="$(boot sharded "${ADDR_B}" --shards 2)"
PID_C="$(boot quota "${ADDR_C}" --tenant-quota 1 --tenant-queue 0)"

say "CLI 'subrank keyword' is byte-identical to served POST /keyword"
# The CLI serializes damping/tolerance as 8.5e-1 / 1e-5; the literals
# below parse to the same f64s, so the solves share one cache key shape.
BASE_BODY='{"members":[100,101,102,103,104,105,106,107,108,109,110,111,112,113,114,115,116,117,118,119,120,121,122,123,124,125,126,127,128,129,130,131],"base":[4242],"damping":0.85,"tolerance":1e-5,"top":0}'
KW_BODY='{"members":[100,101,102,103,104,105,106,107,108,109,110,111,112,113,114,115,116,117,118,119,120,121,122,123,124,125,126,127,128,129,130,131],"keyword":"page-77","damping":0.85,"tolerance":1e-5,"top":0}'
"${SUBRANK}" keyword --graph "${WORKDIR}/web.edges" --subgraph "${WORKDIR}/members.txt" \
  --base 4242 >"${WORKDIR}/cli.base.json"
"${SUBRANK}" keyword --graph "${WORKDIR}/web.edges" --subgraph "${WORKDIR}/members.txt" \
  --keyword page-77 >"${WORKDIR}/cli.kw.json"
for pair in "base ${ADDR_A}" "kw ${ADDR_A}" "base ${ADDR_B}" "kw ${ADDR_B}"; do
  read -r which addr <<<"${pair}"
  body_var="BASE_BODY"; [ "${which}" = "kw" ] && body_var="KW_BODY"
  curl -sf -X POST "http://${addr}/keyword" -d "${!body_var}" >"${WORKDIR}/http.json"
  printf '\n' >>"${WORKDIR}/http.json"
  cmp "${WORKDIR}/cli.${which}.json" "${WORKDIR}/http.json" \
    || { echo "CLI/${which} body differs from served answer at ${addr}" >&2; exit 1; }
done
grep -q '"base_pages":1' "${WORKDIR}/cli.base.json"
grep -q '"keyword":"page-77"' "${WORKDIR}/cli.kw.json"
grep -q '"shards":1' "${WORKDIR}/cli.kw.json"

say "concurrent distinct-base burst is accounted by the batch_* counters"
curl -sf "http://${ADDR_B}/metrics" >"${WORKDIR}/metrics.b.before.txt"
python3 - "${ADDR_B}" "${WORKDIR}" <<'PY'
import json, sys, threading, urllib.request

addr, workdir = sys.argv[1], sys.argv[2]
members = list(range(100, 132))
bursts = 10
barrier = threading.Barrier(bursts)
failures = []

def fire(i):
    body = json.dumps({"members": members, "base": [7000 + 7 * i],
                       "damping": 0.85, "tolerance": 1e-5, "top": 0})
    barrier.wait()
    try:
        with urllib.request.urlopen(
                urllib.request.Request(f"http://{addr}/keyword",
                                       data=body.encode(), method="POST"),
                timeout=30) as r:
            assert r.status == 200, r.status
            open(f"{workdir}/burst.{i}.json", "wb").write(r.read())
    except Exception as e:  # noqa: BLE001 — report, don't hang the join
        failures.append(f"burst {i}: {e}")

threads = [threading.Thread(target=fire, args=(i,)) for i in range(bursts)]
for t in threads: t.start()
for t in threads: t.join()
assert not failures, failures
PY
curl -sf "http://${ADDR_B}/metrics" >"${WORKDIR}/metrics.b.txt"
python3 - "${WORKDIR}/metrics.b.before.txt" "${WORKDIR}/metrics.b.txt" <<'PY'
import sys

def metrics(path):
    m = {}
    for line in open(path):
        parts = line.split()
        if len(parts) == 2:
            try: m[parts[0]] = float(parts[1])
            except ValueError: pass
    return m

before, after = metrics(sys.argv[1]), metrics(sys.argv[2])
solves, columns = (after[k] - before[k] for k in
                   ("batch_keyword_solves_total", "batch_keyword_columns_total"))
assert columns == 10, f"burst of 10 counted {columns} keyword answers"
assert 1 <= solves <= columns, f"{solves} collapses built for {columns} answers"
PY

say "burst answers are byte-identical to singleton CLI answers"
for i in 0 4 9; do
  printf '\n' >>"${WORKDIR}/burst.${i}.json"
  "${SUBRANK}" keyword --graph "${WORKDIR}/web.edges" --subgraph "${WORKDIR}/members.txt" \
    --base "$((7000 + 7 * i))" >"${WORKDIR}/cli.burst.${i}.json"
  cmp "${WORKDIR}/cli.burst.${i}.json" "${WORKDIR}/burst.${i}.json" \
    || { echo "burst answer ${i} differs from singleton CLI" >&2; exit 1; }
done

say "same-tenant barrage sheds with 429 + Retry-After"
python3 - "${ADDR_C}" <<'PY'
import json, sys, threading, urllib.error, urllib.request

addr = sys.argv[1]
n = 8
barrier = threading.Barrier(n)
results, failures = [], []

def fire(i):
    # Distinct cold memberships, large and tightly toleranced so every
    # admitted request solves for tens of milliseconds (holding its
    # in-flight slot) — the stragglers must arrive while it runs.
    body = json.dumps({"members": list(range(1000 * i, 1000 * i + 3000)),
                       "tolerance": 1e-12})
    req = urllib.request.Request(f"http://{addr}/rank", data=body.encode(),
                                 method="POST", headers={"X-Tenant": "hog"})
    barrier.wait()
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            results.append((r.status, None))
    except urllib.error.HTTPError as e:
        results.append((e.code, e.headers.get("Retry-After")))
    except Exception as e:  # noqa: BLE001
        failures.append(f"request {i}: {e}")

threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
for t in threads: t.start()
for t in threads: t.join()
assert not failures, failures
sheds = [r for r in results if r[0] == 429]
oks = [r for r in results if r[0] == 200]
assert oks, results
assert sheds, f"quota 1 / queue 0 never shed across {n} simultaneous requests"
for status, retry_after in sheds:
    assert retry_after is not None and int(retry_after) >= 1, \
        f"429 without a usable Retry-After: {retry_after!r}"
PY

say "tenant_* metrics are exposed per tenant"
curl -sf "http://${ADDR_C}/metrics" >"${WORKDIR}/metrics.c.txt"
grep -q '^tenant_requests_total{tenant="hog"} ' "${WORKDIR}/metrics.c.txt"
grep -Eq '^tenant_shed_total\{tenant="hog"\} [1-9]' "${WORKDIR}/metrics.c.txt"
grep -q '^tenant_in_flight{tenant="hog"} ' "${WORKDIR}/metrics.c.txt"
grep -q '^tenant_queue_depth{tenant="hog"} ' "${WORKDIR}/metrics.c.txt"
grep -q '^batch_keyword_occupancy ' "${WORKDIR}/metrics.b.txt"

say "loadgen --tenants: sheds are accounted apart from errors"
# Round-robin stream→tenant: with 3 clients over 2 tenants, tenant-0
# carries two concurrent streams (sheds against quota 1), tenant-1 one
# sequential stream (can never exceed the quota → zero sheds).
"${LOADGEN}" --addr "${ADDR_C}" --clients 3 --requests 40 --keys 64 \
  --tenants 2 | tee "${WORKDIR}/loadgen.tenants.out"
grep -Eq 'requests +[0-9]+ ok, [0-9]+ shed, 0 errors' "${WORKDIR}/loadgen.tenants.out"
grep -Eq 'tenant +tenant-0 +[0-9]+ ok +[0-9]+ shed +0 errors' "${WORKDIR}/loadgen.tenants.out"
grep -Eq 'tenant +tenant-1 +[0-9]+ ok +0 shed +0 errors' "${WORKDIR}/loadgen.tenants.out"

say "loadgen --keyword-rate: split per-endpoint percentiles, zero errors"
"${LOADGEN}" --addr "${ADDR_A}" --clients 4 --requests 40 --keys 16 \
  --keyword-rate 0.25 | tee "${WORKDIR}/loadgen.kw.out"
grep -Eq 'requests +[0-9]+ ok, 0 errors' "${WORKDIR}/loadgen.kw.out"
grep -Eq '^rank ' "${WORKDIR}/loadgen.kw.out"
grep -Eq '^keyword ' "${WORKDIR}/loadgen.kw.out"

say "SIGINT drains gracefully"
for pid in "${PID_A}" "${PID_B}" "${PID_C}"; do
  kill -INT "${pid}"
done
# The servers were spawned inside boot()'s command substitution, so
# they are not children of this shell: confirm exit via kill -0 and the
# drain summary each one prints on the way out, not via `wait`.
for pid in "${PID_A}" "${PID_B}" "${PID_C}"; do
  for _ in $(seq 1 100); do
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "${pid}" 2>/dev/null; then
    echo "server ${pid} did not exit within 10s of SIGINT" >&2
    exit 1
  fi
done
for name in single sharded quota; do
  grep -q 'served .* requests' "${WORKDIR}/serve.${name}.out" \
    || { echo "server ${name} exited without its drain summary" >&2; exit 1; }
done

say "no panics in any server log"
! grep -i 'panic' "${WORKDIR}"/serve.*.err

say "batch smoke OK"
