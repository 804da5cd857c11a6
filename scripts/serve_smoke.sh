#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the faccd compile service.
#
# Exercises the daemon the way an operator sees it: build, start, compile
# a real MiniC FFT over HTTP, SIGTERM while a request is in flight (the
# drain must finish it), tear the cached adapter on disk like a crash
# mid-write, restart, and require that the store quarantines the damage,
# recompiles, serves a byte-identical adapter, and caches it again; then
# join one trace ID across every export, and check that after 100 more
# fresh compiles /journal holds no more requests than the flight
# recorder keeps.
#
# Needs only POSIX sh + curl + jq + the Go toolchain. Run from the repo root:
#     ./scripts/serve_smoke.sh
set -eu

TMP=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building faccd"
go build -o "$TMP/faccd" ./cmd/faccd

cat > "$TMP/smoke.c" <<'EOF'
#include <math.h>
typedef struct { double re; double im; } cpx;
void fft(cpx* x, int n) {
    int j = 0;
    for (int i = 1; i < n; i++) {
        int bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j |= bit;
        if (i < j) {
            cpx tmp = x[i];
            x[i] = x[j];
            x[j] = tmp;
        }
    }
    for (int len = 2; len <= n; len <<= 1) {
        double ang = -2.0 * M_PI / (double)len;
        for (int i = 0; i < n; i += len) {
            for (int k = 0; k < len / 2; k++) {
                double wre = cos(ang * (double)k);
                double wim = sin(ang * (double)k);
                cpx u = x[i + k];
                cpx v;
                v.re = x[i + k + len / 2].re * wre - x[i + k + len / 2].im * wim;
                v.im = x[i + k + len / 2].re * wim + x[i + k + len / 2].im * wre;
                x[i + k].re = u.re + v.re;
                x[i + k].im = u.im + v.im;
                x[i + k + len / 2].re = u.re - v.re;
                x[i + k + len / 2].im = u.im - v.im;
            }
        }
    }
}
EOF
# JSON-encode the source (escape backslashes/quotes, join lines with \n).
SRC=$(sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$TMP/smoke.c" | awk '{printf "%s\\n", $0}')
printf '{"name":"smoke.c","source":"%s","target":"ffta","entry":"fft","profile":{"n":[64,128]},"tests":3}' \
    "$SRC" > "$TMP/req.json"

start_daemon() {
    rm -f "$TMP/addr"
    "$TMP/faccd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
        -store "$TMP/store" -queue 8 -drain-timeout 30s 2>>"$TMP/faccd.log" &
    PID=$!
    i=0
    while [ ! -s "$TMP/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: faccd did not start"; cat "$TMP/faccd.log"; exit 1
        fi
        sleep 0.1
    done
    ADDR=$(cat "$TMP/addr")
}

compile() { # compile <headers-out> <body-out>
    curl -fsS -D "$1" -o "$2" -X POST -H 'Content-Type: application/json' \
        --data-binary @"$TMP/req.json" "http://$ADDR/compile?wait=1"
}

adapter_of() { # the decoded adapter_c text is the byte-identity witness
    jq -er .adapter_c "$1" > "$2" && [ -s "$2" ] || {
        echo "serve-smoke: no adapter in response:"; cat "$1"; exit 1; }
}

echo "serve-smoke: starting faccd"
start_daemon
curl -fsS "http://$ADDR/healthz" > /dev/null
curl -fsS "http://$ADDR/readyz" > /dev/null

echo "serve-smoke: compiling over HTTP, SIGTERM mid-flight"
compile "$TMP/h1" "$TMP/r1" &
CURL=$!
sleep 0.2
kill -TERM "$PID"
wait "$CURL" || { echo "serve-smoke: in-flight request failed during drain"; cat "$TMP/faccd.log"; exit 1; }
wait "$PID" || { echo "serve-smoke: drain was not clean"; cat "$TMP/faccd.log"; exit 1; }
grep -q '"state":"done"' "$TMP/r1" || { echo "serve-smoke: compile not done:"; cat "$TMP/r1"; exit 1; }
adapter_of "$TMP/r1" "$TMP/adapter1"
grep -q 'drained cleanly' "$TMP/faccd.log" || { echo "serve-smoke: no clean-drain message"; cat "$TMP/faccd.log"; exit 1; }

echo "serve-smoke: tearing the cached adapter (simulated crash mid-write)"
LOG="$TMP/store/store.log"
[ -s "$LOG" ] || { echo "serve-smoke: no store log"; exit 1; }
# Flip bytes inside the frame holding the entry's record so its checksums
# fail. The entry record keeps the adapter source unescaped, so one of
# its lines locates it; the last occurrence is the live frame — earlier
# ones may be superseded.
OFF=$(grep -abo -F 'accel_cfft(__acc_in, __acc_out, __len);' "$LOG" | tail -n 1 | cut -d: -f1)
[ -n "$OFF" ] || { echo "serve-smoke: entry bytes not found in store.log"; exit 1; }
printf '\377\377\377\377\377\377\377\377' | dd of="$LOG" bs=1 seek="$OFF" conv=notrunc 2>/dev/null
# And tear the log's tail: an append whose durability fsync never completed.
printf '\377\377\377\177 torn mid-append' >> "$LOG"

echo "serve-smoke: restarting; the store must recover"
start_daemon
compile "$TMP/h2" "$TMP/r2"
if grep -qi 'x-facc-cache: hit' "$TMP/h2"; then
    echo "serve-smoke: torn entry served from cache"; exit 1
fi
adapter_of "$TMP/r2" "$TMP/adapter2"
cmp -s "$TMP/adapter1" "$TMP/adapter2" || { echo "serve-smoke: recompiled adapter differs"; exit 1; }
[ -n "$(ls -A "$TMP/store/quarantine" 2>/dev/null)" ] || { echo "serve-smoke: torn object not quarantined"; exit 1; }

echo "serve-smoke: healed entry must serve byte-identical from cache"
compile "$TMP/h3" "$TMP/r3"
grep -qi 'x-facc-cache: hit' "$TMP/h3" || { echo "serve-smoke: healed entry not cached"; exit 1; }
adapter_of "$TMP/r3" "$TMP/adapter3"
cmp -s "$TMP/adapter1" "$TMP/adapter3" || { echo "serve-smoke: cached adapter differs"; exit 1; }

echo "serve-smoke: one trace ID must join the header, the event export and /debug/requests"
TRACE=cafef00dcafef00dcafef00dcafef00d
# A different test count changes the request digest, forcing a fresh
# compile (cache hits never run the pipeline, so they leave no events
# to join).
sed 's/"tests":3/"tests":4/' "$TMP/req.json" > "$TMP/req_trace.json"
curl -fsS -D "$TMP/h4" -o "$TMP/r4" -X POST -H 'Content-Type: application/json' \
    -H "X-Facc-Trace: $TRACE" --data-binary @"$TMP/req_trace.json" \
    "http://$ADDR/compile?wait=1"
grep -qi "x-facc-trace: $TRACE" "$TMP/h4" || { echo "serve-smoke: trace ID not echoed in the response header"; cat "$TMP/h4"; exit 1; }
grep -q "\"trace\":\"$TRACE\"" "$TMP/r4" || { echo "serve-smoke: trace ID not in the job JSON"; cat "$TMP/r4"; exit 1; }
curl -fsS "http://$ADDR/journal" > "$TMP/journal.jsonl"
grep -q "$TRACE" "$TMP/journal.jsonl" || { echo "serve-smoke: trace ID not in the event export"; exit 1; }
curl -fsS "http://$ADDR/debug/requests" > "$TMP/flight.json"
grep -q "$TRACE" "$TMP/flight.json" || { echo "serve-smoke: trace ID not in /debug/requests"; cat "$TMP/flight.json"; exit 1; }
# The record's events carry the trace; an event's "kind" follows its
# "trace" in the indented JSON.
grep -A1 "\"trace\": \"$TRACE\"" "$TMP/flight.json" | grep -q '"kind": "fuzz"' \
    || { echo "serve-smoke: no fuzz event under the trace in /debug/requests"; cat "$TMP/flight.json"; exit 1; }
curl -fsS "http://$ADDR/metrics" > "$TMP/metrics.txt"
grep -q "facc_ledger_tests_total" "$TMP/metrics.txt" \
    || { echo "serve-smoke: /metrics missing the cost ledger exposition"; exit 1; }
grep -q "facc_search_candidates_total" "$TMP/metrics.txt" \
    || { echo "serve-smoke: /metrics missing the search funnel exposition"; exit 1; }

echo "serve-smoke: what a warm daemon keeps is bounded by its flight recorder"
# 100 fresh digests (tolerance salts, as serve-mixed makes them), each
# under a trace ID faccd mints. A finished request releases its spans and
# events unless the flight recorder keeps it, and at the default
# -flight-recorder 32 its two classes keep at most 64 requests.
i=1
while [ "$i" -le 100 ]; do
    sed "s/\"tests\":3}/\"tests\":3,\"tolerance\":0.002000000$(printf %03d "$i")}/" \
        "$TMP/req.json" > "$TMP/req_salt.json"
    curl -fsS -o "$TMP/r_salt" -X POST -H 'Content-Type: application/json' \
        --data-binary @"$TMP/req_salt.json" "http://$ADDR/compile?wait=1"
    grep -q '"state":"done"' "$TMP/r_salt" || { echo "serve-smoke: salted compile $i not done:"; cat "$TMP/r_salt"; exit 1; }
    i=$((i + 1))
done
curl -fsS "http://$ADDR/journal" > "$TMP/journal_after.jsonl"
TRACES=$(grep -o '"trace":"[^"]*"' "$TMP/journal_after.jsonl" | sort -u | wc -l)
[ "$TRACES" -le 64 ] || { echo "serve-smoke: /journal lists $TRACES trace IDs after 100 fresh compiles, want at most 64"; exit 1; }

kill -TERM "$PID"
wait "$PID" || { echo "serve-smoke: final drain was not clean"; cat "$TMP/faccd.log"; exit 1; }
PID=""
echo "serve-smoke: OK"
