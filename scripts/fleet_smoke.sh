#!/bin/sh
# fleet_smoke.sh — end-to-end smoke test of faccd fleet mode.
#
# Stands up a 3-replica fleet (static peer table, consistent-hash
# routing, health probes), compiles a real MiniC FFT through it, then
# kill -9's the replica that owns the digest while a second compile is
# in flight. The survivors must eject the dead peer from the ring within
# the probe budget, finish the in-flight request via failover, and serve
# byte-identical adapter bytes for the original digest from the new
# owner — the fleet's "never a wrong adapter" contract, observed from
# outside the process like an operator would.
#
# Needs only POSIX sh + curl + jq + the Go toolchain. Run from the repo root:
#     ./scripts/fleet_smoke.sh
set -eu

TMP=$(mktemp -d)
PID0="" PID1="" PID2=""
cleanup() {
    for p in "$PID0" "$PID1" "$PID2"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "fleet-smoke: building faccd"
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
SRC=$(sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$TMP/smoke.c" | awk '{printf "%s\\n", $0}')
printf '{"name":"smoke.c","source":"%s","target":"ffta","entry":"fft","profile":{"n":[64,128]},"tests":3}' \
    "$SRC" > "$TMP/req.json"
# A second digest (different test count) for the mid-kill in-flight compile.
sed 's/"tests":3/"tests":4/' "$TMP/req.json" > "$TMP/req2.json"

# The peer table must be known before any replica starts, so ports are
# picked up front; on a bind collision the whole fleet restarts on the
# next port block.
start_replica() { # start_replica <idx> <port>
    rm -f "$TMP/addr$1"
    "$TMP/faccd" -addr "127.0.0.1:$2" -addr-file "$TMP/addr$1" \
        -store "$TMP/store$1" -queue 8 -drain-timeout 30s \
        -peer-id "r$1" -peers "$PEERS" \
        -probe-interval 100ms -failure-threshold 2 \
        2>>"$TMP/faccd$1.log" &
    eval "PID$1=$!"
}

start_fleet() {
    try=0
    while :; do
        try=$((try + 1))
        if [ "$try" -gt 5 ]; then
            echo "fleet-smoke: could not bind a port block"; exit 1
        fi
        BASE=$((20000 + ($$ + try * 100) % 30000))
        P0=$BASE; P1=$((BASE + 1)); P2=$((BASE + 2))
        PEERS="r0=http://127.0.0.1:$P0,r1=http://127.0.0.1:$P1,r2=http://127.0.0.1:$P2"
        start_replica 0 "$P0"; start_replica 1 "$P1"; start_replica 2 "$P2"
        ok=1
        for i in 0 1 2; do
            j=0
            while [ ! -s "$TMP/addr$i" ]; do
                j=$((j + 1))
                if [ "$j" -gt 100 ]; then ok=0; break; fi
                # Bail early if the process already died (port in use).
                eval "p=\$PID$i"
                kill -0 "$p" 2>/dev/null || { ok=0; break; }
                sleep 0.1
            done
            [ "$ok" = 1 ] || break
        done
        [ "$ok" = 1 ] && break
        echo "fleet-smoke: port block $BASE busy, retrying"
        for p in "$PID0" "$PID1" "$PID2"; do
            [ -n "$p" ] && kill "$p" 2>/dev/null || true
        done
        PID0="" PID1="" PID2=""
        sleep 0.2
    done
    URL0="http://127.0.0.1:$P0"; URL1="http://127.0.0.1:$P1"; URL2="http://127.0.0.1:$P2"
}

url_of() { eval "echo \$URL$(echo "$1" | tr -d r)"; }
pid_of() { eval "echo \$PID$(echo "$1" | tr -d r)"; }

echo "fleet-smoke: starting a 3-replica fleet"
start_fleet
for i in 0 1 2; do
    eval "u=\$URL$i"
    curl -fsS "$u/healthz" > /dev/null
    curl -fsS "$u/readyz" > /dev/null
done

echo "fleet-smoke: compiling through the fleet"
curl -fsS -D "$TMP/h1" -o "$TMP/r1" -X POST -H 'Content-Type: application/json' \
    --data-binary @"$TMP/req.json" "$URL0/compile?wait=1"
grep -q '"state":"done"' "$TMP/r1" || { echo "fleet-smoke: compile not done:"; cat "$TMP/r1"; exit 1; }
jq -er .adapter_c "$TMP/r1" > "$TMP/adapter1" && [ -s "$TMP/adapter1" ] \
    || { echo "fleet-smoke: no adapter in response"; cat "$TMP/r1"; exit 1; }
DIGEST=$(sed -n 's/.*"key":"\([^"]*\)".*/\1/p' "$TMP/r1")
[ -n "$DIGEST" ] || { echo "fleet-smoke: no digest in response"; exit 1; }

OWNER=$(curl -fsS "$URL0/fleet/owners?key=$DIGEST" | tr -d ' \n' \
    | sed -n 's/.*"owners":\["\([^"]*\)".*/\1/p')
[ -n "$OWNER" ] || { echo "fleet-smoke: could not resolve the digest's owner"; exit 1; }
SURVIVOR=""
for r in r0 r1 r2; do
    [ "$r" = "$OWNER" ] || { SURVIVOR=$r; break; }
done
SURL=$(url_of "$SURVIVOR")
echo "fleet-smoke: digest owned by $OWNER; killing it (kill -9) with a compile in flight"

# Fire a second, uncached compile at a survivor, then SIGKILL the owner
# while it is being routed/compiled: the fleet must finish it anyway.
curl -fsS -o "$TMP/r2" -X POST -H 'Content-Type: application/json' \
    --data-binary @"$TMP/req2.json" "$SURL/compile?wait=1" &
CURL2=$!
sleep 0.2
OPID=$(pid_of "$OWNER")
kill -9 "$OPID"
eval "PID$(echo "$OWNER" | tr -d r)=''"
wait "$CURL2" || { echo "fleet-smoke: in-flight compile failed after the kill"; cat "$TMP/faccd"*.log; exit 1; }
grep -q '"state":"done"' "$TMP/r2" || { echo "fleet-smoke: in-flight compile not done:"; cat "$TMP/r2"; exit 1; }

echo "fleet-smoke: waiting for the survivors to eject $OWNER from the ring"
i=0
while :; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "fleet-smoke: $OWNER never ejected"; curl -fsS "$SURL/fleet/peers" || true; exit 1
    fi
    if curl -fsS "$SURL/fleet/peers" | tr -d ' \n' \
        | grep -Eq "\"id\":\"$OWNER\"[^}]*\"healthy\":false"; then
        break
    fi
    sleep 0.1
done

echo "fleet-smoke: recompiling the dead owner's digest via a survivor"
curl -fsS -D "$TMP/h3" -o "$TMP/r3" -X POST -H 'Content-Type: application/json' \
    --data-binary @"$TMP/req.json" "$SURL/compile?wait=1"
grep -q '"state":"done"' "$TMP/r3" || { echo "fleet-smoke: post-kill compile not done:"; cat "$TMP/r3"; exit 1; }
jq -er .adapter_c "$TMP/r3" > "$TMP/adapter3"
cmp -s "$TMP/adapter1" "$TMP/adapter3" \
    || { echo "fleet-smoke: adapter diverged after failover"; exit 1; }

NEWOWNER=$(curl -fsS "$SURL/fleet/owners?key=$DIGEST" | tr -d ' \n' \
    | sed -n 's/.*"owners":\["\([^"]*\)".*/\1/p')
[ "$NEWOWNER" != "$OWNER" ] || { echo "fleet-smoke: ring still routes to the dead owner"; exit 1; }
echo "fleet-smoke: ownership moved $OWNER -> $NEWOWNER, adapter byte-identical"

echo "fleet-smoke: draining the survivors"
for r in r0 r1 r2; do
    [ "$r" = "$OWNER" ] && continue
    p=$(pid_of "$r")
    kill -TERM "$p"
done
for r in r0 r1 r2; do
    [ "$r" = "$OWNER" ] && continue
    p=$(pid_of "$r")
    wait "$p" || { echo "fleet-smoke: $r drain was not clean"; cat "$TMP/faccd$(echo "$r" | tr -d r).log"; exit 1; }
    eval "PID$(echo "$r" | tr -d r)=''"
done
echo "fleet-smoke: OK"
