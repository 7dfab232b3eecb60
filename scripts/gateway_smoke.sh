#!/usr/bin/env bash
# gateway_smoke.sh — end-to-end smoke of the distributed serve tier as real
# processes: train a tiny generalist once, start an itask-gateway with NO
# static backend list, have two itask-serve shards join it via lease-based
# announce, and verify over plain HTTP that
#
#   1. the fleet assembles from announces alone (no -backends),
#   2. detection answers arrive with shard attribution (X-Itask-Shard),
#   3. the same content always routes to the same shard,
#   4. distinct content engages both shards,
#   5. after a fleet-wide model reload, SIGKILLing a shard mid-traffic loses
#      no requests: failover absorbs the deaths until the lease expires the
#      member off the ring,
#   6. the restarted shard, loaded from the same models, rejoins on the ring
#      (weight > 0, not lagging) with no further reload and serves again,
#   7. SIGTERM deregisters gracefully (graceful_leaves, not an expiry).
#
# The in-process cluster tests (internal/gateway, cmd/itask-gateway) cover
# the hard properties — partitions via the chaos NetProxy, the epoch rule,
# retry budgets; this script proves the binaries compose over a real
# network surface.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "gateway-smoke: $*"; }

say "building binaries"
go build -o "$workdir/itask-train" ./cmd/itask-train
go build -o "$workdir/itask-serve" ./cmd/itask-serve
go build -o "$workdir/itask-gateway" ./cmd/itask-gateway

say "training a tiny generalist checkpoint"
"$workdir/itask-train" -out "$workdir/models" -samples 8 -epochs 2 -seed 1 >"$workdir/train.log" 2>&1

GW=http://127.0.0.1:18080

wait_healthy() { # url name
    for _ in $(seq 1 100); do
        if curl -sf -o /dev/null "$1"; then
            return 0
        fi
        sleep 0.2
    done
    say "FAIL: $2 never became healthy at $1"
    cat "$workdir"/*.log || true
    exit 1
}

metric() { # name — top-level integer field from the gateway snapshot (0 if absent)
    # The snapshot is one JSON line and per-tenant/node rows repeat field
    # names, so split on commas and take the FIRST occurrence (top-level
    # counters precede the nodes and per_tenant arrays).
    local v
    v=$(curl -sf "$GW/metricsz" | tr ',' '\n' | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" | sed -n 1p)
    echo "${v:-0}"
}

wait_available() { # n what
    for _ in $(seq 1 100); do
        avail=$(curl -s "$GW/healthz" | sed -n 's/.*"available":\([0-9]*\).*/\1/p')
        if [ "${avail:-0}" = "$1" ]; then
            return 0
        fi
        sleep 0.2
    done
    say "FAIL: fleet never reached available=$1 ($2); last healthz: $(curl -s "$GW/healthz")"
    cat "$workdir"/*.log || true
    exit 1
}

wait_ramped() { # the ring's shares move until every slow-start ramp is done
    for _ in $(seq 1 100); do
        curl -sf "$GW/metricsz" | grep -q '"state":"warming"' || return 0
        sleep 0.2
    done
    say "FAIL: a member never finished warming; last metricsz: $(curl -s "$GW/metricsz")"
    exit 1
}

start_shard() { # port logname
    "$workdir/itask-serve" -addr "127.0.0.1:$1" -models "$workdir/models" \
        -announce "$GW" >"$workdir/$2.log" 2>&1 &
    echo $!
}

say "starting itask-gateway with no static backends (announce-only fleet)"
"$workdir/itask-gateway" -addr 127.0.0.1:18080 \
    -lease-ttl 2s -probe-interval 250ms \
    -retry-backoff 5ms -retry-backoff-max 250ms >"$workdir/gateway.log" 2>&1 &
pids+=($!)
wait_healthy "$GW/metricsz" gateway

say "starting two itask-serve shards announcing to the gateway"
shard1_pid=$(start_shard 18081 serve1)
pids+=("$shard1_pid")
shard2_pid=$(start_shard 18082 serve2)
pids+=("$shard2_pid")
wait_available 2 "initial announce"
wait_ramped # heartbeats are a third of the 2 s lease: the 4-window ramp takes about 2 s
say "fleet assembled from announces: available=2"

say "driving detections through the gateway"
declare -A shard_of
distinct_shards=()
for seed in $(seq 0 23); do
    body="{\"task\":\"patrol\",\"scene\":{\"domain\":\"driving\",\"seed\":$seed}}"
    headers="$workdir/headers.$seed"
    status=$(curl -s -D "$headers" -o "$workdir/resp.$seed" -w '%{http_code}' \
        -X POST "$GW/v1/detect" -d "$body")
    if [ "$status" != 200 ]; then
        say "FAIL: seed $seed got HTTP $status"
        cat "$workdir/resp.$seed"
        exit 1
    fi
    shard=$(tr -d '\r' <"$headers" | awk -F': ' 'tolower($1)=="x-itask-shard"{print $2}')
    if [ -z "$shard" ]; then
        say "FAIL: seed $seed response carries no X-Itask-Shard attribution"
        exit 1
    fi
    grep -q '"detections"' "$workdir/resp.$seed" || {
        say "FAIL: seed $seed body is not a detect response"
        cat "$workdir/resp.$seed"
        exit 1
    }
    shard_of[$seed]="$shard"
    if [[ ! " ${distinct_shards[*]:-} " == *" $shard "* ]]; then
        distinct_shards+=("$shard")
    fi
done

say "checking routing stability (same content, same shard)"
for seed in 0 7 19; do
    headers="$workdir/recheck.$seed"
    curl -sf -D "$headers" -o /dev/null \
        -X POST "$GW/v1/detect" \
        -d "{\"task\":\"patrol\",\"scene\":{\"domain\":\"driving\",\"seed\":$seed}}"
    again=$(tr -d '\r' <"$headers" | awk -F': ' 'tolower($1)=="x-itask-shard"{print $2}')
    if [ "$again" != "${shard_of[$seed]}" ]; then
        say "FAIL: seed $seed flapped from ${shard_of[$seed]} to $again"
        exit 1
    fi
done

if [ "${#distinct_shards[@]}" -lt 2 ]; then
    say "FAIL: 24 distinct scenes all landed on one shard (${distinct_shards[*]})"
    exit 1
fi
say "fleet engaged: ${#distinct_shards[@]} shards served traffic"

say "posting binary tensor frames (must route exactly like their JSON twins)"
# mkframe writes a JSON image body and its application/x-itask-tensor twin:
# same task, same 3×32×32 payload bit for bit. The gateway digests the frame
# header+payload without building a tensor, so both encodings must carry the
# same digest, land on the same shard, and stay there across repeats.
shard_of_twin() { # headers-file
    tr -d '\r' <"$1" | awk -F': ' 'tolower($1)=="x-itask-shard"{print $2}'
}
for seed in 41 42; do
    go run ./scripts/mkframe -size 32 -seed "$seed" \
        -json "$workdir/twin.$seed.json" -bin "$workdir/twin.$seed.bin"
    headers="$workdir/twin.$seed.json.headers"
    st=$(curl -s -D "$headers" -o "$workdir/twin.$seed.json.resp" -w '%{http_code}' \
        -X POST "$GW/v1/detect" -H 'Content-Type: application/json' \
        --data-binary @"$workdir/twin.$seed.json")
    [ "$st" = 200 ] || { say "FAIL: seed $seed JSON twin got HTTP $st"; cat "$workdir/twin.$seed.json.resp"; exit 1; }
    json_shard=$(shard_of_twin "$headers")
    for rep in 1 2; do
        headers="$workdir/twin.$seed.bin.$rep.headers"
        st=$(curl -s -D "$headers" -o "$workdir/twin.$seed.bin.$rep.resp" -w '%{http_code}' \
            -X POST "$GW/v1/detect" -H 'Content-Type: application/x-itask-tensor' \
            --data-binary @"$workdir/twin.$seed.bin")
        [ "$st" = 200 ] || { say "FAIL: seed $seed binary twin rep $rep got HTTP $st"; cat "$workdir/twin.$seed.bin.$rep.resp"; exit 1; }
        bin_shard=$(shard_of_twin "$headers")
        if [ -z "$bin_shard" ] || [ "$bin_shard" != "$json_shard" ]; then
            say "FAIL: seed $seed binary twin routed to '$bin_shard', JSON twin to '$json_shard'"
            exit 1
        fi
        grep -q '"detections"' "$workdir/twin.$seed.bin.$rep.resp" || {
            say "FAIL: seed $seed binary twin body is not a detect response"
            cat "$workdir/twin.$seed.bin.$rep.resp"
            exit 1
        }
    done
done
say "binary ingress verified: frames route with their JSON twins, attribution stable"

say "driving two tenants through the gateway (header and body identity)"
# tenant-a identifies itself by header, tenant-b by body field; both must be
# echoed back normalized, attributed in the gateway's per-tenant counters,
# and forwarded to the shards so their schedulers account them too.
headers="$workdir/tenant-a.headers"
curl -sf -D "$headers" -o /dev/null -X POST "$GW/v1/detect" \
    -H 'X-Itask-Tenant: tenant-a' \
    -d '{"task":"patrol","scene":{"domain":"driving","seed":31}}'
echo_a=$(tr -d '\r' <"$headers" | awk -F': ' 'tolower($1)=="x-itask-tenant"{print $2}')
if [ "$echo_a" != "tenant-a" ]; then
    say "FAIL: header tenant echoed as '$echo_a', want tenant-a"
    exit 1
fi
headers="$workdir/tenant-b.headers"
curl -sf -D "$headers" -o /dev/null -X POST "$GW/v1/detect" \
    -d '{"task":"patrol","tenant":"tenant-b","scene":{"domain":"driving","seed":32}}'
echo_b=$(tr -d '\r' <"$headers" | awk -F': ' 'tolower($1)=="x-itask-tenant"{print $2}')
if [ "$echo_b" != "tenant-b" ]; then
    say "FAIL: body tenant echoed as '$echo_b', want tenant-b"
    exit 1
fi
gw_tenants="$(curl -sf "$GW/metricsz")"
shard_tenants="$(curl -sf http://127.0.0.1:18081/metricsz http://127.0.0.1:18082/metricsz)"
for tenant in tenant-a tenant-b; do
    echo "$gw_tenants" | grep -q "\"tenant\":\"$tenant\"" || {
        say "FAIL: gateway per_tenant has no row for $tenant"
        echo "$gw_tenants"
        exit 1
    }
    # Content routing decides which shard served each tenant; the tenant
    # must show up in at least one shard's own per-tenant accounting.
    echo "$shard_tenants" | grep -q "\"tenant\":\"$tenant\"" || {
        say "FAIL: no shard accounts for $tenant in its /metricsz"
        echo "$shard_tenants"
        exit 1
    }
done
# Hostile tenant ids bounce at the gateway door.
st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$GW/v1/detect" \
    -H "X-Itask-Tenant: $(printf 'x%.0s' $(seq 1 65))" \
    -d '{"task":"patrol","scene":{"domain":"driving","seed":33}}')
[ "$st" = 400 ] || { say "FAIL: oversized tenant id got HTTP $st, want 400"; exit 1; }
say "tenants attributed end to end: gateway and shard per_tenant rows present"

say "reloading models fleet-wide (the restart below must not need another)"
reload=$(curl -s -w ' %{http_code}' -X POST "$GW/v1/models/reload" -d '{}')
if [ "${reload##* }" != 200 ]; then
    say "FAIL: fleet reload answered $reload"
    exit 1
fi
committed=$(echo "$reload" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')
say "fleet reload committed epoch $committed"

say "SIGKILLing shard2 mid-traffic (failover must hide it, lease must expire it)"
: >"$workdir/traffic.fails"
(
    # Continuous traffic across the kill and the lease expiry. Every request
    # must succeed: before the expiry, failover retries absorb attempts that
    # land on the corpse; after it, the ring no longer contains it.
    for i in $(seq 0 79); do
        st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$GW/v1/detect" \
            -d "{\"task\":\"patrol\",\"scene\":{\"domain\":\"driving\",\"seed\":$((i % 24))}}")
        [ "$st" = 200 ] || echo "request $i: HTTP $st" >>"$workdir/traffic.fails"
        sleep 0.05
    done
) &
traffic_pid=$!
sleep 0.3
kill -9 "$shard2_pid"
wait_available 1 "lease expiry of the killed shard"
wait "$traffic_pid"
if [ -s "$workdir/traffic.fails" ]; then
    say "FAIL: requests failed across the shard kill:"
    cat "$workdir/traffic.fails"
    exit 1
fi
expirations=$(metric lease_expirations)
if [ "$expirations" -lt 1 ]; then
    say "FAIL: lease_expirations=$expirations after SIGKILL, want >= 1"
    exit 1
fi
say "kill absorbed: 80/80 requests OK, lease_expirations=$expirations"

say "restarting shard2 from the same models (must rejoin on the ring and serve)"
shard2_pid=$(start_shard 18082 serve2-rejoin)
pids+=("$shard2_pid")
wait_available 2 "rejoin of the restarted shard"
rejoins=$(metric rejoins)
if [ "$rejoins" -lt 1 ]; then
    say "FAIL: rejoins=$rejoins after restart, want >= 1"
    exit 1
fi
# Its /metricsz row: on the ring is a weight above 0 and no "lagging":true
# (both fields are omitted at their zero values).
row=$(curl -sf "$GW/metricsz" | tr '{' '\n' | grep '"id":"http://127.0.0.1:18082"' || true)
weight=$(echo "$row" | sed -n 's/.*"weight":\([0-9.]*\).*/\1/p')
if [ -z "$weight" ] || [ "$weight" = 0 ] || echo "$row" | grep -q '"lagging":true'; then
    say "FAIL: the restarted shard is off the ring at committed epoch $committed: $row"
    exit 1
fi
for seed in $(seq 0 23); do
    st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$GW/v1/detect" \
        -d "{\"task\":\"patrol\",\"scene\":{\"domain\":\"driving\",\"seed\":$seed}}")
    [ "$st" = 200 ] || { say "FAIL: post-rejoin seed $seed got HTTP $st"; exit 1; }
done
say "rejoin converged: rejoins=$rejoins, traffic flows on both shards"

say "SIGTERMing shard1 (must deregister gracefully, not expire)"
kill -TERM "$shard1_pid"
wait_available 1 "graceful leave of shard1"
leaves=$(metric graceful_leaves)
if [ "$leaves" -lt 1 ]; then
    say "FAIL: graceful_leaves=$leaves after SIGTERM, want >= 1"
    exit 1
fi
st=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$GW/v1/detect" \
    -d '{"task":"patrol","scene":{"domain":"driving","seed":3}}')
[ "$st" = 200 ] || { say "FAIL: post-leave detect got HTTP $st"; exit 1; }

say "checking gateway metrics"
metrics="$(curl -sf "$GW/metricsz")"
echo "$metrics" | grep -q '"routed":' || { say "FAIL: metricsz missing routed counter"; exit 1; }
routed=$(metric routed)
granted=$(metric leases_granted)
if [ "$routed" -lt 128 ]; then
    say "FAIL: gateway routed=$routed, want >= 128"
    exit 1
fi
if [ "$granted" -lt 3 ]; then
    say "FAIL: leases_granted=$granted, want >= 3 (two joins + one rejoin)"
    exit 1
fi
failed=$(metric failed)
if [ "$failed" -gt 0 ]; then
    say "FAIL: gateway reports failed=$failed routed requests"
    exit 1
fi

say "OK: $routed requests routed, leases=$granted expirations=$expirations rejoins=$rejoins leaves=$leaves, zero failures"
