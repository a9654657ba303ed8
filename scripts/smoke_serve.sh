#!/bin/sh
# End-to-end smoke test for nordserved: boot the service on an ephemeral
# port, submit a small 4x4 synthetic job, poll it to completion, resubmit
# the identical request and assert a cache hit, sanity-check /metrics,
# run the same job on a 4x4 torus (asserting a distinct cache key, a hit
# on resubmission, and a 400 for an unknown topology),
# run a seeded design-space search twice through nordsearch (asserting a
# byte-identical Pareto front and >= 90% child-cache hits on the rerun),
# then drain the server with SIGTERM. A second phase boots a coordinator
# with two fleet workers, kills one worker mid-job (SIGKILL, so no
# graceful give-back) and asserts the lease expires, the job requeues,
# and the surviving worker completes it. A third phase boots a journaled
# coordinator, exercises its cache endpoints (corrupt PUT 400, PUT 204,
# and the worker's reported bytes read back by GET), SIGKILLs the
# coordinator mid-job and restarts it on the same address: every job
# must reach a terminal state with bytes identical to a fresh local-mode
# run. Needs only sh + curl + grep/sed.
set -eu

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
LOG="$WORKDIR/nordserved.log"
BIN="$WORKDIR/nordserved"
SRV_PID=""
COORD_PID=""
W1_PID=""
W2_PID=""
W3_PID=""

cleanup() {
    for pid in "$SRV_PID" "$W1_PID" "$W2_PID" "$W3_PID" "$COORD_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -TERM "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "SMOKE FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

echo "== building nordserved"
go build -o "$BIN" ./cmd/nordserved

echo "== booting on an ephemeral port"
"$BIN" -addr 127.0.0.1:0 -workers 2 -cache-dir "$WORKDIR/cache" >"$LOG" 2>&1 &
SRV_PID=$!

ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^nordserved listening on //p' "$LOG")
    [ -n "$ADDR" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done
[ -n "$ADDR" ] && echo "   listening on $ADDR" || fail "no listen line in log"

BASE="http://$ADDR"
JOB='{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":1000,"measure":20000,"seed":7}}'

echo "== healthz"
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' || fail "healthz not ok"

echo "== submitting a 4x4 synthetic job"
SUB=$(curl -fsS "$BASE/v1/jobs" -d "$JOB")
echo "   $SUB"
ID=$(echo "$SUB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || fail "no job id in $SUB"
echo "$SUB" | grep -q '"cached":false' || fail "first submission claimed a cache hit"

echo "== polling $ID to completion"
STATE=""
for _ in $(seq 1 100); do
    STATUS=$(curl -fsS "$BASE/v1/jobs/$ID")
    STATE=$(echo "$STATUS" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$STATE" in
        done) break ;;
        failed|canceled) fail "job ended in state $STATE: $STATUS" ;;
    esac
    sleep 0.2
done
[ "$STATE" = done ] || fail "job stuck in state '$STATE'"
echo "$STATUS" | grep -q '"avg_packet_latency"\|"result"' || fail "done job carries no result: $STATUS"

# Keep this run's cache key and payload: the durable-fleet phase below
# seeds its cache with them and compares the fleet's bytes against them.
KEY=$(echo "$SUB" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$KEY" ] || fail "no cache key in $SUB"
curl -fsS "$BASE/v1/cache/$KEY" -o "$WORKDIR/ref.json" || fail "GET /v1/cache/$KEY failed"

echo "== resubmitting the identical job (must be a cache hit)"
RESUB=$(curl -fsS "$BASE/v1/jobs" -d "$JOB")
echo "   $RESUB"
echo "$RESUB" | grep -q '"cached":true' || fail "resubmission missed the cache: $RESUB"

echo "== checking /metrics"
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^nord_sims_executed_total 1$' || fail "expected exactly one executed sim"
echo "$METRICS" | grep -q '^nord_cache_hits_total 1$' || fail "expected one cache hit"
echo "$METRICS" | grep -q '^nord_cache_misses_total 1$' || fail "expected one cache miss"
echo "$METRICS" | grep -q '^nord_jobs_total{state="done"} 1$' || fail "expected one done job"

echo "== submitting a 4x4 torus job (distinct cache key, then a hit)"
TORUS_JOB='{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"topology":"torus","pattern":"uniform","rate":0.05,"warmup":1000,"measure":20000,"seed":7}}'
TOSUB=$(curl -fsS "$BASE/v1/jobs" -d "$TORUS_JOB")
echo "   $TOSUB"
TOID=$(echo "$TOSUB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
TOKEY=$(echo "$TOSUB" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$TOID" ] || fail "no torus job id in $TOSUB"
# Same design/size/seed as the mesh job: only the topology differs, so
# the key must differ — a shared key would silently serve mesh results.
[ "$TOKEY" != "$KEY" ] || fail "torus job reused the mesh cache key $KEY"
echo "$TOSUB" | grep -q '"cached":false' || fail "first torus submission claimed a cache hit"
TOSTATE=""
for _ in $(seq 1 100); do
    TOSTATUS=$(curl -fsS "$BASE/v1/jobs/$TOID")
    TOSTATE=$(echo "$TOSTATUS" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$TOSTATE" in
        done) break ;;
        failed|canceled) fail "torus job ended in state $TOSTATE: $TOSTATUS" ;;
    esac
    sleep 0.2
done
[ "$TOSTATE" = done ] || fail "torus job stuck in state '$TOSTATE'"
TORESUB=$(curl -fsS "$BASE/v1/jobs" -d "$TORUS_JOB")
echo "   $TORESUB"
echo "$TORESUB" | grep -q '"cached":true' || fail "torus resubmission missed the cache: $TORESUB"
# "hypercube" must be rejected loudly, not silently mapped to a mesh.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs" \
    -d '{"kind":"synthetic","synthetic":{"design":"nord","topology":"hypercube"}}')
[ "$CODE" = 400 ] || fail "unknown topology returned $CODE, want 400"

echo "== submitting a traced job and streaming /trace"
TRACED_JOB='{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":1000,"measure":20000,"seed":7,"trace_events":true}}'
TSUB=$(curl -fsS "$BASE/v1/jobs" -d "$TRACED_JOB")
echo "   $TSUB"
TID=$(echo "$TSUB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$TID" ] || fail "no traced job id in $TSUB"
echo "$TSUB" | grep -q '"cached":false' || fail "traced job must not hit the untraced cache: $TSUB"
# The stream blocks until the job finishes, so this also acts as the poll.
TRACE=$(curl -fsS --max-time 60 "$BASE/v1/jobs/$TID/trace")
echo "$TRACE" | grep -q '"type":"event"' || fail "trace stream has no event lines"
echo "$TRACE" | grep -q '"kind":"gate_off"' || fail "trace stream has no gate_off events"
echo "$TRACE" | grep -q '"kind":"wake_start"' || fail "trace stream has no wake_start events"
END=$(echo "$TRACE" | grep '"type":"end"')
[ -n "$END" ] || fail "trace stream has no end line"
echo "   $END"
echo "$END" | grep -q '"done":true' || fail "trace end line not terminal: $END"
echo "$END" | grep -q '"state":"done"' || fail "traced job did not finish: $END"
# An untraced job must refuse the trace stream with guidance.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs/$ID/trace")
[ "$CODE" = 409 ] || fail "untraced job trace returned $CODE, want 409"

echo "== checking per-design metrics"
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^nord_sim_wakeups_total{design="NoRD"} [1-9]' || fail "no NoRD wakeups counted"
echo "$METRICS" | grep -q '^nord_sim_detours_total{design="No_PG"} 0$' || fail "missing zero-valued detour series"

echo "== building nordsearch"
SBIN="$WORKDIR/nordsearch"
go build -o "$SBIN" ./cmd/nordsearch

echo "== seeded design-space search (run 1)"
SPEC="$WORKDIR/search.json"
cat >"$SPEC" <<'EOF'
{
  "algorithm": "nsga2",
  "seed": 3,
  "generations": 2,
  "population": 6,
  "measure": 1000,
  "space": {
    "designs": ["NoRD", "Conv_PG"],
    "widths": [4],
    "vcs": [3, 4],
    "buffer_depths": [2, 5],
    "gate_idle": [2],
    "wake_thresholds": [6],
    "rates": [0.05, 0.15]
  }
}
EOF
"$SBIN" -server "$BASE" -spec "$SPEC" -format front -quiet >"$WORKDIR/front1.json" \
    || fail "first search run failed"
grep -q '"design":"NoRD"' "$WORKDIR/front1.json" || fail "no NoRD point on the Pareto front"
grep -q '"cache_key"' "$WORKDIR/front1.json" || fail "front points carry no provenance"
SMETRICS=$(curl -fsS "$BASE/metrics")
EVALS1=$(echo "$SMETRICS" | sed -n 's/^nord_search_evaluations_total //p')
HITS1=$(echo "$SMETRICS" | sed -n 's/^nord_search_cache_hits_total //p')
[ -n "$EVALS1" ] && [ "$EVALS1" -gt 0 ] || fail "no search evaluations recorded: '$EVALS1'"

echo "== seeded design-space search (run 2: byte-identical front, warm cache)"
"$SBIN" -server "$BASE" -spec "$SPEC" -format front -quiet >"$WORKDIR/front2.json" \
    || fail "second search run failed"
cmp -s "$WORKDIR/front1.json" "$WORKDIR/front2.json" \
    || fail "fixed-seed front not byte-identical across runs"
SMETRICS=$(curl -fsS "$BASE/metrics")
EVALS2=$(echo "$SMETRICS" | sed -n 's/^nord_search_evaluations_total //p')
HITS2=$(echo "$SMETRICS" | sed -n 's/^nord_search_cache_hits_total //p')
D_EVALS=$((EVALS2 - EVALS1))
D_HITS=$((HITS2 - HITS1))
[ "$D_EVALS" -gt 0 ] || fail "second search made no evaluations"
[ $((D_HITS * 10)) -ge $((D_EVALS * 9)) ] \
    || fail "second identical search hit the cache on $D_HITS/$D_EVALS evaluations, want >= 90%"
echo "   search soak verified: identical fronts, $D_HITS/$D_EVALS cached evaluations"

echo "== draining with SIGTERM"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "server exited non-zero on drain"
SRV_PID=""

# ---- fleet phase: coordinator + 2 workers, worker failure mid-job ----

CLOG="$WORKDIR/coordinator.log"
W1LOG="$WORKDIR/worker1.log"
W2LOG="$WORKDIR/worker2.log"

ffail() {
    echo "SMOKE FAIL (fleet): $*" >&2
    for f in "$CLOG" "$W1LOG" "$W2LOG"; do
        echo "--- $f ---" >&2
        cat "$f" >&2 2>/dev/null || true
    done
    exit 1
}

echo "== fleet: booting coordinator (1s lease TTL)"
"$BIN" -mode coordinator -addr 127.0.0.1:0 -lease-ttl 1s \
    -cache-dir "$WORKDIR/fleet-cache" \
    >"$CLOG" 2>&1 &
COORD_PID=$!

CADDR=""
for _ in $(seq 1 50); do
    CADDR=$(sed -n 's/^nordserved listening on //p' "$CLOG")
    [ -n "$CADDR" ] && break
    kill -0 "$COORD_PID" 2>/dev/null || ffail "coordinator exited during startup"
    sleep 0.1
done
[ -n "$CADDR" ] || ffail "no coordinator listen line"
CBASE="http://$CADDR"
echo "   coordinator on $CADDR"

echo "== fleet: starting worker w1"
"$BIN" -mode worker -coordinator "$CBASE" -worker-id w1 >"$W1LOG" 2>&1 &
W1_PID=$!
for _ in $(seq 1 50); do
    grep -q 'registered with' "$W1LOG" && break
    kill -0 "$W1_PID" 2>/dev/null || ffail "w1 exited during startup"
    sleep 0.1
done
grep -q 'registered with' "$W1LOG" || ffail "w1 never registered"
curl -fsS "$CBASE/metrics" | grep -q '^nord_fleet_workers_live 1$' \
    || ffail "coordinator does not see w1 live"

echo "== fleet: submitting a job sized to outlive its first worker"
FLEET_JOB='{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":1000,"measure":1500000,"seed":11}}'
FSUB=$(curl -fsS "$CBASE/v1/jobs" -d "$FLEET_JOB")
echo "   $FSUB"
FID=$(echo "$FSUB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$FID" ] || ffail "no fleet job id in $FSUB"

for _ in $(seq 1 100); do
    FSTATE=$(curl -fsS "$CBASE/v1/jobs/$FID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$FSTATE" = running ] && break
    case "$FSTATE" in done|failed|canceled) ffail "job finished ($FSTATE) before the kill could land" ;; esac
    sleep 0.1
done
[ "$FSTATE" = running ] || ffail "job never started running on w1"

echo "== fleet: SIGKILL w1 mid-job, starting replacement w2"
kill -KILL "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
"$BIN" -mode worker -coordinator "$CBASE" -worker-id w2 >"$W2LOG" 2>&1 &
W2_PID=$!

echo "== fleet: waiting for lease expiry, requeue, and completion on w2"
FSTATE=""
for _ in $(seq 1 120); do
    FSTATUS=$(curl -fsS "$CBASE/v1/jobs/$FID")
    FSTATE=$(echo "$FSTATUS" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$FSTATE" in
        done) break ;;
        failed|canceled) ffail "fleet job ended in $FSTATE: $FSTATUS" ;;
    esac
    sleep 0.5
done
[ "$FSTATE" = done ] || ffail "fleet job stuck in state '$FSTATE' after w1 died"

FMETRICS=$(curl -fsS "$CBASE/metrics")
echo "$FMETRICS" | grep -q '^nord_fleet_lease_expiries_total [1-9]' \
    || ffail "no lease expiry recorded for the killed worker"
echo "$FMETRICS" | grep -q '^nord_fleet_requeues_total [1-9]' \
    || ffail "job was not requeued after the kill"
echo "$FMETRICS" | grep -q '^nord_fleet_local_jobs_total 0$' \
    || ffail "job fell back to local execution instead of failing over to w2"
echo "   failover verified: lease expired, job requeued, w2 completed it"

echo "== fleet: draining workers and coordinator"
kill -TERM "$W2_PID"
wait "$W2_PID" || ffail "w2 exited non-zero on drain"
W2_PID=""
kill -TERM "$COORD_PID"
wait "$COORD_PID" || ffail "coordinator exited non-zero on drain"
COORD_PID=""

# ---- durable fleet phase: journaled coordinator, SIGKILL + restart ----

DLOG="$WORKDIR/durable.log"
W3LOG="$WORKDIR/worker3.log"
JDIR="$WORKDIR/journal"
DCACHE="$WORKDIR/dur-cache"

dfail() {
    echo "SMOKE FAIL (durable): $*" >&2
    for f in "$DLOG" "$W3LOG"; do
        echo "--- $f ---" >&2
        cat "$f" >&2 2>/dev/null || true
    done
    exit 1
}

# boot_durable [addr] — (re)start the journaled coordinator, set
# COORD_PID and DADDR. A restart rebinds the address the dead
# incarnation held, retrying while the kernel releases it.
boot_durable() {
    want_addr="${1:-127.0.0.1:0}"
    attempt=0
    while :; do
        attempt=$((attempt + 1))
        : >"$DLOG"
        "$BIN" -mode coordinator -addr "$want_addr" -lease-ttl 5s \
            -cache-dir "$DCACHE" -journal-dir "$JDIR" >"$DLOG" 2>&1 &
        COORD_PID=$!
        DADDR=""
        for _ in $(seq 1 50); do
            DADDR=$(sed -n 's/^nordserved listening on //p' "$DLOG")
            [ -n "$DADDR" ] && break
            kill -0 "$COORD_PID" 2>/dev/null || break
            sleep 0.1
        done
        [ -n "$DADDR" ] && return 0
        wait "$COORD_PID" 2>/dev/null || true
        COORD_PID=""
        [ "$attempt" -lt 20 ] || dfail "durable coordinator would not (re)bind $want_addr"
        sleep 0.2
    done
}

echo "== durable: booting journaled coordinator"
boot_durable
DBASE="http://$DADDR"
echo "   coordinator on $DADDR (journal $JDIR)"

echo "== durable: workerless healthz is alive-but-degraded"
HEALTH=$(curl -fsS "$DBASE/healthz")
echo "$HEALTH" | grep -q '"status":"degraded"' || dfail "workerless coordinator healthz not degraded: $HEALTH"
echo "$HEALTH" | grep -q 'no_live_workers' || dfail "degraded healthz missing no_live_workers note: $HEALTH"

echo "== durable: cache endpoints (corrupt PUT 400, PUT 204, fleet bytes read back)"
# A register-only placeholder keeps the fleet live so the submission
# queues for a worker lease instead of running on the local fallback.
curl -fsS "$DBASE/fleet/v1/register" -d '{"worker_id":"placeholder"}' >/dev/null \
    || dfail "placeholder registration failed"
RSUB=$(curl -fsS "$DBASE/v1/jobs" -d "$JOB")
RID=$(echo "$RSUB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
RKEY=$(echo "$RSUB" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$RID" ] || dfail "no job id in $RSUB"
echo "$RSUB" | grep -q '"cached":false' || dfail "fresh coordinator claimed a cache hit: $RSUB"
[ "$RKEY" = "$KEY" ] || dfail "content-addressed key drifted across processes: $RKEY vs $KEY"
SUM=$(sha256sum "$WORKDIR/ref.json" | cut -d' ' -f1)
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X PUT --data-binary "@$WORKDIR/ref.json" \
    -H "X-Nord-Sum: 0000000000000000000000000000000000000000000000000000000000000000" \
    "$DBASE/v1/cache/$RKEY")
[ "$CODE" = 400 ] || dfail "corrupt cache PUT returned $CODE, want 400"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X PUT --data-binary "@$WORKDIR/ref.json" \
    -H "X-Nord-Sum: $SUM" "$DBASE/v1/cache/$RKEY")
[ "$CODE" = 204 ] || dfail "cache PUT returned $CODE, want 204"

echo "== durable: starting worker w3 (its result report overwrites the seed)"
"$BIN" -mode worker -coordinator "$DBASE" -worker-id w3 >"$W3LOG" 2>&1 &
W3_PID=$!
RSTATE=""
for _ in $(seq 1 100); do
    RSTATE=$(curl -fsS "$DBASE/v1/jobs/$RID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$RSTATE" = done ] && break
    case "$RSTATE" in failed|canceled) dfail "seeded job ended in $RSTATE" ;; esac
    sleep 0.2
done
[ "$RSTATE" = done ] || dfail "seeded job stuck in state '$RSTATE'"
curl -fsS "$DBASE/v1/cache/$RKEY" -o "$WORKDIR/r_fleet.json" || dfail "seeded job payload GET failed"
cmp -s "$WORKDIR/r_fleet.json" "$WORKDIR/ref.json" \
    || dfail "the fleet's result for the seeded job differs from the local-mode bytes"
echo "   cache endpoints verified: the worker's reported bytes match the local run"

echo "== durable: one short job done, one long job mid-flight"
SHORT_JOB='{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":1000,"measure":20000,"seed":31}}'
LONG_JOB='{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":1000,"measure":1200000,"seed":33}}'
SSUB=$(curl -fsS "$DBASE/v1/jobs" -d "$SHORT_JOB")
SID=$(echo "$SSUB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
SKEY=$(echo "$SSUB" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$SID" ] || dfail "no short job id in $SSUB"
for _ in $(seq 1 150); do
    SSTATE=$(curl -fsS "$DBASE/v1/jobs/$SID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$SSTATE" = done ] && break
    case "$SSTATE" in failed|canceled) dfail "short job ended in $SSTATE" ;; esac
    sleep 0.2
done
[ "$SSTATE" = done ] || dfail "short job stuck in state '$SSTATE'"
curl -fsS "$DBASE/v1/cache/$SKEY" -o "$WORKDIR/s_fleet.json" || dfail "short payload GET failed"
LSUB=$(curl -fsS "$DBASE/v1/jobs" -d "$LONG_JOB")
LID=$(echo "$LSUB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
LKEY=$(echo "$LSUB" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$LID" ] || dfail "no long job id in $LSUB"
for _ in $(seq 1 100); do
    LSTATE=$(curl -fsS "$DBASE/v1/jobs/$LID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$LSTATE" = running ] && break
    case "$LSTATE" in done|failed|canceled) dfail "long job finished ($LSTATE) before the kill could land" ;; esac
    sleep 0.1
done
[ "$LSTATE" = running ] || dfail "long job never started running"

echo "== durable: SIGKILL coordinator mid-job, restarting on $DADDR"
kill -KILL "$COORD_PID"
wait "$COORD_PID" 2>/dev/null || true
COORD_PID=""
boot_durable "$DADDR"
echo "   restarted (pid $COORD_PID)"

echo "== durable: finished job replayed from the journal, byte-identical"
SSTATE=$(curl -fsS "$DBASE/v1/jobs/$SID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
[ "$SSTATE" = done ] || dfail "pre-crash done job replayed as '$SSTATE', want done"
curl -fsS "$DBASE/v1/cache/$SKEY" -o "$WORKDIR/s_after.json" || dfail "post-restart payload GET failed"
cmp -s "$WORKDIR/s_fleet.json" "$WORKDIR/s_after.json" \
    || dfail "replayed payload differs from the pre-crash bytes"

echo "== durable: in-flight job requeued and completed"
LSTATE=""
for _ in $(seq 1 240); do
    LSTATE=$(curl -fsS "$DBASE/v1/jobs/$LID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$LSTATE" = done ] && break
    case "$LSTATE" in failed|canceled) dfail "recovered long job ended in $LSTATE" ;; esac
    sleep 0.5
done
[ "$LSTATE" = done ] || dfail "recovered long job stuck in state '$LSTATE'"
curl -fsS "$DBASE/v1/cache/$LKEY" -o "$WORKDIR/l_fleet.json" || dfail "long payload GET failed"

DMETRICS=$(curl -fsS "$DBASE/metrics")
echo "$DMETRICS" | grep -q '^nord_fleet_journal_appends_total [1-9]' \
    || dfail "journal recorded no appends"
echo "$DMETRICS" | grep -q '^nord_fleet_journal_replayed_jobs_total [1-9]' \
    || dfail "no terminal job replayed on recovery"
echo "$DMETRICS" | grep -q '^nord_fleet_journal_requeues_on_recovery_total [1-9]' \
    || dfail "the in-flight job was not requeued on recovery"
echo "   crash recovery verified: terminal jobs replayed, open job requeued"

echo "== durable: draining worker and coordinator"
kill -TERM "$W3_PID"
wait "$W3_PID" || dfail "w3 exited non-zero on drain"
W3_PID=""
kill -TERM "$COORD_PID"
wait "$COORD_PID" || dfail "coordinator exited non-zero on drain"
COORD_PID=""

echo "== durable: fleet results must match a fresh local-mode run"
RLOG="$WORKDIR/reference.log"
"$BIN" -addr 127.0.0.1:0 -workers 2 >"$RLOG" 2>&1 &
SRV_PID=$!
RADDR=""
for _ in $(seq 1 50); do
    RADDR=$(sed -n 's/^nordserved listening on //p' "$RLOG")
    [ -n "$RADDR" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || dfail "reference server exited during startup"
    sleep 0.1
done
[ -n "$RADDR" ] || dfail "no reference server listen line"
RBASE="http://$RADDR"
for spec in "SHORT $SHORT_JOB $SKEY s_fleet" "LONG $LONG_JOB $LKEY l_fleet"; do
    name=$(echo "$spec" | cut -d' ' -f1)
    body=$(echo "$spec" | cut -d' ' -f2)
    key=$(echo "$spec" | cut -d' ' -f3)
    ref=$(echo "$spec" | cut -d' ' -f4)
    rid=$(curl -fsS "$RBASE/v1/jobs" -d "$body" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
    [ -n "$rid" ] || dfail "$name reference submission failed"
    rstate=""
    for _ in $(seq 1 240); do
        rstate=$(curl -fsS "$RBASE/v1/jobs/$rid" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
        [ "$rstate" = done ] && break
        case "$rstate" in failed|canceled) dfail "$name reference run ended in $rstate" ;; esac
        sleep 0.5
    done
    [ "$rstate" = done ] || dfail "$name reference run stuck in '$rstate'"
    curl -fsS "$RBASE/v1/cache/$key" -o "$WORKDIR/local_$name.json" \
        || dfail "$name reference payload GET failed"
    cmp -s "$WORKDIR/$ref.json" "$WORKDIR/local_$name.json" \
        || dfail "$name fleet result diverged from the local-mode reference run"
done
kill -TERM "$SRV_PID"
wait "$SRV_PID" || dfail "reference server exited non-zero on drain"
SRV_PID=""
echo "   byte-identity verified against a single-process run"

echo "SMOKE PASS"
