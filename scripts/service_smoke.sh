#!/usr/bin/env bash
# Service smoke test: start `cqchase serve` on a loopback port, drive it
# with `cqchase request` (register → check → eval → update → eval →
# stats → shutdown), and assert the answers are identical to direct CLI
# (library) calls on the same inputs — including evaluation over the
# *mutated* facts after a live update. CI runs this after the release
# build; run it locally with `bash scripts/service_smoke.sh`.
set -euo pipefail

BIN=${CQCHASE_BIN:-target/release/cqchase}
PORT=${SMOKE_PORT:-7979}
ADDR=127.0.0.1:$PORT
TMP=$(mktemp -d)
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# The workload: one line of surface language so it embeds in JSON
# verbatim (statements are `.`-terminated; newlines are optional).
PROG='relation R(a, b). ind R[2] <= R[1]. A(x) :- R(x, y). B(x) :- R(x, y), R(y, z). C(x) :- R(y, x). R(1, 2). R(2, 3).'
printf '%s\n' "$PROG" > "$TMP/prog.cq"

# --- Direct library answers via the non-server CLI -------------------
direct_contained() { # args: Q QP -> "true"/"false"
    # Capture first, parse second: piping the live process into `head`
    # races an EPIPE panic when head exits before the CLI finishes.
    local out
    out=$("$BIN" contain "$TMP/prog.cq" "$1" "$2")
    printf '%s\n' "$out" | head -1 | grep -oE 'true|false' | head -1
}
DIRECT_AB=$(direct_contained A B)
DIRECT_AC=$(direct_contained A C)
"$BIN" eval "$TMP/prog.cq" B > "$TMP/direct_eval.txt"
DIRECT_EVAL_COUNT=$(head -1 "$TMP/direct_eval.txt" | grep -oE '^[0-9]+')
[ "$DIRECT_AB" = "true" ] || fail "sanity: A ⊆ B should hold under the cyclic IND"
[ "$DIRECT_AC" = "false" ] || fail "sanity: A ⊆ C should not hold"

# --- Start the server ------------------------------------------------
"$BIN" serve --addr "$ADDR" &
SERVER_PID=$!
for _ in $(seq 100); do
    if "$BIN" request --addr "$ADDR" '{"op":"stats"}' >/dev/null 2>&1; then
        break
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before accepting connections"
    sleep 0.1
done

req() { "$BIN" request --addr "$ADDR" "$1"; }

# --- register --------------------------------------------------------
R=$(req "{\"op\":\"register\",\"session\":\"smoke\",\"program\":\"$PROG\"}")
echo "$R"
grep -q '"ok":true' <<<"$R" || fail "register not ok"
grep -q '"class":"IndsOnly(width=1)"' <<<"$R" || fail "register class mismatch"

# --- check: answers must match the direct CLI ------------------------
C1=$(req '{"op":"check","session":"smoke","q":"A","q_prime":"B"}')
echo "$C1"
grep -q "\"contained\":$DIRECT_AB" <<<"$C1" || fail "check A⊆B disagrees with direct call ($DIRECT_AB)"
C2=$(req '{"op":"check","session":"smoke","q":"A","q_prime":"C"}')
echo "$C2"
grep -q "\"contained\":$DIRECT_AC" <<<"$C2" || fail "check A⊆C disagrees with direct call ($DIRECT_AC)"
# A repeat must be served from the semantic cache, same answer.
C3=$(req '{"op":"check","session":"smoke","q":"A","q_prime":"B"}')
grep -q '"cached":true' <<<"$C3" || fail "repeated check did not hit the semantic cache"
grep -q "\"contained\":$DIRECT_AB" <<<"$C3" || fail "cached answer changed"

# --- eval: row count and every row must match the direct CLI ---------
E=$(req '{"op":"eval","session":"smoke","query":"B"}')
echo "$E"
grep -q "\"count\":$DIRECT_EVAL_COUNT" <<<"$E" || fail "eval row count disagrees with direct call ($DIRECT_EVAL_COUNT)"
tail -n +2 "$TMP/direct_eval.txt" | tr -d '() ' | while read -r row; do
    [ -z "$row" ] && continue
    grep -q "\"$row\"" <<<"$E" || fail "direct eval row ($row) missing from service answer"
done

# --- update: mutate the live session, diff against direct CLI --------
# Duplicate registration must be an explicit error, not a replace.
DUP=$(req "{\"op\":\"register\",\"session\":\"smoke\",\"program\":\"$PROG\"}" || true)
echo "$DUP"
grep -q '"ok":false' <<<"$DUP" || fail "duplicate register must be refused"
grep -q 'already registered' <<<"$DUP" || fail "duplicate register error should say so"

# Insert R(3,4) and delete R(1,2) in one update.
U=$(req '{"op":"update","session":"smoke","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}')
echo "$U"
grep -q '"ok":true' <<<"$U" || fail "update not ok"
grep -q '"inserted":1' <<<"$U" || fail "update should insert 1"
grep -q '"deleted":1' <<<"$U" || fail "update should delete 1"

# Direct CLI on the mutated facts: same program, facts R(2,3), R(3,4).
MUTPROG='relation R(a, b). ind R[2] <= R[1]. A(x) :- R(x, y). B(x) :- R(x, y), R(y, z). C(x) :- R(y, x). R(2, 3). R(3, 4).'
printf '%s\n' "$MUTPROG" > "$TMP/mutprog.cq"
"$BIN" eval "$TMP/mutprog.cq" B > "$TMP/direct_eval_mut.txt"
MUT_EVAL_COUNT=$(head -1 "$TMP/direct_eval_mut.txt" | grep -oE '^[0-9]+')
EM=$(req '{"op":"eval","session":"smoke","query":"B"}')
echo "$EM"
grep -q "\"count\":$MUT_EVAL_COUNT" <<<"$EM" \
    || fail "post-update eval count disagrees with direct call on mutated facts ($MUT_EVAL_COUNT)"
tail -n +2 "$TMP/direct_eval_mut.txt" | tr -d '() ' | while read -r row; do
    [ -z "$row" ] && continue
    grep -q "\"$row\"" <<<"$EM" || fail "direct mutated-eval row ($row) missing from service answer"
done
# Containment answers are facts-independent: the cached check replays.
C4=$(req '{"op":"check","session":"smoke","q":"A","q_prime":"B"}')
grep -q "\"contained\":$DIRECT_AB" <<<"$C4" || fail "post-update check answer changed"
grep -q '"cached":true' <<<"$C4" || fail "post-update check should still be cache-served"

# --- two sessions: interleaved updates must not cross-talk -----------
# Session 2a takes a stream of updates while session 2b serves evals
# and checks in between (the per-session barrier path: 2a's barriers
# must not affect 2b's answers). Both are diffed against the direct CLI.
req "{\"op\":\"register\",\"session\":\"s2a\",\"program\":\"$PROG\"}" | grep -q '"ok":true' || fail "register s2a"
req "{\"op\":\"register\",\"session\":\"s2b\",\"program\":\"$PROG\"}" | grep -q '"ok":true' || fail "register s2b"
req '{"op":"update","session":"s2a","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}' \
    | grep -q '"ok":true' || fail "s2a update 1"
EB1=$(req '{"op":"eval","session":"s2b","query":"B"}')
grep -q "\"count\":$DIRECT_EVAL_COUNT" <<<"$EB1" \
    || fail "s2b eval between s2a updates diverged from direct call ($DIRECT_EVAL_COUNT)"
req '{"op":"update","session":"s2a","insert":[["R",[4,5]]]}' \
    | grep -q '"inserted":1' || fail "s2a update 2"
CB1=$(req '{"op":"check","session":"s2b","q":"A","q_prime":"B"}')
grep -q "\"contained\":$DIRECT_AB" <<<"$CB1" \
    || fail "s2b check between s2a updates disagrees with direct call ($DIRECT_AB)"
# s2a's final facts: R(2,3), R(3,4), R(4,5) — diff eval B vs direct CLI.
MUT2PROG='relation R(a, b). ind R[2] <= R[1]. A(x) :- R(x, y). B(x) :- R(x, y), R(y, z). C(x) :- R(y, x). R(2, 3). R(3, 4). R(4, 5).'
printf '%s\n' "$MUT2PROG" > "$TMP/mut2prog.cq"
"$BIN" eval "$TMP/mut2prog.cq" B > "$TMP/direct_eval_mut2.txt"
MUT2_COUNT=$(head -1 "$TMP/direct_eval_mut2.txt" | grep -oE '^[0-9]+')
EA2=$(req '{"op":"eval","session":"s2a","query":"B"}')
grep -q "\"count\":$MUT2_COUNT" <<<"$EA2" \
    || fail "s2a post-update eval count disagrees with direct call on mutated facts ($MUT2_COUNT)"
tail -n +2 "$TMP/direct_eval_mut2.txt" | tr -d '() ' | while read -r row; do
    [ -z "$row" ] && continue
    grep -q "\"$row\"" <<<"$EA2" || fail "direct s2a eval row ($row) missing from service answer"
done
# And 2b's facts never moved.
req '{"op":"classify","session":"s2b"}' | grep -q '"facts_epoch":0' \
    || fail "s2b must be untouched by s2a's updates"

# --- stats -----------------------------------------------------------
S=$(req '{"op":"stats"}')
grep -q '"ok":true' <<<"$S" || fail "stats not ok"
grep -q '"semantic_cache"' <<<"$S" || fail "stats missing semantic_cache"
grep -q '"sessions":\["s2a","s2b","smoke"\]' <<<"$S" || fail "stats missing sessions"
grep -q '"mutation"' <<<"$S" || fail "stats missing mutation counters"
grep -q '"planner"' <<<"$S" || fail "stats missing planner counters"
# Evals above compiled plans; B is an acyclic chain, so the fast path
# must have served at least once.
grep -qE '"compiled":[1-9]' <<<"$S" || fail "planner should report compiled plans"
grep -qE '"acyclic_hits":[1-9]' <<<"$S" || fail "planner should report acyclic fast-path hits"

# --- over-cap query: refused at registration, the server survives ----
# A 20,000-atom chain used to overflow a handler's stack on `check` and
# abort the whole process. The ~360 KB line exceeds the per-argument
# limit of `exec`, so it goes through `request -` (stdin). The ping
# below still counts 3 sessions: nothing was registered.
BIG_BODY=$(seq 0 19999 | awk '{ printf "%sR(x%d, x%d)", (NR > 1 ? ", " : ""), $1, $1 + 1 }')
BR=$(printf '{"op":"register","session":"big","program":"relation R(a, b). Q(x0) :- %s."}\n' "$BIG_BODY" \
    | "$BIN" request --addr "$ADDR" - || true)
echo "$BR"
grep -q '"ok":false' <<<"$BR" || fail "over-cap register must be refused"
grep -q 'the cap is 1000 atoms per query' <<<"$BR" || fail "over-cap refusal should name the cap"

# --- ping: the inline health probe -----------------------------------
PING=$(req '{"op":"ping"}')
echo "$PING"
grep -q '"ok":true' <<<"$PING" || fail "ping not ok"
grep -q '"shedding":false' <<<"$PING" || fail "unloaded server must not report shedding"
grep -q '"sessions":3' <<<"$PING" || fail "ping should count the 3 registered sessions"
grep -q '"uptime_s"' <<<"$PING" || fail "ping missing uptime_s"
grep -q '"lanes"' <<<"$PING" || fail "ping missing lane count"

# --- metrics: Prometheus exposition must carry every family ----------
# The text body is a JSON string, so `\n` separates samples; unescape
# before grepping line-shaped patterns.
M=$(req '{"op":"metrics"}')
grep -q '"ok":true' <<<"$M" || fail "metrics not ok"
MT=$(printf '%s' "$M" | sed 's/\\n/\n/g; s/\\"/"/g')
for family in \
    cqchase_endpoints_eval_count \
    cqchase_endpoints_check_count \
    cqchase_endpoints_update_count \
    cqchase_queue_wait_count \
    cqchase_semantic_cache_hits \
    cqchase_planner_compiled \
    cqchase_eval_row_hits \
    cqchase_server_uptime_s \
    cqchase_server_batch_threads \
    cqchase_server_wal_rotate_bytes \
    cqchase_session_facts \
    cqchase_session_epoch; do
    grep -q "^$family" <<<"$MT" || fail "metrics missing family $family"
done
# Histograms expose cumulative buckets ending at +Inf.
grep -q '_histogram_us_pow2_bucket{le="+Inf"}' <<<"$MT" \
    || fail "metrics missing +Inf histogram bucket"
# Per-session gauges are labelled with the session name.
grep -q 'cqchase_session_facts{session="smoke"}' <<<"$MT" \
    || fail "metrics missing per-session facts gauge for smoke"
# The exposition and the JSON stats must agree on a concrete counter.
EVALS_JSON=$(grep -oE '"eval":\{"count":[0-9]+' <<<"$S" | grep -oE '[0-9]+')
grep -q "^cqchase_endpoints_eval_count $EVALS_JSON\$" <<<"$MT" \
    || fail "metrics eval count disagrees with stats JSON ($EVALS_JSON)"

# --- shutdown: server must exit cleanly ------------------------------
req '{"op":"shutdown"}' | grep -q '"ok":true' || fail "shutdown not ok"
for _ in $(seq 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=; break; }
    sleep 0.1
done
[ -z "$SERVER_PID" ] || fail "server still running after shutdown"

# --- durability: kill -9 mid-churn, restart, diff ---------------------
# Serve with a data directory, register and mutate a session (forcing a
# snapshot halfway so recovery exercises snapshot *and* WAL replay),
# hard-kill the process, restart on the same directory, and diff the
# restored answers against the direct CLI on the same mutated facts.
DATA="$TMP/data"
start_durable() {
    "$BIN" serve --addr "$ADDR" --data-dir "$DATA" --wal-rotate-bytes 65536 &
    SERVER_PID=$!
    for _ in $(seq 100); do
        if "$BIN" request --addr "$ADDR" '{"op":"stats"}' >/dev/null 2>&1; then
            return
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "durable server exited before accepting connections"
        sleep 0.1
    done
    fail "durable server never accepted connections"
}
start_durable
req "{\"op\":\"register\",\"session\":\"dur\",\"program\":\"$PROG\"}" \
    | grep -q '"ok":true' || fail "durable register not ok"
req '{"op":"update","session":"dur","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}' \
    | grep -q '"ok":true' || fail "durable update 1 not ok"
P=$(req '{"op":"persist"}')
echo "$P"
grep -q '"ok":true' <<<"$P" || fail "persist not ok"
grep -q '"sessions":1' <<<"$P" || fail "persist should snapshot 1 session"
U3=$(req '{"op":"update","session":"dur","insert":[["R",[4,5]]]}')
grep -q '"inserted":1' <<<"$U3" || fail "durable update 2 not ok"
DUR_EPOCH=$(grep -oE '"epoch":[0-9]+' <<<"$U3" | grep -oE '[0-9]+')
# The crash: no warning, no flush, mid-churn SIGKILL.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

start_durable
# Facts after recovery: R(2,3), R(3,4), R(4,5) — the MUT2 program above.
ED=$(req '{"op":"eval","session":"dur","query":"B"}')
echo "$ED"
grep -q "\"count\":$MUT2_COUNT" <<<"$ED" \
    || fail "post-crash eval count disagrees with direct call on mutated facts ($MUT2_COUNT)"
tail -n +2 "$TMP/direct_eval_mut2.txt" | tr -d '() ' | while read -r row; do
    [ -z "$row" ] && continue
    grep -q "\"$row\"" <<<"$ED" || fail "direct eval row ($row) missing after crash recovery"
done
req '{"op":"check","session":"dur","q":"A","q_prime":"B"}' \
    | grep -q "\"contained\":$DIRECT_AB" || fail "post-crash check disagrees with direct call ($DIRECT_AB)"
req '{"op":"classify","session":"dur"}' | grep -q "\"facts_epoch\":$DUR_EPOCH" \
    || fail "facts epoch did not survive the crash (want $DUR_EPOCH)"
# A hard-killed acknowledged update must survive; a fresh update works.
req '{"op":"update","session":"dur","insert":[["R",[5,6]]]}' \
    | grep -q '"inserted":1' || fail "post-crash update not ok"
SD=$(req '{"op":"stats"}')
grep -q '"durability":{"enabled":true' <<<"$SD" || fail "stats missing enabled durability block"
grep -qE '"recoveries":[1-9]' <<<"$SD" || fail "stats should count the crash recovery"
grep -qE '"fsyncs":[1-9]' <<<"$SD" || fail "stats should count fsyncs"
req '{"op":"shutdown"}' | grep -q '"ok":true' || fail "durable shutdown not ok"
for _ in $(seq 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=; break; }
    sleep 0.1
done
[ -z "$SERVER_PID" ] || fail "durable server still running after shutdown"

# --- lanes: 4-lane sharded serving, 8 tenants, crash recovery --------
# Serve with `--lanes 4` and a data directory, register 8 tenants on
# one program text (1 catalog build, 7 attaches), interleave updates on
# the even tenants with evals on the odd ones (answers diffed against
# the direct CLI — lane routing must be invisible), snapshot halfway so
# recovery exercises snapshot *and* WAL replay, hard-kill, restart with
# the same `--lanes 4 --data-dir`, and diff every tenant again.
LDATA="$TMP/lanedata"
start_lanes() {
    "$BIN" serve --addr "$ADDR" --lanes 4 --data-dir "$LDATA" &
    SERVER_PID=$!
    for _ in $(seq 100); do
        if "$BIN" request --addr "$ADDR" '{"op":"stats"}' >/dev/null 2>&1; then
            return
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "lanes server exited before accepting connections"
        sleep 0.1
    done
    fail "lanes server never accepted connections"
}
start_lanes
for i in 0 1 2 3 4 5 6 7; do
    req "{\"op\":\"register\",\"session\":\"lane$i\",\"program\":\"$PROG\"}" \
        | grep -q '"ok":true' || fail "register lane$i"
done
# Interleaved: even tenants mutate, odd tenants answer in between and
# must keep seeing the untouched shared base.
req '{"op":"update","session":"lane0","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}' \
    | grep -q '"ok":true' || fail "lane0 update"
req '{"op":"eval","session":"lane1","query":"B"}' \
    | grep -q "\"count\":$DIRECT_EVAL_COUNT" || fail "lane1 eval during lane0 churn ($DIRECT_EVAL_COUNT)"
req '{"op":"update","session":"lane2","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}' \
    | grep -q '"ok":true' || fail "lane2 update"
req '{"op":"eval","session":"lane3","query":"B"}' \
    | grep -q "\"count\":$DIRECT_EVAL_COUNT" || fail "lane3 eval during lane2 churn ($DIRECT_EVAL_COUNT)"
PL=$(req '{"op":"persist"}')
grep -q '"ok":true' <<<"$PL" || fail "lanes persist not ok"
grep -q '"sessions":8' <<<"$PL" || fail "lanes persist should snapshot 8 sessions"
req '{"op":"update","session":"lane4","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}' \
    | grep -q '"ok":true' || fail "lane4 update"
req '{"op":"eval","session":"lane5","query":"B"}' \
    | grep -q "\"count\":$DIRECT_EVAL_COUNT" || fail "lane5 eval during lane4 churn ($DIRECT_EVAL_COUNT)"
req '{"op":"update","session":"lane6","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}' \
    | grep -q '"ok":true' || fail "lane6 update"
req '{"op":"eval","session":"lane7","query":"B"}' \
    | grep -q "\"count\":$DIRECT_EVAL_COUNT" || fail "lane7 eval during lane6 churn ($DIRECT_EVAL_COUNT)"
# Mutated tenants answer exactly what the direct CLI answers on the
# mutated facts.
EL0=$(req '{"op":"eval","session":"lane0","query":"B"}')
grep -q "\"count\":$MUT_EVAL_COUNT" <<<"$EL0" \
    || fail "lane0 post-update eval disagrees with direct call ($MUT_EVAL_COUNT)"
# Sharing and sharding are visible: one catalog built, seven attaches,
# four copy-on-write promotions, four lane shards decomposing the load.
SL=$(req '{"op":"stats"}')
grep -q '"distinct":1' <<<"$SL" || fail "stats should show 1 distinct catalog"
grep -q '"builds":1' <<<"$SL" || fail "stats should show 1 catalog build"
grep -q '"attaches":7' <<<"$SL" || fail "stats should show 7 catalog attaches"
grep -q '"promotions":4' <<<"$SL" || fail "stats should show 4 promotions"
ML=$(req '{"op":"metrics"}')
MLT=$(printf '%s' "$ML" | sed 's/\\n/\n/g; s/\\"/"/g')
grep -q '^cqchase_lanes_count 4$' <<<"$MLT" || fail "metrics missing cqchase_lanes_count 4"
for lane in 0 1 2 3; do
    grep -q "^cqchase_lanes_detail_${lane}_batched_items" <<<"$MLT" \
        || fail "metrics missing lane $lane shard family"
done
grep -q '^cqchase_lanes_detail_0_queue_wait_count' <<<"$MLT" \
    || fail "metrics missing per-lane queue-wait family"
grep -q '^cqchase_overload_refusals 0$' <<<"$MLT" || fail "metrics missing overload_refusals"
for family in cqchase_catalogs_distinct cqchase_catalogs_builds \
    cqchase_catalogs_attaches cqchase_catalogs_promotions; do
    grep -q "^$family" <<<"$MLT" || fail "metrics missing family $family"
done
# The crash: mid-churn SIGKILL, then restart with the same lane count.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
start_lanes
# Recovery regrouped identical fact-states onto shared catalogs: the
# snapshot held 6 base-facts tenants and 2 mutated ones (two groups,
# two builds, six attaches), then the WAL replay re-promoted lane4 and
# lane6 off the restored shared base.
SR=$(req '{"op":"stats"}')
grep -q '"distinct":2' <<<"$SR" || fail "recovery should restore 2 distinct catalogs"
grep -q '"builds":2' <<<"$SR" || fail "recovery should build each group once"
grep -q '"attaches":6' <<<"$SR" || fail "recovery should re-attach 6 tenants"
grep -q '"promotions":2' <<<"$SR" || fail "WAL replay should re-promote lane4 and lane6"
# Every tenant answers exactly what it answered before the crash.
for i in 0 2 4 6; do
    ER=$(req "{\"op\":\"eval\",\"session\":\"lane$i\",\"query\":\"B\"}")
    grep -q "\"count\":$MUT_EVAL_COUNT" <<<"$ER" \
        || fail "lane$i post-crash eval disagrees with direct call ($MUT_EVAL_COUNT)"
    tail -n +2 "$TMP/direct_eval_mut.txt" | tr -d '() ' | while read -r row; do
        [ -z "$row" ] && continue
        grep -q "\"$row\"" <<<"$ER" || fail "direct eval row ($row) missing from lane$i after crash"
    done
done
for i in 1 3 5 7; do
    req "{\"op\":\"eval\",\"session\":\"lane$i\",\"query\":\"B\"}" \
        | grep -q "\"count\":$DIRECT_EVAL_COUNT" \
        || fail "lane$i post-crash eval disagrees with direct call ($DIRECT_EVAL_COUNT)"
done
# Restored tenants keep serving updates.
req '{"op":"update","session":"lane1","insert":[["R",[7,8]]]}' \
    | grep -q '"inserted":1' || fail "post-crash lanes update not ok"
req '{"op":"shutdown"}' | grep -q '"ok":true' || fail "lanes shutdown not ok"
for _ in $(seq 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=; break; }
    sleep 0.1
done
[ -z "$SERVER_PID" ] || fail "lanes server still running after shutdown"

# --- chaos: deadlines, a killed client, shed burst, retry recovery ---
# Serve with a low queue-depth watermark and plenty of connection
# workers, register a deliberately expensive session (3-hop chain over
# a complete digraph), then: a 1ms deadline must come back as a
# structured refusal; a client SIGKILLed mid-eval must have its work
# cancelled by the disconnect watcher; an oversized eval burst must
# trip the shed watermark with a retry hint; and a bash-level
# retry-with-backoff loop honoring that hint must recover once the
# burst drains. `ping` stays answerable throughout.
start_chaos() {
    "$BIN" serve --addr "$ADDR" --conn-workers 16 --shed-queue-depth 3 &
    SERVER_PID=$!
    for _ in $(seq 100); do
        if "$BIN" request --addr "$ADDR" '{"op":"ping"}' >/dev/null 2>&1; then
            return
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "chaos server exited before accepting connections"
        sleep 0.1
    done
    fail "chaos server never accepted connections"
}
start_chaos
DN=64
DPROG='relation R(a, b). Q(w, z) :- R(w, x), R(x, y), R(y, z). Small(x) :- R(x, x).'
for ((i = 0; i < DN; i++)); do
    for ((j = 0; j < DN; j++)); do
        DPROG+=" R($i, $j)."
    done
done
req "{\"op\":\"register\",\"session\":\"dense\",\"program\":\"$DPROG\"}" \
    | grep -q '"ok":true' || fail "dense register not ok"

# A 1ms deadline on the dense join: structured refusal, echoed deadline.
DL=$(req '{"op":"eval","session":"dense","query":"Q","deadline_ms":1}' || true)
echo "$DL"
grep -q '"error":"deadline exceeded"' <<<"$DL" || fail "deadline refusal missing"
grep -q '"cancelled":true' <<<"$DL" || fail "deadline refusal must mark cancelled"
grep -q '"deadline_ms":1' <<<"$DL" || fail "deadline refusal must echo the deadline"
# The session is untouched: a deadline-free eval still answers.
req '{"op":"eval","session":"dense","query":"Small"}' \
    | grep -q "\"count\":$DN" || fail "dense session must survive the deadline refusal"

# A client killed mid-eval: the disconnect watcher cancels its work.
"$BIN" request --addr "$ADDR" '{"op":"eval","session":"dense","query":"Q"}' >/dev/null 2>&1 &
DOOMED=$!
sleep 0.2
kill -9 "$DOOMED" 2>/dev/null || true
wait "$DOOMED" 2>/dev/null || true
DISC=
for _ in $(seq 100); do
    if req '{"op":"stats"}' | grep -qE '"cancelled_disconnect":[1-9]'; then
        DISC=1
        break
    fi
    sleep 0.1
done
[ -n "$DISC" ] || fail "killed client's eval was never cancelled"

# An oversized burst trips the shed watermark; refusals carry a hint.
BURST_PIDS=
for _ in $(seq 8); do
    "$BIN" request --addr "$ADDR" '{"op":"eval","session":"dense","query":"Q"}' >/dev/null 2>&1 &
    BURST_PIDS="$BURST_PIDS $!"
done
SHED=
for _ in $(seq 200); do
    R=$(req '{"op":"eval","session":"dense","query":"Small"}' || true)
    if grep -q '"shed":true' <<<"$R"; then
        SHED="$R"
        break
    fi
    sleep 0.05
done
echo "$SHED"
[ -n "$SHED" ] || fail "the burst never tripped the shed watermark"
grep -q '"retry_after_ms"' <<<"$SHED" || fail "shed refusal must carry retry_after_ms"
grep -q 'overloaded' <<<"$SHED" || fail "shed refusal must say the server is overloaded"
HINT=$(grep -oE '"retry_after_ms":[0-9]+' <<<"$SHED" | grep -oE '[0-9]+$')
# Ping is answered inline while the server sheds, and reports it.
req '{"op":"ping"}' | grep -q '"shedding":true' || fail "ping must report shedding under load"
# Bounded retry with exponential backoff, honoring the server's hint:
# must recover once the burst drains.
BACKOFF_MS=$HINT
RECOVERED=
for _ in $(seq 40); do
    sleep "$(awk "BEGIN{printf \"%.3f\", $BACKOFF_MS / 1000}")"
    R=$(req '{"op":"eval","session":"dense","query":"Small"}' || true)
    if grep -q '"ok":true' <<<"$R"; then
        RECOVERED=1
        break
    fi
    grep -q '"shed":true' <<<"$R" || fail "retry hit a non-shed failure: $R"
    BACKOFF_MS=$((BACKOFF_MS * 2))
    [ "$BACKOFF_MS" -gt 2000 ] && BACKOFF_MS=2000
done
[ -n "$RECOVERED" ] || fail "retry with backoff never recovered after the burst"
# shellcheck disable=SC2086
wait $BURST_PIDS 2>/dev/null || true

# The lifecycle counters and their Prometheus families are live.
SC=$(req '{"op":"stats"}')
grep -qE '"deadline_exceeded":[1-9]' <<<"$SC" || fail "stats should count deadline refusals"
grep -qE '"cancelled_disconnect":[1-9]' <<<"$SC" || fail "stats should count disconnect cancellations"
grep -qE '"shed":[1-9]' <<<"$SC" || fail "stats should count shed refusals"
MC=$(req '{"op":"metrics"}')
MCT=$(printf '%s' "$MC" | sed 's/\\n/\n/g; s/\\"/"/g')
for family in cqchase_resilience_deadline_exceeded \
    cqchase_resilience_cancelled_disconnect cqchase_resilience_shed; do
    grep -qE "^$family [1-9]" <<<"$MCT" || fail "metrics missing live family $family"
done
req '{"op":"shutdown"}' | grep -q '"ok":true' || fail "chaos shutdown not ok"
for _ in $(seq 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=; break; }
    sleep 0.1
done
[ -z "$SERVER_PID" ] || fail "chaos server still running after shutdown"

# --- tracing must not change stats ----------------------------------
# Replay one register → eval ×N → update → eval script on an untraced
# server and on a `--trace` server; their planner and plan-cache
# counters must be identical (tracing observes, it does not count).
planner_blocks() { # args: serve flags... -> the two stats blocks
    "$BIN" serve --addr "$ADDR" "$@" >> "$TMP/tracing_servers.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 100); do
        if "$BIN" request --addr "$ADDR" '{"op":"ping"}' >/dev/null 2>&1; then
            break
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "tracing server exited before accepting connections"
        sleep 0.1
    done
    req "{\"op\":\"register\",\"session\":\"tr\",\"program\":\"$PROG\"}" >/dev/null \
        || fail "tracing register"
    for q in A B C B A; do
        req "{\"op\":\"eval\",\"session\":\"tr\",\"query\":\"$q\"}" >/dev/null || fail "tracing eval $q"
    done
    req '{"op":"update","session":"tr","insert":[["R",[3,4]]],"delete":[["R",[1,2]]]}' >/dev/null \
        || fail "tracing update"
    for q in A B C; do
        req "{\"op\":\"eval\",\"session\":\"tr\",\"query\":\"$q\"}" >/dev/null || fail "tracing eval $q"
    done
    local st
    st=$(req '{"op":"stats"}')
    printf '%s\n' "$st" | grep -oE '"(planner|plan_cache)":\{[^}]*\}'
    req '{"op":"shutdown"}' >/dev/null || fail "tracing shutdown"
    for _ in $(seq 50); do
        kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=; break; }
        sleep 0.1
    done
    [ -z "$SERVER_PID" ] || fail "tracing server still running after shutdown"
}
# Redirected, not captured: the function must run in this shell so the
# exit trap still sees SERVER_PID if a step fails.
planner_blocks > "$TMP/planner_plain.txt"
planner_blocks --trace > "$TMP/planner_traced.txt"
cat "$TMP/planner_plain.txt"
[ "$(wc -l < "$TMP/planner_plain.txt")" -eq 2 ] || fail "stats missing planner/plan_cache blocks"
diff "$TMP/planner_plain.txt" "$TMP/planner_traced.txt" \
    || fail "tracing changed the planner/plan_cache counters"

echo "service smoke: OK"
