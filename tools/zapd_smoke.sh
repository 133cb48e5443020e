#!/bin/sh
# zapd CI smoke: start the daemon, check that hostile request lines get
# error replies without taking it down, replay a tiny suite twice
# through zapc --connect, assert the second pass is served from the
# plan cache (>= 90% hits, zero planner searches) with byte-identical
# responses, then shut down cleanly.
set -eu

ZAPD=${ZAPD:-_build/default/bin/zapd.exe}
ZAPC=${ZAPC:-_build/default/bin/zapc.exe}
SOCK=${SOCK:-zapd-smoke.sock}
WORK=$(mktemp -d)

"$ZAPD" --socket "$SOCK" --jobs 2 &
ZAPD_PID=$!
cleanup() {
  kill "$ZAPD_PID" 2>/dev/null || true
  rm -f "$SOCK"
  rm -rf "$WORK"
}
trap cleanup EXIT

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "zapd did not come up" >&2
    exit 1
  fi
  sleep 0.1
done

# hostile lines first: each must get an "ok":false reply on the same
# connection, and the daemon must keep serving
python3 - "$SOCK" <<'EOF'
import json, socket, sys
bad = [
    '{"op":"stats","x":"\\uZZZZ"}',
    'this is not json',
    '{"op":"compile","source":{"bench":',
]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
f = s.makefile("rw")
for line in bad:
    f.write(line + "\n")
    f.flush()
    reply = json.loads(f.readline())
    assert reply["ok"] is False, (line, reply)
    print(f"hostile line {line!r}: {reply['error']['message']}")
s.close()
EOF
"$ZAPC" --server-stats --connect "$SOCK" > /dev/null

# tiny per-processor tiles, greedy and search-planned per benchmark
pass() {
  out=$1
  : > "$out"
  for b in "ep:256" "frac:16" "tomcatv:16"; do
    name=${b%:*}
    tile=${b#*:}
    "$ZAPC" --bench "$name" --tile "$tile" --connect "$SOCK" >> "$out"
    "$ZAPC" --bench "$name" --tile "$tile" --plan search --connect "$SOCK" >> "$out"
  done
}

pass "$WORK/cold.out"
"$ZAPC" --server-stats --connect "$SOCK" > "$WORK/stats-cold.json"
pass "$WORK/warm.out"
"$ZAPC" --server-stats --connect "$SOCK" > "$WORK/stats-warm.json"

# the determinism bar: warm replies are byte-identical to cold ones
diff "$WORK/cold.out" "$WORK/warm.out"

python3 - "$WORK/stats-cold.json" "$WORK/stats-warm.json" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))["stats"]
warm = json.load(open(sys.argv[2]))["stats"]
hits = warm["cache"]["hits"] - cold["cache"]["hits"]
misses = warm["cache"]["misses"] - cold["cache"]["misses"]
plans = warm["plans_computed"] - cold["plans_computed"]
looked = hits + misses
rate = hits / looked if looked else 0.0
print(f"warm pass: {hits} hits / {looked} lookups ({100*rate:.0f}%), "
      f"{plans} planner searches")
assert rate >= 0.9, f"warm hit rate {rate:.2f} < 0.90"
assert plans == 0, f"warm pass re-planned {plans} times"
EOF

"$ZAPC" --shutdown --connect "$SOCK" > /dev/null
wait "$ZAPD_PID"
if [ -S "$SOCK" ]; then
  echo "socket file not removed on shutdown" >&2
  exit 1
fi
trap - EXIT
rm -rf "$WORK"
echo "zapd smoke: ok"
