#!/usr/bin/env bash
# End-to-end serve smoke: train two named per-subject models, start
# `pulphd_cli serve` on a Unix socket, then drive it with two scripted
# python3 clients: a text phd1 session (models + routed classify +
# default-route classify + quit) and a binary phd2 session (negotiation
# plus a fully pipelined burst sent before any response is read), streams
# one sample CSV through both `pulphd_cli stream` and a python phd2 stream
# session and checks both against the offline labels, then exercises the
# reliability surface: SIGHUP hot reload, wire-request
# reload, and a kill -9 mid-checkpoint (stalled rename failpoint) that
# must leave the previous model byte-identical with only an inert .tmp
# orphan. Malformed numeric flags (and serve timeouts past 10^9) must
# exit 2 and write nothing. The server is shut down with SIGINT and the
# exit checked clean. Used by the CI docs job; runs anywhere with bash +
# python3.
set -euo pipefail

CLI=${1:?usage: serve_smoke.sh path/to/pulphd_cli}
# The python clients share the phd2 frame constants with tools/phd2_wire.py
# (the one python-side home for those bytes; see src/serve/protocol.hpp).
TOOLS_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export PYTHONPATH="$TOOLS_DIR${PYTHONPATH:+:$PYTHONPATH}"
WORK=$(mktemp -d)
SERVE_PID=""
TRAIN_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  [ -n "$TRAIN_PID" ] && kill -9 "$TRAIN_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# One-shot text client: sends the request lines (argument 2, already
# newline-terminated) plus a quit, prints everything the server answers.
text_session() {  # text_session SOCKET REQUEST
  python3 - "$1" "$2" <<'PYEOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(sys.argv[2].encode() + b"phd1 quit\n")
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
sys.stdout.write(buf.decode())
PYEOF
}

"$CLI" train "$WORK/s0.phd" --subject 0 --dim 2048 --name subj0 > /dev/null
"$CLI" train "$WORK/s1.phd" --subject 1 --dim 2048 --name subj1 > /dev/null

# A malformed number in a flag is a usage error (exit 2) that trains and
# writes nothing, never a silent 0 or a truncated prefix.
for flag_value in "--subject=abc" "--seed=0xzz" "--dim=" \
                  "--dim=18446744073709551616"; do
  flag=${flag_value%%=*}
  value=${flag_value#*=}
  status=0
  "$CLI" train "$WORK/bad.phd" --dim 256 "$flag" "$value" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ] || [ -e "$WORK/bad.phd" ]; then
    echo "train $flag '$value' exited $status (want 2) or wrote a model"; exit 1
  fi
done
# So is a malformed number in a flag another command reads, and a flag the
# command does not read (train and eval are serial, info and price read
# only the model file, eval takes the model's dimension): exit 2, with
# nothing printed to stdout and no model written.
for args in "eval s0.phd --subject 1x" "train bad.phd --threads 1" "eval s0.phd --threads 1" \
            "info s0.phd --threads 4" "price s0.phd --seed 7" "eval s0.phd --dim 256"; do
  read -r cmd file flag value <<< "$args"
  status=0
  "$CLI" "$cmd" "$WORK/$file" "$flag" "$value" > "$WORK/bad.out" 2> /dev/null || status=$?
  if [ "$status" -ne 2 ] || [ -s "$WORK/bad.out" ] || [ -e "$WORK/bad.phd" ]; then
    echo "$args exited $status (want 2), printed to stdout or wrote a model"; exit 1
  fi
done
# serve must reject them before it listens; the timeout turns a daemon
# that starts serving anyway into a failure instead of a hang. A timeout
# past 10^9 is malformed too: now + timeout would overflow steady_clock
# (or, past INT64_MAX, wrap negative and silently disable the timeout).
# --threads takes 1 only: a request never forks off its shard thread.
for flag_value in "--threads=1x" "--threads=0" "--threads=2" \
                  "--idle-timeout=1000000001" "--idle-timeout=9223372036" \
                  "--request-timeout=1000000001" \
                  "--request-timeout=18446744073709551615"; do
  flag=${flag_value%%=*}
  value=${flag_value#*=}
  status=0
  timeout 10 "$CLI" serve --model "$WORK/s0.phd" --socket "$WORK/bad.sock" \
    "$flag" "$value" > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || { echo "serve $flag '$value' exited $status (want 2)"; exit 1; }
done
# stream's --window and --hop travel as u32 fields: a wider value is a
# usage error before any connect, never a window wrapped modulo 2^32.
for flag_value in "--window=4294967316" "--hop=4294967301"; do
  flag=${flag_value%%=*}
  value=${flag_value#*=}
  status=0
  timeout 10 "$CLI" stream --socket "$WORK/bad.sock" --window 20 --hop 5 \
    "$flag" "$value" < /dev/null > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || { echo "stream $flag '$value' exited $status (want 2)"; exit 1; }
done

"$CLI" serve --model "$WORK/s0.phd" --model "$WORK/s1.phd" \
  --socket "$WORK/phd.sock" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  [ -S "$WORK/phd.sock" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
[ -S "$WORK/phd.sock" ] || { echo "socket never appeared"; cat "$WORK/serve.log"; exit 1; }

python3 - "$WORK/phd.sock" > "$WORK/out.txt" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(
    b"phd1 models\n"
    b"phd1 classify model=subj1 trials=1\n"
    b"trial samples=3\n"
    b"1 2 3 4\n2 3 4 5\n3 4 5 6\n"
    b"phd1 classify trials=1\n"
    b"trial samples=1\n"
    b"1 2 3 4\n"
    b"phd1 quit\n")
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
sys.stdout.write(buf.decode())
EOF

grep -q "^ok models count=2$" "$WORK/out.txt"
grep -q "^model name=subj0 .* default=1$" "$WORK/out.txt"
grep -q "^ok classify model=subj1 results=1$" "$WORK/out.txt"
grep -q "^ok classify model=subj0 results=1$" "$WORK/out.txt"   # default route
grep -q "^result label=" "$WORK/out.txt"
grep -q "^ok bye$" "$WORK/out.txt"

# Binary phd2 session on the same listener: negotiate with the "PHD2"
# magic, then pipeline the whole burst (ping, models, routed classify,
# default-route classify, quit) before reading a single response. The
# server must answer every frame in request order and then close.
python3 - "$WORK/phd.sock" <<'EOF'
import socket, struct, sys
import phd2_wire as wire

burst = wire.MAGIC                                # negotiation magic
burst += wire.command(wire.FRAME_PING)
burst += wire.command(wire.FRAME_MODELS)
burst += wire.classify("subj1", [[(1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6)]])
burst += wire.classify("", [[(1, 2, 3, 4)]])      # default route
burst += wire.command(wire.FRAME_QUIT)

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(burst)
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk

types = []
payloads = []
while buf:
    payload, buf = wire.next_frame(buf)
    types.append(payload[0])
    payloads.append(payload)
assert types == [wire.FRAME_PONG, wire.FRAME_MODEL_LIST, wire.FRAME_RESULTS,
                 wire.FRAME_RESULTS, wire.FRAME_BYE], [hex(t) for t in types]
(model_count,) = struct.unpack_from("<I", payloads[1], 1)
assert model_count == 2, model_count
assert wire.parse_results(payloads[2])[0] == "subj1"
assert wire.parse_results(payloads[3])[0] == "subj0"   # default routed
print("binary pipelined burst OK")
EOF

# Abrupt mid-frame disconnect: a pipelined binary client sends a ping,
# then the length prefix of a classify frame plus only part of its
# declared payload, and vanishes without reading a byte. The server must
# answer what it can, reap the half-dead connection without leaking it,
# and keep serving other clients as if nothing happened.
python3 - "$WORK/phd.sock" <<'EOF'
import socket, struct, sys
import phd2_wire as wire

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
# Declares an 80-byte classify payload but delivers only 7 bytes of it.
partial = struct.pack("<I", 80) + bytes([wire.FRAME_CLASSIFY, 5]) + b"subj1"
s.sendall(wire.MAGIC + wire.command(wire.FRAME_PING) + partial)
# RST instead of FIN: SO_LINGER(0) aborts the connection, the harshest
# disconnect shape the server can see (recv fails with ECONNRESET).
s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
s.close()

# The daemon must still be fully alive for a fresh, complete session.
s2 = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s2.connect(sys.argv[1])
s2.sendall(wire.MAGIC + wire.command(wire.FRAME_PING) + wire.command(wire.FRAME_QUIT))
buf = b""
while True:
    chunk = s2.recv(65536)
    if not chunk:
        break
    buf += chunk
types = []
while buf:
    payload, buf = wire.next_frame(buf)
    types.append(payload[0])
assert types == [wire.FRAME_PONG, wire.FRAME_BYE], [hex(t) for t in types]
print("mid-frame disconnect survived OK")
EOF

# Streaming smoke: write a CSV of samples, fetch the offline per-window
# labels over the classify route (one trial per buffered window slice),
# then replay the same CSV in real time through `pulphd_cli stream` and
# require the per-window labels to match line for line.
WINDOW=6
HOP=3
python3 - "$WORK/phd.sock" "$WORK/stream.csv" "$WINDOW" "$HOP" \
  > "$WORK/offline_labels.txt" <<'EOF'
import socket, sys
import phd2_wire as wire

sock_path, csv_path, window, hop = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
stream = [[float((7 * i + 3 * c) % 8) for c in range(4)] for i in range(18)]
with open(csv_path, "w") as f:
    f.write("ch0,ch1,ch2,ch3\n")  # header row: the stream client skips it
    for sample in stream:
        f.write(",".join(str(int(v)) for v in sample) + "\n")

slices = [stream[start:start + window]
          for start in range(0, len(stream) - window + 1, hop)]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
s.sendall(wire.MAGIC + wire.classify("subj1", slices) + wire.command(wire.FRAME_QUIT))
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
payload, buf = wire.next_frame(buf)
_, labels = wire.parse_results(payload)
assert len(labels) == len(slices), (len(labels), len(slices))
for index, label in enumerate(labels):
    print(f"window {index} label={label}")
EOF

"$CLI" stream --socket "$WORK/phd.sock" --model subj1 \
  --window "$WINDOW" --hop "$HOP" --rate 200 --csv "$WORK/stream.csv" \
  > "$WORK/stream_out.txt"
grep -q "^session model=subj1 window=$WINDOW hop=$HOP" "$WORK/stream_out.txt"
grep "^window " "$WORK/stream_out.txt" | awk '{print $1, $2, $3}' \
  > "$WORK/stream_labels.txt"
diff "$WORK/offline_labels.txt" "$WORK/stream_labels.txt" \
  || { echo "streamed labels diverge from offline"; exit 1; }

# The same stream through an independent phd2 codec: a python session
# built from phd2_wire's stream frames, pushed in uneven chunks, must
# reproduce the offline labels too.
python3 - "$WORK/phd.sock" "$WORK/stream.csv" "$WINDOW" "$HOP" \
  > "$WORK/py_stream_labels.txt" <<'EOF'
import socket, struct, sys
import phd2_wire as wire

sock_path, csv_path, window, hop = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
with open(csv_path) as f:
    stream = [[float(v) for v in line.split(",")] for line in f.read().splitlines()[1:]]
chunks = [stream[0:4], stream[4:9], stream[9:]]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
s.sendall(wire.MAGIC + wire.stream_open("subj1", window, hop)
          + b"".join(wire.stream_push(chunk) for chunk in chunks)
          + wire.command(wire.FRAME_STREAM_CLOSE) + wire.command(wire.FRAME_QUIT))
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
opened, buf = wire.next_frame(buf)
assert opened[0] == wire.FRAME_STREAM_OPENED, hex(opened[0])
next_index = 0
for _ in chunks:
    payload, buf = wire.next_frame(buf)
    first_index, labels = wire.parse_stream_windows(payload)
    assert first_index == next_index, (first_index, next_index)
    for label in labels:
        print(f"window {next_index} label={label}")
        next_index += 1
closed, buf = wire.next_frame(buf)
assert closed[0] == wire.FRAME_STREAM_CLOSED, hex(closed[0])
assert struct.unpack_from("<Q", closed, 1)[0] == next_index
bye, buf = wire.next_frame(buf)
assert bye[0] == wire.FRAME_BYE and not buf
EOF
diff "$WORK/offline_labels.txt" "$WORK/py_stream_labels.txt" \
  || { echo "python phd2 stream labels diverge from offline"; exit 1; }

# SIGHUP hot reload: retrain subj1 in place with a different seed, HUP
# the daemon, and require that the same trial classifies differently —
# the running process really swapped to the new file, without dropping
# or restarting anything.
CLASSIFY_REQ=$'phd1 classify model=subj1 trials=1\ntrial samples=3\n1 2 3 4\n2 3 4 5\n3 4 5 6\n'
text_session "$WORK/phd.sock" "$CLASSIFY_REQ" | grep "^result" > "$WORK/before_reload.txt"
"$CLI" train "$WORK/s1.phd" --subject 1 --dim 2048 --name subj1 --seed 0xabc > /dev/null
kill -HUP "$SERVE_PID"
for _ in $(seq 1 100); do
  grep -q "^reload model=subj1 ok=1$" "$WORK/serve.log" && break
  sleep 0.1
done
grep -q "pulphd serve: reload (SIGHUP):" "$WORK/serve.log"
grep -q "^reload model=subj0 ok=1$" "$WORK/serve.log"
grep -q "^reload model=subj1 ok=1$" "$WORK/serve.log"
text_session "$WORK/phd.sock" "$CLASSIFY_REQ" | grep "^result" > "$WORK/after_reload.txt"
if cmp -s "$WORK/before_reload.txt" "$WORK/after_reload.txt"; then
  echo "SIGHUP reload did not change the served model"; exit 1
fi

# Wire-request reload (phd1 reload with no model= reloads everything)
# answers per-model status rows on the same connection.
text_session "$WORK/phd.sock" $'phd1 reload\n' > "$WORK/reload.txt"
grep -q "^ok reload count=2$" "$WORK/reload.txt"
grep -q "^reload model=subj0 ok=1$" "$WORK/reload.txt"
grep -q "^reload model=subj1 ok=1$" "$WORK/reload.txt"

kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q "shut down" "$WORK/serve.log"
[ ! -S "$WORK/phd.sock" ]   # socket path unlinked on shutdown

# Crash mid-checkpoint: retrain over an existing model file with the
# rename failpoint stalled wide open, kill -9 the trainer inside the
# stall window, and require the atomic-write contract: the old file is
# byte-identical, only an inert .tmp orphan is left, a daemon serves
# the survivor, and the next clean save sweeps the orphan away.
"$CLI" train "$WORK/crash.phd" --subject 0 --dim 2048 --name crash > /dev/null
cp "$WORK/crash.phd" "$WORK/crash.phd.golden"
PULPHD_FAILPOINTS="io.rename=stall(10000)" \
  "$CLI" train "$WORK/crash.phd" --subject 0 --dim 2048 --name crash --seed 0xdead \
  > /dev/null 2>&1 &
TRAIN_PID=$!
for _ in $(seq 1 200); do
  [ -f "$WORK/crash.phd.tmp" ] && break
  kill -0 "$TRAIN_PID" 2>/dev/null || { echo "trainer died before the stall"; exit 1; }
  sleep 0.1
done
[ -f "$WORK/crash.phd.tmp" ] || { echo "temp sibling never appeared"; exit 1; }
kill -9 "$TRAIN_PID"
wait "$TRAIN_PID" 2>/dev/null || true
TRAIN_PID=""
cmp "$WORK/crash.phd" "$WORK/crash.phd.golden"   # old checkpoint untouched
[ -f "$WORK/crash.phd.tmp" ]                     # orphan left behind, inert

"$CLI" serve --model "$WORK/crash.phd" --socket "$WORK/crash.sock" \
  > "$WORK/crash_serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -S "$WORK/crash.sock" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/crash_serve.log"; exit 1; }
  sleep 0.1
done
text_session "$WORK/crash.sock" $'phd1 classify trials=1\ntrial samples=1\n1 2 3 4\n' \
  > "$WORK/crash_out.txt"
grep -q "^ok classify model=crash results=1$" "$WORK/crash_out.txt"
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

"$CLI" train "$WORK/crash.phd" --subject 0 --dim 2048 --name crash --seed 0xdead > /dev/null
[ ! -f "$WORK/crash.phd.tmp" ]   # the clean save swept the orphan
if cmp -s "$WORK/crash.phd" "$WORK/crash.phd.golden"; then
  echo "clean retrain did not replace the checkpoint"; exit 1
fi

echo "serve smoke OK"
