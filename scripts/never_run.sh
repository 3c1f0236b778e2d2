#!/usr/bin/env bash
# never_run.sh: the never-run ratchet.
#
# Builds every main package (cmd/* and examples/*) with -cover over the
# whole module, runs each the way CI and the README do, merges the
# coverage with `go tool covdata merge`, and lists every function that
# never ran. It fails when a never-run function is missing from
# testdata/never_run.txt, or when an entry there carries an unknown
# reason. A listed function that did run is printed as a removal
# candidate and does not fail the run.
#
# Invocations: `costbench all` and every costbench flag set CI passes,
# the /metrics scrape, crashtest, a three-process TCP deployment driven
# by loadgen (closed and open loop, with an appserver restart against the
# running storeserver), tracegen and every example.
#
# Run from the repository root: scripts/never_run.sh
#
# A key is path:Func or path:Recv.Method, with no line number; the
# receiver is read from the declaration line, so two same-named methods
# of different types are told apart. A function with an empty body (a
# marker method) has no statement to run and is not keyed. WORK
# (default: a fresh temp dir) holds the binaries, coverage data, logs
# and the never-run keys (never_run.keys); PORT0 (default 17000) is the
# first of the loopback ports the run listens on.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
module=$(go list -m)
work=${WORK:-$(mktemp -d)}
bin=$work/bin
cov=$work/cov
logs=$work/logs
mkdir -p "$bin" "$cov" "$logs"
port0=${PORT0:-17000}
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill -INT "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
}
trap cleanup EXIT

echo "never_run: building into $bin" >&2
for d in cmd/* examples/*; do
	go build -cover -coverpkg=./... -o "$bin/$(basename "$d")" "./$d"
done

n=0
# run NAME ARGS...: one covered process, its own coverage directory, its
# output in logs/NAME.N. A nonzero exit fails the ratchet.
run() {
	local name=$1
	shift
	n=$((n + 1))
	mkdir -p "$cov/$n"
	if ! GOCOVERDIR=$cov/$n "$bin/$name" "$@" >"$logs/$name.$n" 2>&1; then
		echo "never_run: $name $* failed; see $logs/$name.$n" >&2
		tail -5 "$logs/$name.$n" >&2
		exit 1
	fi
}
# expect_exit CODE NAME ARGS...: like run, for an invocation that must
# exit with CODE (a usage error).
expect_exit() {
	local code=$1 name=$2 got=0
	shift 2
	n=$((n + 1))
	mkdir -p "$cov/$n"
	GOCOVERDIR=$cov/$n "$bin/$name" "$@" >"$logs/$name.$n" 2>&1 || got=$?
	if [ "$got" != "$code" ]; then
		echo "never_run: $name $* exited $got, want $code" >&2
		exit 1
	fi
}
# start NAME ARGS...: a covered background process; its pid is pushed.
start() {
	local name=$1
	shift
	n=$((n + 1))
	mkdir -p "$cov/$n"
	GOCOVERDIR=$cov/$n "$bin/$name" "$@" >"$logs/$name.$n" 2>&1 &
	pids+=($!)
}
# stop PID: SIGINT, which the servers answer with a report, their
# coverage and exit 0. Any other exit, such as a server that died
# earlier, fails the ratchet.
stop() {
	kill -INT "$1" 2>/dev/null || true
	if ! wait "$1"; then
		echo "never_run: process $1 exited nonzero; see $logs" >&2
		exit 1
	fi
}
# listening PORT: wait up to 30 s for a loopback listener.
listening() {
	for _ in $(seq 1 300); do
		if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then return 0; fi
		sleep 0.1
	done
	echo "never_run: nothing listening on port $1" >&2
	exit 1
}
# scrape URL...: fetch each ops endpoint once.
scrape() {
	for u in "$@"; do curl -sf "$u" >/dev/null; done
}

echo "never_run: running" >&2
# The experiment driver: every figure, then every flag set CI passes.
run costbench -ops 400 -warmup 150 -keys 500 all
run costbench list
expect_exit 2 costbench
expect_exit 2 costbench nosuchfigure
run costbench -json -figure batch -batchsizes 1,8 -ops 400 -warmup 150 -keys 300 -tables 60
run costbench -json -figure tiering -ops 800 -warmup 200
run costbench -json -figure overload -offered 0.3,3 -parallelism 2 -ops 1200 -warmup 400 -keys 300
run costbench -json -figure elastic -ops 1500 -warmup 600 -keys 800
run costbench -json -figure hotshard -ops 2400 -warmup 700 -keys 600
run costbench -faultrate 0.1 -ops 400 -warmup 150 -keys 500 chaos
run costbench -trace "$work/trace.json" -tracesample 8 -snapshot "$work/snap.jsonl" -out "$work/fig4a.txt" \
	-ops 400 -warmup 150 -keys 500 fig4a
# The ops endpoint, scraped while a run is live.
mport=$((port0 + 99))
start costbench -metrics "127.0.0.1:$mport" -ops 12000 -warmup 2000 fig4a
listening "$mport"
scrape "http://127.0.0.1:$mport/metrics" "http://127.0.0.1:$mport/metrics.json" \
	"http://127.0.0.1:$mport/statusz" "http://127.0.0.1:$mport/debug/requests?outcome=deadline&n=4"
wait "${pids[-1]}"
unset 'pids[-1]'
run costbench -figure overload -offered 3 -ops 2000 -warmup 150 -keys 500 -parallelism 4 \
	-flightdump "$work/dumps" -flightdump-interval 100ms

# The durable engine's kill loop (the children it SIGKILLs write no
# coverage).
run crashtest -n 5

# The README's TCP recipe: storeserver, cacheserver, a Remote appserver,
# loadgen closed and open loop, then the appserver restarted with the
# same preload against the running storeserver.
sport=$((port0 + 1)) cport=$((port0 + 2)) aport=$((port0 + 3)) amport=$((port0 + 4))
start storeserver -addr "127.0.0.1:$sport" -stats 100ms -metrics "127.0.0.1:$((port0 + 5))"
spid=${pids[-1]}
start cacheserver -addr "127.0.0.1:$cport" -stats 100ms -metrics "127.0.0.1:$((port0 + 6))"
cpid=${pids[-1]}
listening "$sport"
listening "$cport"
appserver() {
	start appserver -addr "127.0.0.1:$aport" -store "127.0.0.1:$sport" -cache "127.0.0.1:$cport" \
		-arch remote -preload 2000 -metrics "127.0.0.1:$amport"
	listening "$aport"
}
appserver
run loadgen -target "127.0.0.1:$aport" -ops 4000 -concurrency 8
run loadgen -target "127.0.0.1:$aport" -arrival poisson -rate 2000 -slo 50ms -ops 4000
scrape "http://127.0.0.1:$amport/metrics" "http://127.0.0.1:$amport/debug/requests" \
	"http://127.0.0.1:$((port0 + 5))/statusz" "http://127.0.0.1:$((port0 + 6))/statusz"
stop "${pids[-1]}"
appserver
run loadgen -target "127.0.0.1:$aport" -ops 2000 -concurrency 4
stop "${pids[-1]}"
stop "$cpid"
stop "$spid"
pids=()

# Trace recording and analysis, and every example.
run tracegen -out "$work/ops.trace" -ops 20000 -keys 2000
run tracegen -in "$work/ops.trace"
for d in examples/*; do run "$(basename "$d")"; done

# Merge, then key every never-run function by path and (receiver.)name.
dirs=$(find "$cov" -mindepth 1 -maxdepth 1 -type d | sort | paste -sd, -)
mkdir -p "$work/merged"
go tool covdata merge -i="$dirs" -o "$work/merged"
go tool covdata func -i="$work/merged" >"$work/func.txt"
# func.txt lines: module/path/file.go:LINE:<tab>Name<tab>PCT%. The key's
# name comes from the declaration line, receiver type included.
awk -F'\t' '$NF == "0.0%" { split($1, loc, ":"); print loc[1], loc[2] }' "$work/func.txt" |
	while read -r file line; do
		decl=$(sed -n "${line}p" "${file#"$module"/}")
		[[ $decl == *'{}' ]] && continue
		name=$(printf '%s\n' "$decl" | sed -E \
			-e 's/^func \(([A-Za-z_0-9]+ +)?\*?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/\2.\4/' \
			-e 's/^func ([A-Za-z_0-9]+).*/\1/')
		echo "${file#"$module"/}:$name"
	done | sort -u >"$work/never_run.keys"
total=$(grep -vc '^total' "$work/func.txt" || true)
zero=$(wc -l <"$work/never_run.keys")
echo "never_run: $zero of $total functions never ran" >&2

allow=testdata/never_run.txt
vocab='^(bench|test-hook|oracle|error-path|crash-child|scale|timing|roadmap-[0-9]+)$'
fail=0
grep -v '^[[:space:]]*\(#\|$\)' "$allow" >"$work/allow.txt" || true
while read -r key reason _; do
	if ! [[ $reason =~ $vocab ]]; then
		echo "never_run: $allow: $key has unknown reason \"$reason\"" >&2
		fail=1
	fi
done <"$work/allow.txt"
cut -d' ' -f1 "$work/allow.txt" | sort -u >"$work/allow.keys"
missing=$(comm -23 "$work/never_run.keys" "$work/allow.keys")
if [ -n "$missing" ]; then
	echo "never_run: never-run functions missing from $allow (delete them, or list each with a reason):" >&2
	printf '  %s\n' $missing >&2
	fail=1
fi
ran=$(comm -13 "$work/never_run.keys" "$work/allow.keys")
if [ -n "$ran" ]; then
	echo "never_run: listed but ran or gone, removal candidates:" >&2
	printf '  %s\n' $ran >&2
fi
exit $fail
