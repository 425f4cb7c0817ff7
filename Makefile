.PHONY: all build test fuzz boundary check check-par mc-smoke dist-smoke net-smoke perfbench-smoke bench reports coverage clean

# Cases for the parallel determinism check; override with
# `make check-par CASES=1000` for the full acceptance run.
CASES ?= 200

all: build

build:
	dune build

test: build
	dune runtest

# A short seeded fuzz campaign: runs as many cases as fit in ~5 CPU
# seconds, deterministic up to where the budget cuts it off.
fuzz: build
	dune exec bin/abc_cli.exe -- fuzz --time-budget 5 --seed 1 --no-shrink

# Negative-oracle smoke: a resilience-boundary campaign (every case at
# n = 3f with an equivocator) must witness violations of Theorem 2
# precision and of EIG agreement; --expect-violations makes the exit
# code demand that every boundary oracle fired.
boundary: build
	dune exec bin/abc_cli.exe -- fuzz --boundary --cases 25 --seed 1 --no-shrink --expect-violations

check: build test fuzz boundary

# Parallel-campaign determinism: run the same campaign serially and on
# a worker pool and require byte-identical reports (the bench harness
# exits non-zero on divergence and writes BENCH_pool.json), then the
# pool unit suite.
check-par: build
	dune exec bench/main.exe -- pool --cases $(CASES) --jobs 4 --seed 1 --out BENCH_pool.json
	dune exec test/test_main.exe -- test pool -q

# Model-checker smoke (< 60 s): exhaustively explore a small box with
# --cross-check (the replay engine and the naive search must both
# agree with the default incremental DPOR run on every class and
# verdict), the same cross-check at a budget the exhaustive naive
# search could not finish (engine + table-pruned naive), and the mc
# bench — which exits non-zero if the engines' class sets differ, if
# deliveries_per_exec regresses above 1.5x the schedule depth, if the
# transposition table loses classes, or if the search reduction vs
# the pinned stateless-checker baseline falls under its floor.
mc-smoke: build
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 6 --cross-check --jobs 1
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 8 --cross-check --jobs 1
	dune exec bench/main.exe -- mc --out BENCH_mc.json

# Distributed-campaign smoke: the sharded subprocess runner must be
# byte-identical to the serial report even under a kill+stall nemesis;
# a supervisor-killed checkpointed run must exit 3 and then --resume
# to exactly the uninterrupted report; the sharded model checker must
# match its serial run; and the dist bench must agree (it exits
# non-zero on any divergence and writes BENCH_dist.json).
dist-smoke: build
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 > _build/dist_serial.txt
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 --shards 4 \
	  --nemesis 'kill:0@2,stall:1@1' --heartbeat 2 > _build/dist_sharded.txt
	cmp _build/dist_serial.txt _build/dist_sharded.txt
	rm -f _build/dist.ckpt
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 --shards 4 \
	  --checkpoint _build/dist.ckpt --nemesis 'skill@2' > /dev/null; test $$? -eq 3
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 --shards 4 \
	  --resume _build/dist.ckpt > _build/dist_resumed.txt
	cmp _build/dist_serial.txt _build/dist_resumed.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 5 --faults C,C,Beq \
	  --boundary > _build/dist_mc_serial.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 5 --faults C,C,Beq \
	  --boundary --shards 2 > _build/dist_mc_sharded.txt
	cmp _build/dist_mc_serial.txt _build/dist_mc_sharded.txt
	dune exec bench/main.exe -- dist --out BENCH_dist.json

# Network smoke: campaigns over real localhost sockets must be
# byte-identical to the serial report — for a dialed unix-socket
# worker fleet, and for self-registering TCP workers (abc serve
# --connect) under every network fault the harness injects, including
# a stall that forces a heartbeat kill and a unit re-lease onto the
# surviving endpoint; the net bench must agree (it exits non-zero on
# any divergence and writes BENCH_net.json).  Workers run from the
# built binary directly so they can sit in the background without
# fighting dune's build lock.
NET_PORT ?= 17873
ABC = _build/default/bin/abc_cli.exe
net-smoke: build
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 > _build/net_serial.txt
	rm -f /tmp/abc_net_smoke_1.sock /tmp/abc_net_smoke_2.sock
	$(ABC) serve --listen unix:/tmp/abc_net_smoke_1.sock --id 1 --once & \
	$(ABC) serve --listen unix:/tmp/abc_net_smoke_2.sock --id 2 --once & \
	$(ABC) fuzz --cases 200 --seed 1 --shards 4 \
	  --workers unix:/tmp/abc_net_smoke_1.sock,unix:/tmp/abc_net_smoke_2.sock \
	  > _build/net_workers.txt; \
	wait; cmp _build/net_serial.txt _build/net_workers.txt
	for nem in nrefuse:1@1 ndrop:1@2 npartial:1@1 ndup:1@2 stall:1@2; do \
	  hb=2; if [ "$$nem" = "stall:1@2" ]; then hb=1; fi; \
	  $(ABC) serve --connect 127.0.0.1:$(NET_PORT) --id 1 --nemesis "$$nem" --once & w1=$$!; \
	  $(ABC) serve --connect 127.0.0.1:$(NET_PORT) --id 2 --once & w2=$$!; \
	  $(ABC) fuzz --cases 200 --seed 1 --shards 4 \
	    --listen 127.0.0.1:$(NET_PORT) --heartbeat $$hb > _build/net_fault.txt \
	    || exit 1; \
	  kill $$w1 $$w2 2>/dev/null; wait $$w1 $$w2 2>/dev/null; \
	  cmp _build/net_serial.txt _build/net_fault.txt || exit 1; \
	  echo "net-smoke: identical under $$nem"; \
	done
	dune exec bench/main.exe -- net --out BENCH_net.json

# Benchmark smoke: each BENCHMARK.json workload for 2 s with seed 1
# (untraced) must print a result line with "correct": true and
# "failed": 0.  The benchmark re-executes itself as dist workers
# through Dist.Worker.maybe_run and counts failed units from the
# supervisor's dispatch/fallback events.  Its capture ring can evict
# the fallback event when the in-process rung floods it, so the
# supervisor's own "degrading to in-process" line fails the smoke too.
perfbench-smoke: build
	for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 \
	    > _build/perfbench_$$w.txt 2> _build/perfbench_$$w.err \
	    || { cat _build/perfbench_$$w.err; exit 1; }; \
	  tail -n 1 _build/perfbench_$$w.txt | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' \
	    || { cat _build/perfbench_$$w.txt; exit 1; }; \
	  if grep -q 'degrading to in-process' _build/perfbench_$$w.err; then \
	    cat _build/perfbench_$$w.err; exit 1; fi; \
	  echo "perfbench-smoke: $$w correct, 0 failed"; \
	done

reports: build
	dune exec bench/main.exe -- reports

# Line coverage via bisect_ppx.  The (instrumentation) stanzas in the
# library dune files are inert unless --instrument-with is passed, so
# the normal build has no bisect_ppx dependency; this target skips
# with a notice when the package is missing (CI installs it) and
# fails if lib/obs line coverage drops below 80%.
coverage:
	@if ! command -v bisect-ppx-report >/dev/null 2>&1; then \
	  echo "coverage: bisect_ppx not installed; skipping (opam install bisect_ppx)"; \
	else \
	  rm -rf _coverage; \
	  find . -name '*.coverage' -not -path './_opam/*' -delete; \
	  dune runtest --instrument-with bisect_ppx --force; \
	  bisect-ppx-report html -o _coverage; \
	  bisect-ppx-report summary --per-file; \
	  bisect-ppx-report summary --per-file \
	    | awk '/lib\/obs\/obs\.ml/ { pct = $$1 + 0; found = 1; \
	        if (pct < 80) { printf "coverage: lib/obs/obs.ml at %.2f%% < 80%%\n", pct; exit 1 } \
	        else printf "coverage: lib/obs/obs.ml at %.2f%% (>= 80%%)\n", pct } \
	      END { if (!found) { print "coverage: lib/obs/obs.ml missing from report"; exit 1 } }'; \
	fi

bench: build
	dune exec bench/main.exe

clean:
	dune clean
