.PHONY: all build test fuzz boundary check check-par mc-smoke dist-smoke net-smoke perfbench-smoke reports loc coverage clean

# Cases for the parallel determinism check: the 1,000-case campaign
# that used to be the full acceptance run (the one-pass consistent cuts
# made it cheaper than 200 cases were before); override with
# `make check-par CASES=N`.
CASES ?= 1000

all: build

build:
	dune build

test: build
	dune runtest

# A short seeded fuzz campaign: the default 100 cases at seed 1, without
# shrinking (well under a second); its report is deterministic.
fuzz: build
	dune exec bin/abc_cli.exe -- fuzz --seed 1 --no-shrink

# Negative-oracle smoke: a resilience-boundary campaign (every case at
# n = 3f with an equivocator) must witness violations of Theorem 2
# precision and of EIG agreement; --expect-violations makes the exit
# code demand that every boundary oracle fired.  Every witness is
# shrunk, so the smoke runs the shrinker end to end as well.
boundary: build
	dune exec bin/abc_cli.exe -- fuzz --boundary --cases 25 --seed 1 --expect-violations

check: build test fuzz boundary

# Parallel-campaign determinism: run the same campaign serially and on
# a 4-domain worker pool and require byte-identical reports, then the
# pool unit suite.  The pooled run asks for 4 domains whatever the core
# count, so the identity is checked on a 1-core box too.  The second
# pair is a 400-case boundary campaign, where every case is a witness
# and is shrunk on whichever domain evaluated it: each shrink keeps its
# own last recorded run to cut its budget candidates from, and a run
# shared across domains would make the pooled report differ.  The third
# pair is the e = 9 model-checker box (~0.3 s each) on one domain and
# on two: its frontier tasks run concurrently, so a key or explorer
# scratch buffer shared between calls would show as a changed report.
check-par: build
	dune exec bin/abc_cli.exe -- fuzz --cases $(CASES) --seed 1 --jobs 1 > _build/par_serial.txt
	dune exec bin/abc_cli.exe -- fuzz --cases $(CASES) --seed 1 --jobs 4 > _build/par_pooled.txt
	cmp _build/par_serial.txt _build/par_pooled.txt
	dune exec bin/abc_cli.exe -- fuzz --boundary --cases 400 --seed 1000 --jobs 1 \
	  --expect-violations > _build/par_boundary_serial.txt
	dune exec bin/abc_cli.exe -- fuzz --boundary --cases 400 --seed 1000 --jobs 4 \
	  --expect-violations > _build/par_boundary_pooled.txt
	cmp _build/par_boundary_serial.txt _build/par_boundary_pooled.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 9 --stats --jobs 1 > _build/par_mc_serial.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 9 --stats --jobs 2 > _build/par_mc_pooled.txt
	cmp _build/par_mc_serial.txt _build/par_mc_pooled.txt
	dune exec test/test_main.exe -- test pool -q

# Model-checker smoke (a few seconds): explore the n = 3 clock box at
# budgets 6 and 8 and the e = 7 resilience-boundary box with
# --cross-check, so the replay engine and the table-pruned naive
# search must both agree with the default incremental DPOR run on
# every class and verdict.  The boundary box has receipt sequences
# that a hashed class identity merges, so a table keyed by anything
# but the exact canonical key fails its cross-check.  The exhaustive
# naive search on the same boxes, the DPOR reduction and the engines'
# delivery counts are checked in tier-1 (test_mc, test_mc_inc).
mc-smoke: build
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 6 --cross-check --jobs 1
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 8 --cross-check --jobs 1
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 7 --faults C,C,Beq \
	  --boundary --xi 3/2 --cross-check --jobs 1

# Distributed-campaign smoke: the sharded subprocess runner must be
# byte-identical to the serial report under a kill+stall nemesis and
# under a kill+corrupt nemesis; a supervisor-killed checkpointed run
# must exit 3, and with its journal's last record torn (3 bytes cut, a
# crash mid-append) --resume from the one whole record to exactly the
# uninterrupted report;
# the sharded model checker must match its serial run, on the e = 5
# boundary box and on the e = 8 one, where the supervisor's merge runs
# the battery of the 16 classes whose owning task's DPOR missed them;
# and a boundary campaign, whose every witness is shrunk inside the
# workers, must match its serial run on 2 shards.
dist-smoke: build
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 > _build/dist_serial.txt
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 --shards 4 \
	  --nemesis 'kill:0@2,stall:1@1' --heartbeat 2 > _build/dist_sharded.txt
	cmp _build/dist_serial.txt _build/dist_sharded.txt
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 --shards 4 \
	  --nemesis 'kill:0@1,corrupt:1@1' > _build/dist_corrupt.txt
	cmp _build/dist_serial.txt _build/dist_corrupt.txt
	rm -f _build/dist.ckpt
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 --shards 4 \
	  --checkpoint _build/dist.ckpt --nemesis 'skill@2' > /dev/null; test $$? -eq 3
	truncate -s -3 _build/dist.ckpt
	dune exec bin/abc_cli.exe -- fuzz --cases 200 --seed 1 --shards 4 \
	  --resume _build/dist.ckpt > _build/dist_resumed.txt
	cmp _build/dist_serial.txt _build/dist_resumed.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 5 --faults C,C,Beq \
	  --boundary > _build/dist_mc_serial.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 5 --faults C,C,Beq \
	  --boundary --shards 2 > _build/dist_mc_sharded.txt
	cmp _build/dist_mc_serial.txt _build/dist_mc_sharded.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 8 --faults C,C,Beq \
	  --boundary --xi 3/2 > _build/dist_mc8_serial.txt
	dune exec bin/abc_cli.exe -- mc --procs 3 --budget 8 --faults C,C,Beq \
	  --boundary --xi 3/2 --shards 2 > _build/dist_mc8_sharded.txt
	cmp _build/dist_mc8_serial.txt _build/dist_mc8_sharded.txt
	dune exec bin/abc_cli.exe -- fuzz --boundary --cases 48 --seed 1 \
	  --expect-violations > _build/dist_boundary_serial.txt
	dune exec bin/abc_cli.exe -- fuzz --boundary --cases 48 --seed 1 \
	  --expect-violations --shards 2 > _build/dist_boundary_sharded.txt
	cmp _build/dist_boundary_serial.txt _build/dist_boundary_sharded.txt

# Network smoke: campaigns over real localhost sockets must be
# byte-identical to the serial report — for a dialed unix-socket
# worker fleet, and for self-registering TCP workers (abc serve
# --connect) under every network fault the harness injects, including
# a stall that forces a heartbeat kill and a unit re-lease onto the
# surviving endpoint.  Workers run from the built binary directly so
# they can sit in the background without fighting dune's build lock.
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

# Code lines of the OCaml sources (.ml, .mli) in each lib/ directory and
# in total: non-blank lines outside comments.  tools/loc.ml lexes nested
# comments and string and character literals as OCaml does, and runs
# on the OCaml toplevel alone.
loc:
	ocaml tools/loc.ml lib

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

clean:
	dune clean
