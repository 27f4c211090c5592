.PHONY: all build test lint race bench bench-check bench-diff perf-smoke check check-smoke soak net-smoke net-chaos clean

all: build

build:
	dune build

test:
	dune runtest

# Static analysis: dr_lint's five determinism / confinement rules (L1-L5)
# over lib/ bin/ bench/. Nonzero exit on any finding or stale pragma.
lint:
	dune build @lint

# Whole-program domain-safety analysis: dr_race's R1-R3 rules against the
# zone map in dr-race.zones, plus a regenerate-and-diff of the committed
# census (RACE_INVENTORY.json). Regenerate the census after changing
# module-level mutable state:
#   dune exec bin/dr_race_main.exe -- --inventory > RACE_INVENTORY.json
race:
	dune build @race

# Full benchmark run: writes BENCH_engine.json / BENCH_protocols.json in the
# working directory (several minutes).
bench:
	dune exec bench/bench_regress.exe

# Fast smoke pass of the same harness (small sizes, few repeats) — the CI
# guard that the bench path itself keeps working.
bench-check:
	dune build @bench-smoke

# Compare a previous run against the committed reference numbers:
#   make bench && make bench-diff OLD=path/to/old
OLD ?= .
bench-diff:
	dune exec bin/dr_bench_diff.exe -- $(OLD)/BENCH_engine.json BENCH_engine.json
	dune exec bin/dr_bench_diff.exe -- $(OLD)/BENCH_protocols.json BENCH_protocols.json

# Correctness smoke of the repository benchmark (perfbench/): a 2-second
# run of each simulator workload, then a traced sim-byz run, which also
# drives the benchmark's transport wrapper and its net probe. run.py exits
# nonzero when any op fails its verdict, its Spec bound or a re-execution
# check. Only the exit code matters: figures from so short a run are not a
# measurement.
perf-smoke:
	for w in sim-byz sim-crash check-byz; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done
	python3 perfbench/run.py --workload sim-byz --seed 1 --seconds 2 --trace 1

# Model checker: schedule-fuzz every registry protocol against the invariant
# oracle (agreement / termination / spec-bound). `make check` is the real
# budget; check-smoke is the fast fixed-seed CI gate.
BUDGET ?= 5000
SEED ?= 1
check:
	dune exec bin/dr_check_main.exe -- --all --budget $(BUDGET) --seed $(SEED)

check-smoke:
	dune build @check-smoke

# Coverage-guided campaign soak (dr_check --campaign over every protocol,
# bounded budget): fails on any violation and leaves the deterministic
# campaign statistics in CHECK_CAMPAIGN.json next to the BENCH_*.json files.
# The CI gate `dune build @check-soak` runs the same campaign and fails when
# its statistics differ from the committed CHECK_CAMPAIGN.json.
soak:
	dune build bin/check_campaign.json
	cp _build/default/bin/check_campaign.json CHECK_CAMPAIGN.json
	dune build @check-soak

# Socket-runtime smoke: run registry protocols as k real OS processes over
# loopback (dr_download --transport net) and require the download to verify.
net-smoke:
	dune build @net-smoke

# The same socket runs under seeded fault injection (dr_download --chaos):
# dropped/corrupted/stalled transmissions, forced source disconnects, lost
# replies and a source blackout — all masked below the protocols'
# assumptions, so every run must still verify with the right verdict.
net-chaos:
	dune build @net-chaos

clean:
	dune clean
