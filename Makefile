# Convenience targets for the Viper reproduction.

.PHONY: install test lint lint-local import-check fuzz chaos bench bench-delta bench-overload bench-e2e bench-pairs request-budget examples experiments clean

install:
	pip install -e . || python setup.py develop

# Tier-1; --durations keeps the slowest tests visible against the 90 s budget.
test:
	PYTHONPATH=src python -m pytest -x -q --durations=10

# Mirrors CI's lint job (requires: pip install -r requirements-dev.txt).
lint:
	ruff check src tests benchmarks examples
	ruff format --check src/repro/resilience
	mypy src/repro

# The stdlib-only part of the lint gate, runnable without ruff/mypy:
# byte-compile every module and fail on unused imports, bare excepts,
# mutable default arguments, duplicate definitions, undefined names,
# modules no entry point imports, and threads or queues built outside the
# one background worker class.
lint-local:
	python -m compileall -q src
	PYTHONPATH=src python -m pytest -q tests/test_lint_local.py

# Import each src/repro module alone in a fresh interpreter: an
# import-order cycle that a full import hides fails here (~25 s).
import-check:
	cd src && for mod in $$(find repro -name '*.py' | sed 's|/__init__\.py$$||; s|\.py$$||; s|/|.|g' | sort); do \
		python -c "import $$mod" || { echo "import-check: $$mod"; exit 1; }; \
	done

# Tier-1's hypothesis tests with fresh random draws, RUNS times over
# (tier-1 itself replays fixed draws):
#   make fuzz RUNS=20
RUNS ?= 5
fuzz:
	for i in $$(seq $(RUNS)); do \
		PYTHONPATH=src python -m pytest -x -q --hypothesis-profile=fuzz \
			$$(grep -rl --include='test_*.py' "from hypothesis import" tests) || exit 1; \
	done

# Fault-injection suite under an arbitrary seed, like CI's chaos job:
#   make chaos SEED=12345
SEED ?= 0
chaos:
	VIPER_FAULT_SEED=$(SEED) PYTHONPATH=src python -m pytest tests/resilience -q

bench:
	pytest benchmarks/ --benchmark-only

# Delta wire-path benchmark at full payload; regenerates
# benchmarks/results/BENCH_delta.json and enforces the wire/latency gates.
bench-delta:
	PYTHONPATH=src python -m pytest -x -q -s benchmarks/test_perf_delta_transfer.py

# Overload-protection benchmark over the chaos harness; regenerates
# benchmarks/results/BENCH_overload.json and enforces the admitted-p99 /
# shed-rate / broker-memory gates.
bench-overload:
	PYTHONPATH=src python -m pytest -x -q -s benchmarks/test_perf_overload.py

# The repository's benchmark (BENCHMARK.json): all five workloads through
# the real Viper -> ViperConsumer -> InferenceServer path, ~80 s.  Compare
# two result files with benchmarks/e2e/compare.py.  The run is appended to
# benchmarks/results/trajectory.jsonl under LABEL (default: the checkout's
# git describe, "-dirty" when uncommitted changes were measured).
#   make bench-e2e SEED=3 LABEL="my change"
LABEL ?= $(shell git describe --always --dirty 2>/dev/null || echo unlabelled)
bench-e2e:
	python3 benchmarks/e2e/run.py --seed $(SEED) --out benchmarks/results/BENCH_e2e.json
	python3 benchmarks/trajectory.py --label "$(LABEL)"

# N alternating untraced runs of each workload in W, this checkout against
# BASE (exported with git archive), then compare.py and the pair win
# counts per workload.
#   make bench-pairs W="serve_steady coupled_train_serve" N=10 BASE=HEAD~1 SEED=1
W ?= full_update
N ?= 10
BASE ?= HEAD
bench-pairs:
	python3 benchmarks/pairs.py --workload $(W) --n $(N) --base $(BASE) --seed $(SEED)

# What one serve_steady request costs, step by step (poll, clock, admit,
# route, each layer's forward, score, account, observe, release), next to
# the measured request p50; ~10 s.
request-budget:
	python3 benchmarks/request_budget.py --seed $(SEED)

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex || exit 1; done

experiments:
	python -m repro fig8
	python -m repro fig9
	python -m repro fig10
	python -m repro table1

# Caches only: benchmarks/results/ holds checked-in reference results
# and must survive a clean.
clean:
	rm -rf benchmarks/.curve_cache.npz .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
