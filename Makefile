# Convenience targets for the reproduction repository.

PY ?= python
# Run against the source tree without an editable install (matches the
# tier-1 command in ROADMAP.md).
PYPATH = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-all test-fast bench bench-quick bench-diff \
	bench-pytest bench-trend campaign engines-check examples \
	report report-paper verify verify-full resume-smoke all

install:
	$(PY) setup.py develop

# Tier 1: pyproject addopts default to -m "not slow".
test:
	$(PYPATH) $(PY) -m pytest tests/

# Everything, including the slow tier.
test-all:
	$(PYPATH) $(PY) -m pytest tests/ -m ""

test-fast:
	$(PYPATH) $(PY) -m pytest tests/ -m "not slow"

# Unified runner: writes a schema-versioned BENCH_*.json perf artifact
# (see docs/BENCHMARKING.md).
bench:
	$(PYPATH) $(PY) -m repro bench run

bench-quick:
	$(PYPATH) $(PY) -m repro bench run --filter primitives --repeats 1 --quick

# Usage: make bench-diff A=BENCH_old.json B=BENCH_new.json
bench-diff:
	$(PYPATH) $(PY) -m repro obs diff $(A) $(B)

bench-pytest:
	$(PYPATH) $(PY) -m pytest benchmarks/ --benchmark-only

# Perf trajectory over every committed BENCH_*.json (obs trend).
bench-trend:
	$(PYPATH) $(PY) -m repro obs trend --fail-on-regression

# Small parallel probed campaign (watch it live with `repro obs watch`).
campaign:
	$(PYPATH) $(PY) -m repro campaign --n 64 --replicas 8 --processes 2 --probe-every 50

# Cross-engine validation: the parity suite plus the support matrix
# (same gate as the CI engine-parity job; see docs/ENGINES.md).
engines-check:
	$(PYPATH) $(PY) -m pytest tests/test_engine_parity.py tests/test_scalar_stream.py tests/test_utils_rng.py -q
	$(PYPATH) $(PY) -m repro engines

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYPATH) $(PY) $$f; echo; done

report:
	$(PYPATH) $(PY) -m repro.experiments.report --scale smoke --out EXPERIMENTS.md

report-paper:
	$(PYPATH) $(PY) -m repro.experiments.report --scale paper --out EXPERIMENTS.md

# Lemma certificates + statistical acceptance battery
# (see docs/VERIFICATION.md).
verify:
	$(PYPATH) $(PY) -m repro verify --quick

verify-full:
	$(PYPATH) $(PY) -m repro verify --full

# Crash-injection + resume byte-diff suite and the save_every=0
# overhead gate (same subset as the CI resume-smoke job; see
# docs/CHECKPOINT.md).
resume-smoke:
	$(PYPATH) $(PY) -m pytest tests/test_checkpoint_resume.py -q
	$(PYPATH) $(PY) -m pytest benchmarks/bench_checkpoint.py -q --benchmark-disable -k overhead_ratio

all: test bench
