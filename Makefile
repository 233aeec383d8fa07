# Developer entry points. Run from the repository root.
#
#   make test        - tier-1 test suite (the gate every PR must keep green)
#   make chaos       - fault-injection suite for the sharded service
#                      (shard kills, hangs, flaky transport) under a hard
#                      wall-clock timeout
#   make bench-smoke - fast serving + streaming + kernel + service benchmarks
#                      (assert speedups; smoke runs gate against
#                      benchmarks/baselines.json with recorded margins and
#                      print per-gate wall time)
#   make bench       - every paper-table benchmark (slow: trains many selectors)
#   make perfbench   - the end-to-end benchmark: one run of every workload
#                      in BENCHMARK.json (seed 0, 10 s each), printing
#                      each workload's JSON report
#   make stream-demo - run the streaming quickstart example end to end
#   make obs-demo    - run the observability walkthrough example end to end
#   make distill-demo - run the distill + quantize + refresh example end to end
#   make cascade-demo - run the cost-aware cascade + SLO admission example
#   make docs-check  - docstring + documentation-link checks

PYTHON ?= python
PYTHONPATH := src

#: hard wall-clock ceiling for the chaos suite — a hung shard or a stuck
#: recovery loop must fail the build, not wedge it
CHAOS_TIMEOUT ?= 600

.PHONY: test chaos bench-smoke bench perfbench stream-demo obs-demo distill-demo cascade-demo docs-check

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

chaos:
	PYTHONPATH=$(PYTHONPATH) timeout $(CHAOS_TIMEOUT) $(PYTHON) -m pytest -x -q tests/chaos

bench-smoke:
	@export PYTHONPATH=$(PYTHONPATH); set -e; \
	total=$$(date +%s); \
	gate() { name=$$1; shift; start=$$(date +%s); "$$@"; \
	  echo "gate $$name: $$(( $$(date +%s) - start ))s"; }; \
	gate bench-pytest        $(PYTHON) -m pytest -q benchmarks/bench_serving_throughput.py benchmarks/bench_streaming_throughput.py; \
	gate detector-kernels    $(PYTHON) benchmarks/bench_detector_kernels.py --smoke; \
	gate streaming           $(PYTHON) benchmarks/bench_streaming_throughput.py --smoke; \
	gate service-scalability $(PYTHON) benchmarks/bench_service_scalability.py --smoke; \
	gate serving-tiers       $(PYTHON) benchmarks/bench_serving_throughput.py --smoke; \
	gate e2e-slo             $(PYTHON) benchmarks/bench_e2e_slo.py --smoke; \
	echo "bench-smoke total: $$(( $$(date +%s) - total ))s"

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q benchmarks/

perfbench:
	@set -e; for workload in $$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
	  python3 perfbench/run.py --workload $$workload --seed 0 --seconds 10; \
	done

stream-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/streaming_quickstart.py

obs-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/observability_demo.py

distill-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/distill_demo.py

cascade-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/cascade_demo.py

docs-check:
	$(PYTHON) tools/docs_check.py
