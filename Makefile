# Convenience entry points.  Everything assumes the repo root as cwd and
# needs no installation beyond the checked-in source (PYTHONPATH=src).

PYTHON ?= python
PYTHONPATH := src

.PHONY: test chaos obs-smoke http-smoke jobs-smoke workers-smoke fleet-smoke delta-smoke lifecycle-smoke workflow-smoke bench-smoke bench bench-ledger ci

## Tier-1 test suite (the gate every change must keep green).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Fault-tolerance suite: driver fault matrix, resilience layers, the
## seeded chaos run (fixed seeds — fully deterministic, see tests/test_chaos.py)
## and the crash matrix of the durable log (tests/test_durable.py).
chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		tests/test_driver_faults.py tests/test_resilience.py tests/test_chaos.py \
		tests/test_durable.py

## Observability gate: the unit/integration suite plus a smoke-scale run
## of the overhead benchmark (which also validates that the Prometheus
## exposition parses).  Timing-ratio assertions are corpus-gated and do
## not fire at this scale.
obs-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q tests/test_observability.py
	REPRO_SCALE_A=0.1 REPRO_RESULTS_DIR=$$(mktemp -d) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q --benchmark-disable \
		benchmarks/bench_observability.py

## Live-endpoint smoke: start `service --http` as a real subprocess, scrape
## every operator endpoint (status codes + parseable bodies), then verify a
## clean SIGTERM shutdown and a released socket.
http-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/http_smoke.py

## Job-service smoke: start `service --http --jobs` as a real subprocess,
## drive submit --wait / dedup / listing over HTTP via the CLI, assert
## fingerprint parity with a direct validate, then SIGTERM-drain and
## verify the journal lost nothing.
jobs-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/jobs_smoke.py

## Multi-process worker smoke: coordinator subprocess + two external
## `confvalley worker` processes over a shared job directory; SIGKILL one
## mid-job and assert the lease expires, the job re-queues exactly once,
## the verdict fingerprint matches a direct run, and the completion
## webhook is delivered (after one induced 503).
workers-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/workers_smoke.py

## Fleet-observability smoke: coordinator subprocess + two external
## workers; assert one stitched end-to-end job trace across processes,
## worker-labeled federated /metrics, staleness fencing after a SIGKILL
## (dead worker ages out of the exposition but stays visible in /fleet),
## and that the trace survives the kill.
fleet-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/fleet_smoke.py

## Watch-mode delta smoke: start `service --delta --watch` as a real
## subprocess, edit one key, assert exactly one delta scan fires with the
## right scope and a fingerprint byte-identical to a full in-process scan,
## then verify idle polls stay quiet and SIGTERM shuts down cleanly.
delta-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/delta_smoke.py

## Inferred-spec lifecycle smoke: start `service --shadow` as a real
## subprocess and drive the full arc over HTTP + the CLI — re-inference
## registers candidates, clean scans promote, induced drift demotes the
## enforced spec, the operator re-promotes the survivor, and a restart
## on the same journal replays the exact enforced set.
lifecycle-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/lifecycle_smoke.py

## Composable-workflow smoke: `workflow validate`/`workflow run` over a
## real definition file (clean pass, injected fault -> gate skip + webhook
## delivery to a live local receiver), then the same pipeline as a
## mode=workflow job against a `service --http --jobs` subprocess with
## per-step statuses in the job record and verdict fingerprint parity.
workflow-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/workflow_smoke.py

## Run every benchmark on a tiny corpus — correctness of the bench
## harness itself, not a measurement.  See benchmarks/smoke.sh.
bench-smoke:
	sh benchmarks/smoke.sh

## Full benchmark run at the default (laptop-friendly) scales.
## Tables land in benchmarks/results/.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

## The benchmark ledger: four fixed workloads, end-to-end metrics (about
## 2.5 minutes; not part of `ci`).  See benchmarks/ledger/README.md.
bench-ledger:
	$(PYTHON) benchmarks/ledger/run.py

## What CI runs: the tier-1 suite, the chaos suite, the observability
## gate, the live-endpoint, job-service, multi-process worker,
## fleet-observability, watch-mode delta, lifecycle and workflow smokes,
## and the benchmark smoke pass.
ci: test chaos obs-smoke http-smoke jobs-smoke workers-smoke fleet-smoke delta-smoke lifecycle-smoke workflow-smoke bench-smoke
