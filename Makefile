# Convenience targets mirroring the CI workflow (.github/workflows/ci.yml)

.PHONY: test lint lint-analysis sanitize docs-check doc-links profile \
	bench chaos retrieval-fuzz scope-fuzz serve serve-smoke snapshot-smoke \
	store-torture src-size warm-ask

test:
	PYTHONPATH=src python -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed — skipping lint (CI runs it)"; \
	fi

# the in-repo static-analysis gates: the repo-invariant linter
# (RP001-RP011, including the cross-module lock-order rules), the
# query-graph validator sweep over MVQA, and mypy (when installed —
# CI always runs it)
lint-analysis:
	PYTHONPATH=src python -m repro lint-code
	PYTHONPATH=src python -m repro lint-queries --fast
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed — skipping type check (CI runs it)"; \
	fi

# deterministic runtime lock/race sanitizer sweep: run the pipeline
# with every lock instrumented and fail on any inversion or race
sanitize:
	PYTHONPATH=src python -m repro sanitize

# docstring coverage gate on the documented packages (ruff pydocstyle
# D rules, scoped — the rest of the tree is exempt)
docs-check:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check --select D100,D101,D102,D103,D104,D105,D419 \
			src/repro/core src/repro/observability \
			src/repro/graph src/repro/serve src/repro/resilience; \
	else \
		echo "ruff not installed — skipping docs check (CI runs it)"; \
	fi

# every relative markdown link and path/to/file.py:line reference in
# the documentation tier must resolve against the working tree
doc-links:
	python scripts/check_doc_links.py

# the size of src/ on one line (line, public-symbol and config-field
# counts), tracked like a benchmark: each change reports its delta
src-size:
	python scripts/src_size.py

# deterministic per-stage profile of the fast MVQA suite; writes the
# artifacts the CI observability job byte-diffs
profile:
	PYTHONPATH=src python -m repro profile --fast \
		--snapshot metrics_snapshot.json --spans spans.jsonl \
		--baseline BENCH_baseline.json

bench:
	PYTHONPATH=src python -m pytest benchmarks --benchmark-only -s

# seeded fault-injection sweep over MVQA: accuracy must decay
# gracefully (no unhandled exception, every degraded answer attributed)
chaos:
	PYTHONPATH=src python -m repro chaos --fast

# extensional-equivalence fuzz of the embedding score memo: it must
# equal the linear rank_scores/max_score scans (the oracle) outright,
# in the index and through the executor
retrieval-fuzz:
	PYTHONPATH=src python -m pytest -x -q tests/nlp/test_ann.py \
		tests/nlp/test_embed_cache.py \
		tests/core/test_executor_retrieval.py

# differential fuzz of key-level retirement: scope ids, "kind of"
# answers, served relation pairs and held neighborhoods must equal the
# full-scan oracles after seeded mutation runs, in a long-lived session
# and against a racing writer (more seeds and longer runs than the
# tier-1 copy of the checks)
scope-fuzz:
	PYTHONPATH=src python -m pytest -x -q tests/core/scope_fuzz.py

# long-lived QA server over the movie scenario (POST /ask,
# GET /healthz, GET /metrics)
serve:
	PYTHONPATH=src python -m repro serve

# boot a real server on an ephemeral port and exercise all three
# endpoints over HTTP (the CI serve-smoke job runs the same script)
serve-smoke:
	python scripts/serve_smoke.py

# write a snapshot, boot a cold and a warm server, and byte-diff the
# /ask and /metrics transcripts (warm start must be indistinguishable)
snapshot-smoke:
	python scripts/snapshot_smoke.py

# in-process wall time of a warm, repeated /ask: the WSGI call,
# answer() and execute per ask, and Python calls per ask, as median
# and IQR over passes of a seeded Zipf stream (ungated: host-dependent)
warm-ask:
	python scripts/warm_ask.py

# exhaustive crash-torture sweep: damage every snapshot/WAL byte
# boundary and assert recovery never yields a silent partial load
store-torture:
	PYTHONPATH=src python -m repro store-torture --seed 0
