"""``serve``: the warm resolution service under a closed loop of clients.

The app from ``create_app`` is driven in-process through
``AsgiClient`` (no sockets).  A round, in one fresh process:

* **set-up**: process start, imports, the lifespan warm-up that builds
  the d8 index (scale 0.15, 3,311 indexed records), and the seeded
  inputs;
* **timed phase**: four phases of 256 ``POST /resolve`` each, sent by
  16 client coroutines in a closed loop (each sends its next request
  when its last one is answered), with queries drawn from the served
  left collection.  Between phases, one ingest round of two
  ``POST /ingest`` requests of 512 records roughly doubles the indexed
  side over the round (3,311 to 6,383 records).  ``query_s`` is the
  wall time of the four resolve phases and ``build_s`` the summed
  latency of the six ingest requests.

Ingest never overlaps an in-flight resolve: ``ResolverIndex.ingest``
grows the probe's posting lists before it extends ``rights`` and
``right_ids``, so a concurrent resolve can raise ``IndexError``.
One operation is one request.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time

from common import peak_rss_mb, percentile, process_age

from checks import check_found, check_resolve

from repro.datasets import dataset_spec, generate_dataset
from repro.pipeline.blocking import BlockingIndex
from repro.pipeline.kernels import SparsePlan
from repro.service.app import ServiceConfig, create_app
from repro.service.resolver import ResolverService
from repro.service.testclient import AsgiClient
from repro.textsim.token_measures import jaccard_similarity
from repro.textsim.tokenize import tokens

DATASET = "d8"
SCALE = 0.15
MAX_PAIRS = 10**9  # no pair cap: the scale alone sets the size
CLIENTS = 16
PHASES = 4
RESOLVES_PER_PHASE = 256
INGEST_REQUESTS = 2  # per ingest round, between two phases
INGEST_BATCH = 512
TOP_K = 10
#: Ingested records looked up by their own text after the timed phase.
FOUND_SAMPLE = 64


def run_round(seed: int, tracer=None, full: bool = True) -> dict:
    return asyncio.run(_round(seed, tracer))


async def _round(seed: int, tracer) -> dict:
    config = ServiceConfig(
        datasets=(DATASET,), scale=SCALE, max_pairs=MAX_PAIRS, seed=seed
    )
    app = create_app(config)
    async with AsgiClient(app) as client:
        index = app.state["service"].index(DATASET)
        rng = random.Random(seed)
        lefts = index.dataset.left.texts()
        queries = [
            lefts[rng.randrange(len(lefts))]
            for _ in range(PHASES * RESOLVES_PER_PHASE)
        ]
        extra = generate_dataset(
            dataset_spec(DATASET, scale=SCALE, max_pairs=MAX_PAIRS),
            seed=seed + 1,
        ).right.texts()
        # A record without word tokens cannot be found by token blocking.
        extra = [text for text in extra if tokens(text)]
        n_ingest = (PHASES - 1) * INGEST_REQUESTS * INGEST_BATCH
        records = [
            {"id": f"ingest-{k}", "text": extra[k % len(extra)]}
            for k in range(n_ingest)
        ]
        out = {"setup_s": process_age()}

        if tracer is not None:
            _install(tracer)
        try:
            resolves, ingests, query_s = await _session(
                client, queries, records
            )
        finally:
            if tracer is not None:
                tracer.restore()
        out["peak_rss_mb"] = peak_rss_mb()
        out["query_s"] = query_s
        out["build_s"] = sum(end - start for start, end, _, _ in ingests)
        latencies = [(end - start) * 1e3 for start, end, *_ in resolves]
        ingest_ms = [(end - start) * 1e3 for start, end, *_ in ingests]
        out["detail"] = {
            "resolve_rps": [len(resolves) / query_s, "1/s"],
            "resolve_p50_ms": [percentile(latencies, 50), "ms"],
            "resolve_p99_ms": [percentile(latencies, 99), "ms"],
            "ingest_p50_ms": [percentile(ingest_ms, 50), "ms"],
        }
        out["attempted"] = len(resolves) + len(ingests)
        failed, problems = await _check(
            client, resolves, ingests, records, seed
        )
        out["failed"] = failed
        out["problems"] = problems
        answers = sorted(
            (phase, query, json.dumps(body))
            for _, _, query, body, phase in resolves
        )
        encoded = json.dumps(answers).encode()
        out["digest"] = hashlib.sha256(encoded).hexdigest()
        if tracer is not None:
            out["layers"], out["counts"] = _layers(tracer, resolves, index)
        return out


async def _session(client, queries, records):
    """The timed phase: resolve phases separated by ingest rounds."""
    resolves = []  # (start, end, query, body or None, phase)
    ingests = []  # (start, end, records, ok)
    query_s = 0.0
    cursor = 0
    for phase in range(PHASES):
        first = phase * RESOLVES_PER_PHASE
        pending = iter(queries[first : first + RESOLVES_PER_PHASE])

        async def client_loop():
            for query in pending:
                start = time.perf_counter()
                response = await client.post(
                    "/resolve",
                    {"dataset": DATASET, "record": query, "top_k": TOP_K},
                )
                end = time.perf_counter()
                ok = response.status == 200
                body = response.json()["matches"] if ok else None
                resolves.append((start, end, query, body, phase))

        start = time.perf_counter()
        await asyncio.gather(*(client_loop() for _ in range(CLIENTS)))
        query_s += time.perf_counter() - start
        if phase == PHASES - 1:
            break
        for _ in range(INGEST_REQUESTS):
            batch = records[cursor : cursor + INGEST_BATCH]
            cursor += INGEST_BATCH
            start = time.perf_counter()
            response = await client.post(
                "/ingest", {"dataset": DATASET, "records": batch}
            )
            ingests.append(
                (start, time.perf_counter(), batch, response.status == 200)
            )
    return resolves, ingests, query_s


async def _check(client, resolves, ingests, records, seed: int):
    failed = 0
    problems: list[str] = []
    for _, _, query, body, _ in resolves:
        found = (
            ["resolve failed"]
            if body is None
            else check_resolve(query, body, TOP_K, jaccard_similarity)
        )
        if found:
            failed += 1
            problems += found[:2]

    sample = random.Random(seed).sample(records, FOUND_SAMPLE)

    async def lookup(record):
        response = await client.post(
            "/resolve",
            {"dataset": DATASET, "record": record["text"], "top_k": TOP_K},
        )
        if response.status != 200:
            return [f"lookup of {record['id']} failed"]
        return check_found(record["id"], response.json()["matches"])

    missing = await asyncio.gather(*(lookup(r) for r in sample))
    lost = {r["id"] for r, found in zip(sample, missing) if found}
    for found in missing:
        problems += found
    for _, _, batch, ok in ingests:
        if not ok or any(r["id"] in lost for r in batch):
            failed += 1
    return failed, problems[:10]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _install(tracer) -> None:
    import repro.service.resolver as resolver

    def note_batch(span, args, result):
        span.attrs["queries"] = args[3]
        span.attrs["n_queries"] = len(args[3])

    def note_probe(span, args, result):
        span.attrs["n_candidates"] = int(result.shape[0])

    def note_strings(span, args, result):
        span.attrs["n_indexed"] = len(args[1])

    tracer.patch(
        ResolverService, "resolve_batch", "resolver.batch", note_batch
    )
    tracer.patch(ResolverService, "ingest", "blocking.ingest")
    tracer.patch(BlockingIndex, "probe", "resolver.probe", note_probe)
    tracer.patch(resolver, "StringBatch", "resolver.plan", note_strings)
    tracer.patch(SparsePlan, "build", "resolver.plan")
    tracer.patch(resolver, "schema_based_pairs", "resolver.kernel")


def _layers(tracer, resolves, index) -> tuple[dict, dict]:
    batches = tracer.named("resolver.batch")
    per_pass = {"probe": 0.0, "plan": 0.0, "kernel": 0.0}
    candidates = 0
    cells = 0
    for batch in batches:
        probes = tracer.children(batch, "resolver.probe")
        plans = tracer.children(batch, "resolver.plan")
        per_pass["probe"] += sum(s.seconds for s in probes)
        per_pass["plan"] += sum(s.seconds for s in plans)
        per_pass["kernel"] += sum(
            s.seconds for s in tracer.children(batch, "resolver.kernel")
        )
        found = sum(s.attrs["n_candidates"] for s in probes)
        candidates += found
        for plan in plans:
            if "n_indexed" in plan.attrs:
                cells += batch.attrs["n_queries"] * plan.attrs["n_indexed"]
    n_batches = max(len(batches), 1)
    n_queries = sum(b.attrs["n_queries"] for b in batches)
    batch_ms = [b.seconds * 1e3 for b in batches]
    waits = []
    for start, end, query, _, _ in resolves:
        tracer.add_span("client.resolve", start, end)
        inside = [b for b in batches if start <= b.start and b.end <= end]
        served = [b for b in inside if query in b.attrs["queries"]]
        if served:
            last = max(served, key=lambda b: b.end)
            waits.append((end - start - last.seconds) * 1e3)
    rank_ms = (sum(batch_ms) - sum(per_pass.values()) * 1e3) / n_batches
    ingest_ms = [s.seconds * 1e3 for s in tracer.named("blocking.ingest")]
    layers = {
        "scheduler.queue_wait_ms": percentile(waits, 50) if waits else 0.0,
        "scheduler.batch_size": n_queries / n_batches,
        "resolver.batch_ms": percentile(batch_ms, 50) if batch_ms else 0.0,
        "resolver.probe_ms": per_pass["probe"] * 1e3 / n_batches,
        "resolver.plan_ms": per_pass["plan"] * 1e3 / n_batches,
        "resolver.kernel_ms": per_pass["kernel"] * 1e3 / n_batches,
        "resolver.rank_ms": rank_ms,
        "resolver.candidates_per_query": candidates / max(n_queries, 1),
        "resolver.candidate_share": candidates / max(cells, 1),
        "blocking.ingest_ms": percentile(ingest_ms, 50),
    }
    counts = {"resolver.indexed": index.n_indexed}
    return layers, counts
