"""``stream``: incremental dirty ER over a record arrival stream.

A round, in one fresh process:

* **set-up**: process start, imports and the seeded d3 dataset at
  scale 1.0 (4,393 records in the left + right union collection);
* **timed phase**: ``replay_stream`` with the ``repro stream``
  defaults (jaccard, threshold 0.5, batch 32, clusterers CC, MCC, EMCC
  and GECG) and ``tokens:max_df=0.02`` blocking (``build_s``), then
  one ``partition()`` read per clusterer (``query_s``).  Plain
  ``tokens`` blocking makes the final GECG read swamp the replay.

The first round of a run checks the replay against the batch path with
``stream_report``; every round checks the CC partition against scipy's
connected components, and later rounds must reproduce the first
round's graph and partitions exactly.  One operation is one insertion
batch or one clusterer read.
"""

from __future__ import annotations

import hashlib
import time

from common import peak_rss_mb, process_age

from checks import canonical, check_partition, components

from repro.datasets import dataset_spec, generate_dataset
from repro.pipeline.streaming import (
    COMPILED_VIEWS,
    replay_stream,
    stream_report,
)

DATASET = "d3"
SCALE = 1.0
MAX_PAIRS = 10**9  # no pair cap: the scale alone sets the size
BLOCKING = "tokens:max_df=0.02"
MEASURE = "jaccard"
THRESHOLD = 0.5
BATCH_SIZE = 32


def run_round(seed: int, tracer=None, full: bool = True) -> dict:
    dataset = generate_dataset(
        dataset_spec(DATASET, scale=SCALE, max_pairs=MAX_PAIRS), seed=seed
    )
    texts = dataset.left.texts() + dataset.right.texts()
    out = {"setup_s": process_age()}

    start = time.perf_counter()
    result = replay_stream(
        texts,
        measure=MEASURE,
        blocking=BLOCKING,
        threshold=THRESHOLD,
        seed=seed,
        batch_size=BATCH_SIZE,
    )
    middle = time.perf_counter()
    partitions = {}
    reads = {}
    for code, clusterer in result.clusterers.items():
        read_start = time.perf_counter()
        partitions[code] = clusterer.partition()
        reads[code] = (read_start, time.perf_counter())
    end = time.perf_counter()

    out["peak_rss_mb"] = peak_rss_mb()
    out["build_s"] = middle - start
    out["query_s"] = end - middle
    out["detail"] = {
        "stream_records_per_s": [len(texts) / (middle - start), "1/s"],
        "partition_s": [end - middle, "s"],
    }
    out["attempted"] = result.n_batches + len(partitions)
    out["failed"], out["problems"] = _check(result, partitions, texts, full)
    digest = hashlib.sha256()
    for name in COMPILED_VIEWS:
        digest.update(getattr(result.compiled, name).tobytes())
    canonical_parts = {c: canonical(p) for c, p in partitions.items()}
    digest.update(repr(canonical_parts).encode())
    out["digest"] = digest.hexdigest()
    if tracer is not None:
        tracer.add_span("stream.replay", start, middle)
        for code, (read_start, read_end) in reads.items():
            tracer.add_span(f"clustering.{code}", read_start, read_end)
        probe = result.probe_seconds
        score = result.score_seconds
        update = result.update_seconds
        out["layers"] = {
            "stream.probe_s": probe,
            "stream.score_s": score,
            "stream.update_s": update,
            "stream.build_s": (middle - start) - probe - score - update,
            **{f"clustering.{c}_s": b - a for c, (a, b) in reads.items()},
        }
        out["counts"] = {
            "stream.batches": result.n_batches,
            "stream.pairs_scored": result.n_pairs_scored,
            "stream.edges": result.n_edges,
        }
    return out


def _check(result, partitions, texts, full: bool) -> tuple[int, list[str]]:
    failed = 0
    problems: list[str] = []
    compiled = result.compiled
    expected_cc = components(
        compiled.n_nodes,
        compiled.u_sorted,
        compiled.v_sorted,
        compiled.weight_sorted,
        THRESHOLD,
    )
    bad_reads = set()
    if check_partition(partitions["CC"], expected_cc, "CC"):
        bad_reads.add("CC")
        problems.append("CC partition differs from scipy's components")
    if full:
        report = stream_report(result, texts)
        if not report["graph_identical"]:
            failed += result.n_batches
            problems.append("streamed graph differs from the batch path")
        for code, same in report["partitions_identical"].items():
            if not same:
                bad_reads.add(code)
                problems.append(
                    f"{code} partition differs from the batch path"
                )
    return failed + len(bad_reads), problems
