"""The repository's benchmark: one workload, measured from outside.

    python3 perfbench/run.py --workload {protocol,serve,stream}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each round of the workload runs in a
fresh process (``rounds.py``); rounds repeat until the measured time
(set-up plus timed stages) reaches ``--seconds``, and the round in
progress always completes.  With ``--trace 0`` every round is
untraced and the end-to-end metrics of ``BENCHMARK.json`` are the
medians over rounds (peak memory: the largest).  With ``--trace 1``
untraced and traced rounds alternate; the per-layer metrics are the
medians over the traced rounds, the workload's own metrics
(``corpus_s``, ``resolve_p99_ms``, ...) the medians over the untraced
ones, and ``trace.overhead_s`` is the traced minus the untraced
timed-stage wall time.  A layer a workload does not reach reads 0.
Traced runs write Chrome trace-event JSON to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Standard
error carries a human-readable report, including each workload's own
metrics (``corpus_s``, ``resolve_p99_ms``, ...), and a final
``perfbench-detail`` JSON line that ``steady.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    BLAS_ENV,
    BLAS_THREADS,
    OUT,
    ROOT,
    SCRATCH,
    SRC,
    WORKLOADS,
    emit,
    last_json_line,
    median,
)

#: No round starts after this much wall time, so a run ends well
#: within three minutes even on a slow machine.
WALL_LIMIT_S = 110.0
ROUND_TIMEOUT_S = 170.0


def _environment() -> dict:
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _round(args, env, traced=False, full=False, trace_file=None):
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "rounds.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    if traced:
        command.append("--traced")
    if full:
        command.append("--full")
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    done = subprocess.run(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{args.workload} round exited with {done.returncode}"
        )
    return last_json_line(done.stdout)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    env = _environment()
    started = time.monotonic()
    rounds: list[dict] = []
    trace_parts = []
    measured = 0.0
    try:
        while True:
            index = len(rounds)
            traced = bool(args.trace) and index % 2 == 1
            trace_file = None
            if traced:
                OUT.mkdir(exist_ok=True)
                trace_file = OUT / f".{args.workload}-{args.seed}-{index}.json"
                trace_parts.append(trace_file)
            result = _round(
                args,
                env,
                traced=traced,
                full=index == 0,
                trace_file=trace_file,
            )
            result["traced"] = traced
            rounds.append(result)
            measured += (
                result["setup_s"] + result["build_s"] + result["query_s"]
            )
            enough = measured >= args.seconds and (
                not args.trace or len(rounds) >= 2
            )
            if enough or time.monotonic() - started > WALL_LIMIT_S:
                break
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    for r in rounds[1:]:
        if r["digest"] != rounds[0]["digest"]:
            failed += r["attempted"] - r["failed"]
            problems.append("a round's outputs differ from the first round's")
    # An operation fails when it returns an error or a check rejects its
    # output; on working code none does, so one failure makes the run
    # incorrect, untraced or traced.
    correct = failed == 0

    untraced = [r for r in rounds if not r["traced"]]
    detail = {
        name: [median([r["detail"][name][0] for r in untraced]), unit]
        for name, (_, unit) in untraced[0]["detail"].items()
    }
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        counts = traced[0]["counts"]
        if any(r["counts"] != counts for r in traced):
            correct = False
            problems.append("per-layer counts differ between rounds")
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        for name in traced[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced])
        values.update(counts)
        values.update({name: value for name, (value, _) in detail.items()})
        timed = [
            median([r["build_s"] + r["query_s"] for r in group])
            for group in (traced, untraced)
        ]
        values["trace.overhead_s"] = timed[0] - timed[1]
        values["trace.overhead_pct"] = 100.0 * (timed[0] - timed[1]) / timed[1]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _merge_traces(args, trace_parts)
    else:
        values = {
            "setup_s": median([r["setup_s"] for r in rounds]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "build_s": median([r["build_s"] for r in rounds]),
            "query_s": median([r["query_s"] for r in rounds]),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }

    _report(args, rounds, attempted, failed, problems, metrics, detail)
    emit(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )
    return 0


def _merge_traces(args, parts) -> None:
    events = []
    for pid, part in enumerate(parts):
        for event in json.loads(part.read_text()):
            event["pid"] = pid
            events.append(event)
        part.unlink()
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "traceEvents": events,
                "metadata": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "blas_threads": BLAS_THREADS,
                },
            }
        )
    )
    print(f"trace written to {path}", file=sys.stderr)


def _report(
    args, rounds, attempted, failed, problems, metrics, detail
) -> None:
    err = sys.stderr
    print(
        f"perfbench {args.workload} seed {args.seed}: {len(rounds)} rounds, "
        f"{attempted} operations, {failed} failed, BLAS/OpenMP threads "
        f"{BLAS_THREADS}",
        file=err,
    )
    for problem in problems[:10]:
        print(f"  problem: {problem}", file=err)
    for name, (value, unit) in detail.items():
        print(f"  {name:<28} {value:12.4f} {unit}", file=err)
    for name, metric in metrics.items():
        print(
            f"  {name:<28} {metric['value']:12.4f} {metric['unit']}", file=err
        )
    print(
        "perfbench-detail "
        + json.dumps(
            {
                "rounds": len(rounds),
                "detail": detail,
                "blas_threads": BLAS_THREADS,
                "per_round": {
                    key: [r[key] for r in rounds]
                    for key in ("setup_s", "build_s", "query_s")
                },
            }
        ),
        file=err,
    )


if __name__ == "__main__":
    sys.exit(main())
