"""Steadiness check: every benchmark workload N times, each run fresh.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

It runs the workloads that ``BENCHMARK.json`` lists, each run lasting
its ``run_seconds``, the length the bounds are set for.  Run ``i`` uses
seed ``first-seed + i`` for every workload; the order of the workloads
alternates between runs (forward, then reversed) so that
a slow drift of the machine does not land on one workload.  For each
workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance
as a share of the median, the figure each end-to-end bound in
``BENCHMARK.json`` must stay above; then the same for the workload's
own metrics from the ``perfbench-detail`` line, and the share of
failed operations.  ``run.py`` pins the BLAS/OpenMP threads and makes
and removes each round's temporary cache directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import ROOT, last_json_line, quartiles


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    detail_lines = [
        line
        for line in done.stderr.splitlines()
        if line.startswith("perfbench-detail ")
    ]
    detail = json.loads(detail_lines[-1].split(" ", 1)[1])
    return last_json_line(done.stdout), detail


def _row(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    spread = (q3 - q1) / q2 if q2 else float("nan")
    return (
        f"  {name:<24} median {q2:12.4f} {unit:<6} q1 {q1:12.4f} "
        f"q3 {q3:12.4f} spread {spread:7.2%}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = tuple(w["name"] for w in spec["workloads"])
    raw: dict[str, list] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result, detail = _run(workload, args.first_seed + i, seconds)
            raw[workload].append({"result": result, "detail": detail})
            print(
                f"run {i} {workload}: "
                + " ".join(
                    f"{k}={v['value']:.4f}"
                    for k, v in sorted(result["metrics"].items())
                ),
                flush=True,
            )

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        runs = raw[workload]
        print(f"{workload}: {len(runs)} runs, {seconds} s each")
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            print(_row(name, values, unit) + f"  bound {bounds[name]:.0%}")
        for name, (_, unit) in runs[0]["detail"]["detail"].items():
            values = [r["detail"]["detail"][name][0] for r in runs]
            print(_row(name, values, unit))
        shares = sorted(
            {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        )
        rounds = [r["detail"]["rounds"] for r in runs]
        print(f"  failed share {shares}  rounds per run {rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
