"""One round of one workload, in a fresh process.

``run.py`` starts this script once per round and reads the JSON object
it prints last: set-up time, the timed stages, peak memory, the
operations attempted and failed with the first problems found, a
digest of the outputs and, in a traced round, the per-layer metrics.

    python3 perfbench/rounds.py --workload serve --seed 1 [--traced]
        [--full] [--trace-file PATH]
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import SRC, WORKLOADS, emit
from tracing import Tracer

sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the checks that are too slow for every round",
    )
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    workload = importlib.import_module(f"workloads.{args.workload}")
    tracer = Tracer() if args.traced else None
    out = workload.run_round(args.seed, tracer, full=args.full)
    if tracer is not None and args.trace_file:
        tracer.counts.update(out.get("counts", {}))
        with open(args.trace_file, "w") as handle:
            json.dump(tracer.chrome_events(), handle)
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
