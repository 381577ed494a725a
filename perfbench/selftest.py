"""Self-test of the benchmark's output checks.

Each check gets a right output, which must pass, and broken ones (a
node matched twice, a perturbed score, a dropped cluster member, ...),
which must be flagged.  Needs numpy and scipy, not the program.

    python3 perfbench/selftest.py     # exit status 0 when every case holds
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from checks import (
    GraphFacts,
    best_of,
    canonical,
    check_found,
    check_matching,
    check_mutual_best,
    check_partition,
    check_resolve,
    check_scores,
    check_umc,
    components,
    effectiveness,
    expected_umc,
)

# A 3 x 3 graph with a tie (0.8 on (1, 1) and (2, 0)) and a duplicate
# edge (0, 0) whose larger weight counts.
LEFT = [0, 0, 1, 1, 2, 2, 0]
RIGHT = [0, 1, 1, 2, 0, 2, 0]
WEIGHT = [0.9, 0.7, 0.8, 0.3, 0.8, 0.5, 0.4]


def _point(threshold, pairs, truth):
    tp, n_out, n_truth, precision, recall, f1 = effectiveness(pairs, truth)
    scores = SimpleNamespace(
        true_positives=tp,
        output_pairs=n_out,
        ground_truth_pairs=n_truth,
        precision=precision,
        recall=recall,
        f_measure=f1,
    )
    return SimpleNamespace(threshold=threshold, scores=scores)


def _tokens_jaccard(a: str, b: str) -> float:
    x, y = set(a.split()), set(b.split())
    return len(x & y) / len(x | y)


def cases():
    facts = GraphFacts(LEFT, RIGHT, WEIGHT)
    # Greedy: 0.9 (0,0); 0.8 (1,1) before (2,0) by left index, then
    # (2,0) is blocked by right 0; 0.5 (2,2).
    umc = expected_umc
    yield "greedy scan order", umc(facts, 0.0) == [(0, 0), (1, 1), (2, 2)]
    yield "greedy above threshold", umc(facts, 0.6) == [(0, 0), (1, 1)]
    yield "duplicate edge keeps max", facts.weights[(0, 0)] == 0.9

    good = [(0, 0), (1, 1), (2, 2)]
    one = check_matching
    yield "one-to-one passes", not one(good, facts, 0.1, False)
    yield "node matched twice", bool(one([(0, 0), (0, 1)], facts, 0.1, False))
    yield "right matched twice", bool(one([(0, 0), (2, 0)], facts, 0.1, False))
    yield "pair not an edge", bool(one([(2, 1)], facts, 0.1, False))
    yield "weight under threshold", bool(one([(1, 2)], facts, 0.5, False))
    yield "strict rule rejects w == t", bool(one([(2, 2)], facts, 0.5, False))
    yield "inclusive rule admits w == t", not one([(2, 2)], facts, 0.5, True)

    yield "UMC passes", not check_umc(good, facts, 0.1)
    yield "UMC wrong pair", bool(check_umc([(0, 0), (2, 1)], facts, 0.1))
    yield "UMC missing pair", bool(check_umc([(0, 0), (1, 1)], facts, 0.1))

    exc = check_mutual_best
    yield "EXC mutual best passes", not exc([(0, 0), (1, 1)], facts, 0.1)
    yield "EXC not mutual", bool(exc([(2, 2)], facts, 0.1))
    yield "EXC under threshold", bool(exc([(0, 0)], facts, 0.95))

    truth = {(0, 0), (1, 1), (2, 1)}
    point = _point(0.1, good, truth)
    yield "scores pass", not check_scores(good, truth, point)
    extra = good + [(2, 0)]
    yield "scores: extra pair", bool(check_scores(extra, truth, point))
    bent = _point(0.1, good, truth)
    bent.scores.f_measure += 1e-9
    yield "scores: perturbed F1", bool(check_scores(good, truth, bent))
    yield "best of: first on ties", best_of([[0.2, 0.5], [0.5, 0.1]]) == 0
    yield "best of: higher wins", best_of([[0.2, 0.3], [0.5, 0.1]]) == 1

    query = "blue usb cable"
    matches = [
        {"id": "a", "text": "blue usb cable", "score": 1.0},
        {"id": "b", "text": "usb cable", "score": 2 / 3},
        {"id": "c", "text": "red cable", "score": 0.25},
    ]
    perturbed = [dict(m) for m in matches]
    perturbed[1]["score"] = 2 / 3 + 1e-12

    def resolve(answer, top_k=3):
        return check_resolve(query, answer, top_k, _tokens_jaccard)

    yield "resolve passes", not resolve(matches)
    yield "perturbed score", bool(resolve(perturbed))
    yield "unsorted matches", bool(resolve(matches[::-1]))
    yield "more than top_k", bool(resolve(matches, top_k=2))
    yield "ingested record found", not check_found("a", matches)
    yield "ingested record missing", bool(check_found("z", matches))
    yield "ingested record below 1.0", bool(check_found("b", matches))

    u, v, w = [0, 1, 3, 4], [1, 2, 4, 5], [0.9, 0.5, 0.49, 0.7]
    expected = [(0, 1, 2), (3,), (4, 5), (6,)]

    def partition(clusters):
        return check_partition(clusters, expected, "CC")

    yield "components", components(7, u, v, w, 0.5) == expected
    yield "partition passes", not partition([{2, 1, 0}, {3}, {5, 4}, {6}])
    yield "dropped cluster member", bool(partition([{0, 1}, {3}, {4, 5}, {6}]))
    yield "merged clusters", bool(partition([{0, 1, 2, 3}, {4, 5}, {6}]))
    yield "canonical order", canonical([{2, 1}, {0}]) == [(0,), (1, 2)]


def main() -> int:
    failures = 0
    for name, held in cases():
        print(f"{'ok  ' if held else 'FAIL'} {name}")
        failures += not held
    print(f"{failures} of the self-test cases failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
