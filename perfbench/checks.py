"""Output checks computed apart from the program.

Every function takes plain data (edge arrays, pair lists, partitions,
scores) and returns a list of problems, empty when the output is
right.  None of them calls the code under test: the matchings are
checked against their definitions, the effectiveness scores are
recounted from the pairs, UMC is re-derived by a greedy scan written
here, and connected components come from scipy.
``selftest.py`` hands each check a broken output and asserts that it
is flagged.
"""

from __future__ import annotations

import math

import numpy as np

#: Algorithms whose threshold rule keeps ``w >= t``; the others keep
#: ``w > t``.
INCLUSIVE_ALGORITHMS = frozenset({"CNC", "RCA"})


# ----------------------------------------------------------------------
# Bipartite matchings
# ----------------------------------------------------------------------
class GraphFacts:
    """Per-graph lookups the matching checks share.

    ``weights`` maps each ``(left, right)`` pair to its maximum edge
    weight; ``best_left`` / ``best_right`` hold each node's maximum
    weight; ``greedy`` is the UMC scan over all edges in the order
    weight descending, then ``(left, right)`` ascending: the accepted
    ``(weight, left, right)`` triples.  A scan over the edges above a
    threshold is a prefix of the full scan, so the UMC output at any
    threshold is the accepted triples above it.
    """

    def __init__(self, left, right, weight) -> None:
        left = np.asarray(left, dtype=np.int64).tolist()
        right = np.asarray(right, dtype=np.int64).tolist()
        weight = np.asarray(weight, dtype=np.float64).tolist()
        self.weights: dict[tuple[int, int], float] = {}
        self.best_left: dict[int, float] = {}
        self.best_right: dict[int, float] = {}
        for i, j, w in zip(left, right, weight):
            if w > self.weights.get((i, j), -math.inf):
                self.weights[(i, j)] = w
            if w > self.best_left.get(i, -math.inf):
                self.best_left[i] = w
            if w > self.best_right.get(j, -math.inf):
                self.best_right[j] = w
        self.greedy: list[tuple[float, int, int]] = []
        used_left: set[int] = set()
        used_right: set[int] = set()
        for w, i, j in sorted(
            zip(weight, left, right), key=lambda e: (-e[0], e[1], e[2])
        ):
            if i in used_left or j in used_right:
                continue
            used_left.add(i)
            used_right.add(j)
            self.greedy.append((w, i, j))


def admitted(weight: float, threshold: float, inclusive: bool) -> bool:
    return weight >= threshold if inclusive else weight > threshold


def check_matching(
    pairs, facts: GraphFacts, threshold: float, inclusive: bool
) -> list[str]:
    """One-to-one over edges the threshold rule admits."""
    problems = []
    seen_left: set[int] = set()
    seen_right: set[int] = set()
    for i, j in pairs:
        if i in seen_left:
            problems.append(f"left node {i} matched twice")
        if j in seen_right:
            problems.append(f"right node {j} matched twice")
        seen_left.add(i)
        seen_right.add(j)
        weight = facts.weights.get((i, j))
        if weight is None:
            problems.append(f"pair {(i, j)} is not an edge")
        elif not admitted(weight, threshold, inclusive):
            problems.append(
                f"pair {(i, j)} weight {weight} not admitted at {threshold}"
            )
    return problems


def expected_umc(facts: GraphFacts, threshold: float) -> list[tuple[int, int]]:
    return sorted((i, j) for w, i, j in facts.greedy if w > threshold)


def check_umc(pairs, facts: GraphFacts, threshold: float) -> list[str]:
    """UMC equals the greedy scan written here."""
    if sorted(pairs) != expected_umc(facts, threshold):
        return [f"UMC differs from the greedy scan at {threshold}"]
    return []


def check_mutual_best(pairs, facts: GraphFacts, threshold: float) -> list[str]:
    """Every EXC pair is a mutual maximum above the threshold."""
    problems = []
    for i, j in pairs:
        weight = facts.weights.get((i, j))
        if (
            weight is None
            or weight <= threshold
            or weight != facts.best_left[i]
            or weight != facts.best_right[j]
        ):
            problems.append(f"EXC pair {(i, j)} is not a mutual maximum")
    return problems


def effectiveness(
    pairs, truth: set
) -> tuple[int, int, int, float, float, float]:
    """(tp, output pairs, truth pairs, precision, recall, F1)."""
    output = set(pairs)
    tp = len(output & truth)
    precision = tp / len(output) if output else 0.0
    recall = tp / len(truth) if truth else 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return tp, len(output), len(truth), precision, recall, f1


def check_scores(pairs, truth: set, point) -> list[str]:
    """Precision, recall and F1 recounted from the pairs equal the
    sweep's ``point`` (a ``SweepPoint``)."""
    tp, n_out, n_truth, precision, recall, f1 = effectiveness(pairs, truth)
    scores = point.scores
    same = (
        (tp, n_out, n_truth)
        == (
            scores.true_positives,
            scores.output_pairs,
            scores.ground_truth_pairs,
        )
        and math.isclose(precision, scores.precision, rel_tol=1e-12)
        and math.isclose(recall, scores.recall, rel_tol=1e-12)
        and math.isclose(f1, scores.f_measure, rel_tol=1e-12)
    )
    if not same:
        return [
            f"scores at {point.threshold} differ: recounted "
            f"tp={tp} out={n_out} f1={f1!r}, sweep tp="
            f"{scores.true_positives} out={scores.output_pairs} "
            f"f1={scores.f_measure!r}"
        ]
    return []


def best_of(sweeps: list[list[float]]) -> int:
    """Index of the sweep with the highest best F1 (first on ties), the
    paper's rule for BMC's two basis collections."""
    return max(range(len(sweeps)), key=lambda k: max(sweeps[k]))


# ----------------------------------------------------------------------
# Resolution service
# ----------------------------------------------------------------------
def check_resolve(
    query: str, matches: list[dict], top_k: int, oracle
) -> list[str]:
    """A ``/resolve`` answer: at most ``top_k`` matches, sorted by
    score, each score equal to ``oracle(query, text)``."""
    problems = []
    if len(matches) > top_k:
        problems.append(f"{len(matches)} matches for top_k={top_k}")
    scores = [match["score"] for match in matches]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("matches are not sorted by score")
    for match in matches:
        expected = oracle(query, match["text"])
        if match["score"] != expected:
            problems.append(
                f"score {match['score']!r} for {match['id']} != {expected!r}"
            )
    return problems


def check_found(record_id: str, matches: list[dict]) -> list[str]:
    """An ingested record comes back for its own text with score 1.0."""
    if any(m["id"] == record_id and m["score"] == 1.0 for m in matches):
        return []
    return [f"ingested record {record_id} not found with score 1.0"]


# ----------------------------------------------------------------------
# Clustering
# ----------------------------------------------------------------------
def canonical(clusters) -> list[tuple[int, ...]]:
    return sorted(
        tuple(sorted(int(n) for n in cluster)) for cluster in clusters
    )


def components(
    n_nodes: int, u, v, weight, threshold: float
) -> list[tuple[int, ...]]:
    """Connected components of the edges with ``weight >= threshold``
    (the dirty-ER inclusive rule), singletons included."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    keep = np.asarray(weight, dtype=np.float64) >= threshold
    u = np.asarray(u, dtype=np.int64)[keep]
    v = np.asarray(v, dtype=np.int64)[keep]
    adjacency = coo_matrix((np.ones(len(u)), (u, v)), shape=(n_nodes, n_nodes))
    _, labels = connected_components(adjacency, directed=False)
    groups: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(node)
    return canonical(groups.values())


def check_partition(got, expected, name: str) -> list[str]:
    if canonical(got) != canonical(expected):
        return [f"{name} partition differs from the reference"]
    return []
