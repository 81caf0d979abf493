"""Seeded system documents for the benchmark workloads.

Every document is built here from ``random.Random`` and written as JSON
text directly, never through the library, so a change to the program
cannot change the workloads.  Each family is a fixed catalog of entries;
entry ``k`` of family ``f`` is always the same document.  A run seed picks
which entries a pass uses (``select``), so any seed maps onto documents
whose outputs were recorded from the program once (``pinned/``).
"""

from __future__ import annotations

import itertools
import json
import random
import statistics

# Family parameters.  Widths count attackable components: actuators plus
# unprotected sensors; catalog entries cycle through them.  A pass of a
# slotted family holds one document per slot, of that slot's width.
# Edge probabilities are per ordered state pair.
FAMILIES = {
    "index-wide": {
        "catalog": 40,
        "states": (25, 40),
        "widths": (10,),
        # Widths 11 (3-6 s a system) and 12 (6-17 s) are left out, so
        # that a 40 s run makes four or more passes for each system's
        # median even when the host runs at half speed.
        "slots": (10, 10, 10),
        "pool": 6,
        "state_edge_density": 2.0,  # expected out-degree; probability 2/n
        "why": "exponential subset search in index/linking dominates; oracle idle",
    },
    "verify-mid": {
        "catalog": 60,
        "states": (16, 20),
        "widths": (7, 8, 9),
        "slots": (7, 8, 9),
        "pool": 4,
        "state_edge_density": 2.0,
        "why": "the only family where the numerical oracle runs",
    },
    "batch-small": {
        "catalog": 1024,
        "states": (2, 8),
        "widths": (1, 2, 3, 4, 5, 6),
        "state_edge_density": 1.5,
        "why": "one-shot documents: parse and graph build dominate, search trivial",
    },
}


def _entry_rng(family: str, entry: int) -> random.Random:
    return random.Random(f"secindex-bench/{family}/{entry}")


def _document(
    rng: random.Random, n: int, q: int, m: int, unprotected: int, density: float, description: str
) -> str:
    """One system: each actuator drives one state, each sensor reads one or two states."""
    states = [f"x{k + 1}" for k in range(n)]
    actuators = [f"u{k + 1}" for k in range(q)]
    exposed = set(rng.sample(range(m), unprotected))
    sensors = [{"name": f"y{k + 1}", "protected": k not in exposed} for k in range(m)]
    p = min(1.0, density / n)
    w_edges = [[a, b] for a in states for b in states if a != b and rng.random() < p]
    b_edges = [[u, rng.choice(states)] for u in actuators]
    c_edges = []
    for s in sensors:
        for x in sorted(rng.sample(states, rng.randint(1, min(2, n)))):
            c_edges.append([x, s["name"]])
    doc = {
        "schema_version": "1",
        "description": description,
        "states": states,
        "actuators": actuators,
        "sensors": sensors,
        "edges": {
            "state_to_state": w_edges,
            "actuator_to_state": b_edges,
            "state_to_sensor": c_edges,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def document(family: str, entry: int) -> str:
    """Catalog entry ``entry`` of ``family`` as document text."""
    params = FAMILIES[family]
    if not 0 <= entry < params["catalog"]:
        raise IndexError(f"{family} has no catalog entry {entry}")
    rng = _entry_rng(family, entry)
    width = width_of(family, entry)
    n = rng.randint(*params["states"])
    if family == "batch-small":
        q = rng.randint(1, min(3, width))
        unprotected = width - q
        m = rng.randint(max(1, unprotected), unprotected + 2)
    else:
        # About half the sensors are protected.
        q = width // 2
        unprotected = width - q
        m = 2 * unprotected
    return _document(
        rng, n, q, m, unprotected, params["state_edge_density"], f"{family} catalog entry {entry}"
    )


def width_of(family: str, entry: int) -> int:
    widths = FAMILIES[family]["widths"]
    return widths[entry % len(widths)]


BATCH_DOCUMENTS = 600


def pools(family: str, seconds: list[float]) -> dict[int, list[int]]:
    """Per width, the ``pool`` entries whose pinned ``seconds`` lie nearest the width's median.

    Drawing a run's documents from these keeps its total work nearly the
    same whatever the seed.
    """
    params = FAMILIES[family]
    result = {}
    for width in params["widths"]:
        members = [e for e in range(params["catalog"]) if width_of(family, e) == width]
        middle = statistics.median(seconds[e] for e in members)
        nearest = sorted(members, key=lambda e: (abs(seconds[e] - middle), e))
        result[width] = sorted(nearest[: params["pool"]])
    return result


def select(family: str, seed: int, seconds: list[float] | None = None) -> list[int]:
    """Catalog entries one pass uses, drawn from ``seed`` alone.

    batch-small takes a sample of the catalog.  The other families fill
    their slots from the pools of their widths (chosen by the entries'
    pinned ``seconds``): the pools allow a fixed, shuffled list of
    distinct sets of entries, and ``seed`` indexes it, so consecutive
    seeds never share a set.
    """
    if family == "batch-small":
        # The same number of documents of each width, so the median
        # latency, which falls between widths, barely moves with the seed.
        rng = random.Random(f"secindex-bench/select/{family}/{seed}")
        widths = FAMILIES[family]["widths"]
        catalog = range(FAMILIES[family]["catalog"])
        entries = [
            e
            for w in widths
            for e in rng.sample([e for e in catalog if width_of(family, e) == w], BATCH_DOCUMENTS // len(widths))
        ]
        rng.shuffle(entries)
        return entries
    slots = FAMILIES[family]["slots"]
    pool = pools(family, seconds)
    widths = sorted(set(slots))
    sets = [
        [e for group in choice for e in group]
        for choice in itertools.product(*(itertools.combinations(pool[w], slots.count(w)) for w in widths))
    ]
    random.Random(f"secindex-bench/select/{family}").shuffle(sets)
    return sets[seed % len(sets)]
