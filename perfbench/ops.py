"""Seeded inputs, expected-output digests and percentiles.

Pure data: nothing here imports the program, so the op lists can be
generated, compared byte for byte and unit-tested without it.  The
worker (:mod:`worker`) turns these plain dicts into the program's own
request and trace objects.

Three input families, one per workload:

``search_ops(seed)``   102 distinct in-process requests over the Table III
                       x Fig. 6 grid (:data:`SEARCH_GRID`, 180 requests).
``serve_ops(seed)``    1000 memo-hit submits over the 20-request
                       :data:`SERVE_POOL`, Zipf-popular.
``replay_trace(seed)`` a 75-event AR/VR tenant trace over the six
                       :data:`TENANTS` that visits every one of their 41
                       possible active sets.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import combinations

# -- search-vector ---------------------------------------------------------

SCENARIOS = tuple(range(1, 11))
#: The Fig. 6 templates the workload spans.  het_cross_6x6 runs the
#: evolutionary policy, as the paper does for 6x6 packages.
TEMPLATE_POLICIES = (
    ("het_sides_3x3", "scar"),
    ("het_cb_3x3", "scar"),
    ("het_t", "scar"),
    ("simba_nvd_3x3", "scar"),
    ("simba_shi_3x3", "scar"),
    ("het_cross_6x6", "evolutionary"),
)
OBJECTIVES = ("edp", "latency", "energy")

#: Every request any seed can generate: (scenario, template, policy,
#: objective) at the default budget and nsplits.
SEARCH_GRID = tuple(
    {"scenario_id": scenario, "template": template, "policy": policy,
     "objective": objective}
    for scenario in SCENARIOS
    for template, policy in TEMPLATE_POLICIES
    for objective in OBJECTIVES)

#: Pairs per run: a 30-pair design in which every scenario appears 3
#: times and every template 5 times, plus 4 pairs, one on each of
#: :data:`EXTRA_SCENARIOS` and on distinct templates.  Balancing both
#: axes keeps the run's cost nearly the same for every seed; 34 pairs x 3
#: objectives = 102 requests, enough for a p90 with 10 samples beyond it.
SEARCH_PAIRS = 34
#: The scenarios that appear a fourth time (two datacenter, two AR/VR).
EXTRA_SCENARIOS = (1, 4, 7, 10)


def search_ops(seed: int) -> list[dict]:
    """The seeded request list of one search-vector run.

    Every request is distinct (no memo hits); each sampled
    (scenario, template) pair is requested under all three objectives,
    one objective per round, so two thirds of requests revisit a pair
    the session has already searched.
    """
    rng = random.Random(f"perfbench:search:{seed}")
    others = [s for s in SCENARIOS if s not in EXTRA_SCENARIOS]
    scenarios = rng.sample(EXTRA_SCENARIOS, len(EXTRA_SCENARIOS)) \
        + rng.sample(others, len(others))
    templates = rng.sample(TEMPLATE_POLICIES, len(TEMPLATE_POLICIES))
    # k -> (k mod 10, k mod 6) is one-to-one for k < 30 (lcm(10, 6));
    # the 4 extra pairs (on scenarios[0:4], the EXTRA_SCENARIOS) take the
    # opposite parity, so they are new too.
    pairs = [(scenarios[k % 10], templates[k % 6]) for k in range(30)]
    pairs += [(scenarios[k % 10], templates[(k + 1) % 6])
              for k in range(30, SEARCH_PAIRS)]
    orders = [rng.sample(OBJECTIVES, len(OBJECTIVES)) for _ in pairs]
    ops = []
    for round_index in range(len(OBJECTIVES)):
        for index in rng.sample(range(len(pairs)), len(pairs)):
            scenario, (template, policy) = pairs[index]
            ops.append({"scenario_id": scenario, "template": template,
                        "policy": policy,
                        "objective": orders[index][round_index]})
    return ops


# -- serve-hits ------------------------------------------------------------

#: The replica's working set: warmed once (untimed), then every timed op
#: is a memo hit on one of these.
SERVE_POOL = tuple(
    {"scenario_id": scenario, "template": template, "policy": "scar",
     "objective": "edp"}
    for scenario in SCENARIOS
    for template in ("het_sides_3x3", "het_cb_3x3"))
SERVE_OPS = 1000
ZIPF_EXPONENT = 1.0


def serve_counts() -> list[int]:
    """Ops per pool entry: exact Zipf shares of :data:`SERVE_OPS`.

    Popularity ranks are a fixed shuffle of the pool (not per seed): the
    multiset of requests, and so the bytes the run moves, is the same
    for every seed; only the order varies.
    """
    ranks = random.Random("perfbench:serve:ranks").sample(
        range(len(SERVE_POOL)), len(SERVE_POOL))
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks]
    total = sum(weights)
    counts = [math.floor(SERVE_OPS * w / total) for w in weights]
    # Largest remainders take the ops rounding left over.
    leftover = SERVE_OPS - sum(counts)
    by_remainder = sorted(range(len(counts)), key=lambda i: (
        -(SERVE_OPS * weights[i] / total - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def serve_ops(seed: int) -> list[int]:
    """Seeded order of pool indices for one serve-hits run."""
    ops = [index for index, count in enumerate(serve_counts())
           for _ in range(count)]
    random.Random(f"perfbench:serve:{seed}").shuffle(ops)
    return ops


# -- replay-warm -----------------------------------------------------------

#: Six AR/VR tenants: (id, zoo model, batch, deadline_s).  Deadlines
#: sit inside the tenant's latency range across co-tenant sets for
#: eyecod, midas and emformer (they miss in some sets) and above it for
#: the others, so the deadline-miss rate is 3/6 whenever the trace
#: visits every active set.
TENANTS = (
    ("eyecod#a", "eyecod", 2, 0.001),
    ("hand_sp#a", "hand_sp", 1, 0.01),
    ("sp2dense#a", "sp2dense", 1, 0.05),
    ("midas#a", "midas", 1, 0.34),
    ("emformer#a", "emformer", 1, 0.04),
    ("hrvit#a", "hrvit", 1, 0.25),
)
MAX_ACTIVE = 3
REPLAY_EVENTS = 75
TRACE_NAME = "perfbench:arvr"

#: Every active set a trace can reach: 6 + 15 + 20 = 41.
ACTIVE_SETS = tuple(
    tuple(sorted(ids))
    for size in range(1, MAX_ACTIVE + 1)
    for ids in combinations([tenant[0] for tenant in TENANTS], size))


def set_key(tenants) -> str:
    """Identity of an active set: its sorted tenant ids."""
    return "+".join(sorted(tenants))


def _moves(active: frozenset) -> list[frozenset]:
    ids = [tenant[0] for tenant in TENANTS]
    moves = []
    if len(active) < MAX_ACTIVE:
        moves += [active | {tenant} for tenant in ids if tenant not in active]
    if len(active) > 1:
        moves += [active - {tenant} for tenant in sorted(active)]
    return moves


def _first_steps(active: frozenset, visited: set) -> list[frozenset]:
    """First moves of every shortest path from ``active`` to a set not
    yet visited (breadth-first, carrying each state's first moves)."""
    layer = {move: {move} for move in _moves(active)}
    seen = {active, *layer}
    while layer:
        targets = [state for state in layer if state not in visited]
        if targets:
            return list(set().union(*(layer[state] for state in targets)))
        following: dict[frozenset, set] = {}
        for state, firsts in layer.items():
            for move in _moves(state):
                if move not in seen:
                    following.setdefault(move, set()).update(firsts)
        seen.update(following)
        layer = following
    return []


def replay_trace(seed: int) -> dict:
    """One tenant arrives or departs per tick; 1..3 tenants stay active.

    The walk goes to an unvisited active set whenever one is a move
    away (else one step along a shortest path to one) until all 41 are
    visited, then moves at random.  So every seed searches the same 41
    sets, in its own order, and the remaining events are memo hits.
    """
    rng = random.Random(f"perfbench:replay:{seed}")
    by_id = {tenant[0]: tenant for tenant in TENANTS}
    active = frozenset({rng.choice(sorted(by_id))})
    visited = {active}
    states = [active]
    while len(states) < REPLAY_EVENTS:
        if len(visited) < len(ACTIVE_SETS):
            options = [m for m in _moves(active) if m not in visited] \
                or _first_steps(active, visited)
        else:
            options = _moves(active)
        active = rng.choice(sorted(options, key=sorted))
        visited.add(active)
        states.append(active)
    events = []
    previous: frozenset = frozenset()
    for tick, state in enumerate(states):
        (tenant,) = state ^ previous
        if tenant in state:
            _, model, batch, deadline = by_id[tenant]
            events.append({"tick": tick, "kind": "arrive", "tenant": tenant,
                           "model": model, "batch": batch,
                           "deadline_s": deadline})
        else:
            events.append({"tick": tick, "kind": "depart",
                           "tenant": tenant})
        previous = state
    return {"name": TRACE_NAME, "use_case": "arvr", "events": events}


# -- expected outputs ------------------------------------------------------


def search_key(spec: dict) -> str:
    """Identity of a search request in the expected file."""
    return (f"{spec['scenario_id']}|{spec['template']}|{spec['policy']}|"
            f"{spec['objective']}")


def payload_digest(payload: dict) -> str:
    """sha256 of a result's deterministic payload, as canonical JSON.

    ``payload`` holds the fields ``ScheduleResult.same_payload`` compares
    apart from the request: schedule, metrics, window candidates and the
    evaluation count (see :func:`worker.payload`).  Floats serialize with
    ``repr``, so the digest is bit-exact.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- statistics ------------------------------------------------------------

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples, p: float) -> float | None:
    """Nearest-rank percentile, or ``None`` below :data:`MIN_BEYOND`.

    The nearest-rank ``p``-th percentile of ``n`` samples is the
    ``ceil(p/100 * n)``-th smallest; it is refused unless at least
    ``MIN_BEYOND`` samples lie above that rank.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if not ordered or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]
