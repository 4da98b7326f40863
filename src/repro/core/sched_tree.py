"""Scheduling trees (SCHED search space, Sec. IV-D).

The paper represents the per-window placement space as a forest of
scheduling trees: tree nodes are chiplets, edges follow the interposer
adjacency, each model owns a subtree rooted at a candidate start chiplet,
and a constrained DFS that reaches the model's node budget ``N_i`` emits a
candidate path.  A chiplet appears at most once across the whole tree
(exclusive occupancy).

This module enumerates exactly that: simple adjacency paths per model,
composed across models under mutual exclusion, in a deterministic seeded
order bounded by the :class:`~repro.core.budget.SearchBudget`.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from repro.core.budget import SearchBudget
from repro.mcm.package import MCM

Path = tuple[int, ...]
Placement = dict[int, Path]
"""Model index -> ordered chiplet path hosting its segment chain."""

NodeRank = dict[int, float]
"""Node id -> affinity score for one model (lower = preferred)."""

PathMemo = dict[tuple[int, int, int, frozenset[int]], list[Path]]
"""``(model, start, count, blocked)`` -> that model's :func:`simple_paths`."""


def simple_paths(mcm: MCM, start: int, length: int,
                 blocked: frozenset[int], limit: int,
                 node_rank: NodeRank | None = None) -> list[Path]:
    """Simple paths of exactly ``length`` nodes starting at ``start``.

    Paths follow the NoP adjacency (tree edges), never revisit a node and
    avoid ``blocked`` nodes.  At most ``limit`` paths are returned in DFS
    order; neighbors expand by ascending ``node_rank`` (heterogeneity-aware
    chiplet assignment: preferred-dataflow chiplets are explored first),
    with ascending node id as the deterministic tie-break.
    """
    if start in blocked or length < 1:
        return []
    results: list[Path] = []
    stack: list[int] = [start]
    visited = {start}

    def ordered_neighbors(node: int) -> list[int]:
        neighbors = mcm.topology.neighbors(node)
        if node_rank is None:
            return list(neighbors)
        return sorted(neighbors,
                      key=lambda n: (node_rank.get(n, 0.0), n))

    def dfs() -> None:
        if len(results) >= limit:
            return
        if len(stack) == length:
            results.append(tuple(stack))
            return
        for neighbor in ordered_neighbors(stack[-1]):
            if neighbor in visited or neighbor in blocked:
                continue
            stack.append(neighbor)
            visited.add(neighbor)
            dfs()
            visited.remove(neighbor)
            stack.pop()
            if len(results) >= limit:
                return

    dfs()
    return results


def placements(mcm: MCM, seg_counts: Sequence[tuple[int, int]],
               budget: SearchBudget,
               rng: random.Random | None = None,
               node_ranks: dict[int, NodeRank] | None = None,
               paths: PathMemo | None = None) -> Iterator[Placement]:
    """Enumerate complete placements for a window's segment chains.

    ``seg_counts`` is ``[(model, num_segments), ...]`` in the order models
    are placed (the paper's subtree order).  ``node_ranks[model]`` orders
    start chiplets (and DFS expansion) by the model's expected cost on
    each chiplet's dataflow class -- the heterogeneity-aware assignment of
    Fig. 1; without it, starts are visited in a seeded shuffled order.
    Yields lazily -- callers stop consuming when their evaluation budget
    is spent.

    Each DFS result is kept in ``paths`` (a fresh dict when omitted), so
    a (model, start, count, blocked) that recurs is enumerated once.  A
    caller may pass one dict to several calls that share ``mcm``,
    ``budget`` and ``node_ranks``: the window search does, across its
    segmentation combos.
    """
    rng = rng or random.Random(budget.seed)
    if paths is None:
        paths = {}
    models = list(seg_counts)
    total_needed = sum(count for _, count in models)
    if total_needed > mcm.num_chiplets:
        return

    start_orders: list[list[int]] = []
    for model, _ in models:
        order = list(range(mcm.num_chiplets))
        rng.shuffle(order)
        if node_ranks is not None and model in node_ranks:
            rank = node_ranks[model]
            order.sort(key=lambda n: rank.get(n, 0.0))
        start_orders.append(order)

    def assign(idx: int, blocked: frozenset[int],
               acc: Placement) -> Iterator[Placement]:
        if idx == len(models):
            yield dict(acc)
            return
        model, count = models[idx]
        rank = node_ranks.get(model) if node_ranks else None
        starts_tried = 0
        for start in start_orders[idx]:
            if start in blocked:
                continue
            key = (model, start, count, blocked)
            found = paths.get(key)
            if found is None:
                found = simple_paths(mcm, start, count, blocked,
                                     budget.max_paths_per_model, rank)
                paths[key] = found
            if not found:
                continue
            starts_tried += 1
            for path in found:
                acc[model] = path
                yield from assign(idx + 1, blocked | frozenset(path), acc)
            acc.pop(model, None)
            if starts_tried >= budget.max_root_combos:
                break

    yield from assign(0, frozenset(), {})
