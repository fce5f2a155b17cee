"""Seeded inputs and exact oracles for the three benchmark workloads.

Everything here is the benchmark's own code: inputs come from
``random.Random(seed)`` and the expected answers from a union-find written
below, so a change to the program's generators or validators can move
neither the inputs nor the verdicts.  The program only ever sees the
generated inputs (see ``worker.py``).

Workloads (other documents refer to them by these names):

* ``mst_random`` -- one ``heterogeneous_mst`` call on a connected random
  graph with unique weights (the paper's Section 3 / Table 1 MST row).
* ``connectivity_planted`` -- one ``heterogeneous_connectivity`` call on a
  graph with planted components (Theorem C.1, AGM sketches).
* ``serve_stream`` -- a closed-loop client driving the JSONL protocol of
  the dynamic-graph service: signed update batches, each followed by
  ``connected`` queries.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("mst_random", "connectivity_planted", "serve_stream")

#: The seed used when none is given, and a second seed kept out of tuning
#: so a later performance claim can be re-checked on inputs nobody tuned on.
DEFAULT_SEED = 1
HOLDOUT_SEED = 2027

#: Input sizes.  ``full`` is the benchmark; ``tiny`` only exercises the
#: plumbing (``selftest.py``).
SCALES = {
    "full": {
        "mst_random": {"n": 960, "m": 8 * 960},
        "connectivity_planted": {"n": 640, "m": 2 * 640, "components": 4},
        "serve_stream": {
            "n": 1024, "shards": 4, "copies": 3, "groups": 8,
            "batches": 10, "batch": 1000, "queries": 200,
        },
    },
    "tiny": {
        "mst_random": {"n": 48, "m": 8 * 48},
        "connectivity_planted": {"n": 48, "m": 2 * 48, "components": 4},
        "serve_stream": {
            "n": 64, "shards": 2, "copies": 3, "groups": 4,
            "batches": 2, "batch": 40, "queries": 10,
        },
    },
}


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def labels(self) -> list[int]:
        """Smallest vertex of each vertex's component (roots are minima)."""
        return [self.find(v) for v in range(len(self.parent))]


def _tree_edges(block: list[int], rng: random.Random) -> set[tuple[int, int]]:
    """A random recursive spanning tree over the vertices of *block*."""
    edges = set()
    for index in range(1, len(block)):
        u, v = block[rng.randrange(index)], block[index]
        edges.add((min(u, v), max(u, v)))
    return edges


def _fill(blocks: list[list[int]], edges: set, m: int, rng: random.Random) -> None:
    """Add distinct random intra-block edges until there are *m*."""
    sizes = [len(block) for block in blocks]
    while len(edges) < m:
        block = rng.choices(blocks, weights=sizes)[0]
        u, v = rng.sample(block, 2)
        edges.add((min(u, v), max(u, v)))


def mst_input(n: int, m: int, rng: random.Random) -> tuple[list, list]:
    """Connected random graph with weights a permutation of ``1..m``;
    returns ``(edges, expected MST edges)``."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    pairs = _tree_edges(vertices, rng)
    _fill([vertices], pairs, m, rng)
    weights = list(range(1, m + 1))
    rng.shuffle(weights)
    edges = [(u, v, w) for (u, v), w in zip(sorted(pairs), weights)]
    uf = UnionFind(n)
    expected = sorted(e for e in sorted(edges, key=lambda e: e[2]) if uf.union(e[0], e[1]))
    return edges, expected


def connectivity_input(
    n: int, m: int, components: int, rng: random.Random
) -> tuple[list, list]:
    """*components* planted components over shuffled vertex ids; returns
    ``(edges, expected canonical labels)``."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    # Random sizes, each at least half the average: stars and bars over
    # the vertices left after every component gets its minimum.
    least = n // (2 * components)
    slots = n - least * components + components - 1
    bars = sorted(rng.sample(range(slots), components - 1))
    sizes = [least + b - a - 1 for a, b in zip([-1] + bars, bars + [slots])]
    starts = [sum(sizes[:index]) for index in range(components + 1)]
    blocks = [vertices[a:b] for a, b in zip(starts, starts[1:])]
    pairs: set[tuple[int, int]] = set()
    for block in blocks:
        pairs |= _tree_edges(block, rng)
    _fill(blocks, pairs, m, rng)
    edges = sorted(pairs)
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return edges, uf.labels()


def serve_input(
    n: int, seed: int, shards: int, copies: int, groups: int,
    batches: int, batch: int, queries: int, rng: random.Random,
) -> tuple[str, list[str], list]:
    """The JSONL session: an ``init`` line, then per batch one ``update``
    line (80% inserts of new edges, 20% deletes of live ones) and
    *queries* ``connected`` lines.

    Inserts stay inside hidden vertex groups, so the true graph never
    becomes connected and half the queries (random pairs) mostly cross
    components while the other half (same-group pairs) turn from
    disconnected to connected as the stream goes on.  Returns
    ``(init line, request lines, expected)`` where *expected* holds
    ``None`` for an update line and the true answer for a query line,
    from a union-find over the edges live after that batch.
    """
    init = json.dumps({"op": "init", "n": n, "seed": seed, "shards": shards, "copies": copies})
    group_of = [v % groups for v in range(n)]
    rng.shuffle(group_of)
    members = [[v for v in range(n) if group_of[v] == g] for g in range(groups)]
    live: list[tuple[int, int]] = []
    position: dict[tuple[int, int], int] = {}
    lines: list[str] = []
    expected: list = []
    deletes_per_batch = batch // 5
    for _ in range(batches):
        inserts = []
        while len(inserts) < batch - deletes_per_batch:
            u, v = rng.sample(members[rng.randrange(groups)], 2)
            edge = (min(u, v), max(u, v))
            if edge not in position:
                position[edge] = len(live)
                live.append(edge)
                inserts.append(edge)
        deletes = []
        for _ in range(deletes_per_batch):
            edge = live[rng.randrange(len(live))]
            last = live.pop()
            if last != edge:
                live[position[edge]] = last
                position[last] = position[edge]
            del position[edge]
            deletes.append(edge)
        lines.append(json.dumps({"op": "update", "insert": inserts, "delete": deletes}))
        expected.append(None)
        uf = UnionFind(n)
        for u, v in live:
            uf.union(u, v)
        for k in range(queries):
            if k % 2:
                u, v = rng.sample(members[rng.randrange(groups)], 2)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
            lines.append(json.dumps({"op": "connected", "u": u, "v": v}))
            expected.append(uf.find(u) == uf.find(v))
    return init, lines, expected


#: Distinct inputs per run; the run's processes cycle through them.  On
#: ``mst_random`` about a third of all random graphs finish in the
#: Boruvka phase and the rest pay ~20 more KKT rounds (~15% more time), so
#: a run averages eight graphs instead of landing on one mode or the other.
CASES = {"mst_random": 8, "connectivity_planted": 1, "serve_stream": 1}


def make(workload: str, seed: int, scale: str = "full", case: int = 0) -> tuple[dict, object]:
    """Build one input of a run: ``(program input, expected output)``.

    The program input is JSON-serializable and is all the worker passes
    to the program; the expected output stays with the benchmark.
    """
    params = SCALES[scale][workload]
    rng = random.Random(f"{workload}:{seed}:{case}")
    program_seed = f"{seed}:{case}"
    if workload == "mst_random":
        edges, expected = mst_input(params["n"], params["m"], rng)
        return {"n": params["n"], "edges": edges, "rng_seed": program_seed}, expected
    if workload == "connectivity_planted":
        edges, expected = connectivity_input(
            params["n"], params["m"], params["components"], rng
        )
        return {"n": params["n"], "edges": edges, "rng_seed": program_seed}, expected
    if workload == "serve_stream":
        init, lines, expected = serve_input(seed=seed, rng=rng, **params)
        return {"init": init, "lines": lines}, expected
    raise ValueError(f"unknown workload {workload!r}")
