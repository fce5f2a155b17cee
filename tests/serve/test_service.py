"""GraphService: incremental state, validation, and differential replay.

The replay tests are the correctness contract of the whole serve stack:
after *any* prefix of signed update batches, the service's canonical
component labels must equal a from-scratch run (same seed) on the
surviving edge multiset.  The from-scratch reference is parametrized:
``numpy`` is :func:`repro.core.connectivity.sketch_components` (the
production pipeline), ``pure`` is the pure-Python reference bank of
``tests/sketch_oracle.py``.  Likewise the MST-weight estimate must
exactly replay :func:`repro.core.mst_approx.approximate_mst_weight`.
"""

from __future__ import annotations

import random

import pytest

from repro.core.connectivity import sketch_components
from repro.core.mst_approx import approximate_mst_weight, geometric_thresholds
from repro.graph.graph import Graph
from repro.mpc import Cluster, ModelConfig
from repro.primitives.edgestore import EdgeStore
from repro.serve import GraphService, ServeConfig, ServiceError
from repro.sketches import GraphSketchSpec
from sketch_oracle import ListBank, list_boruvka

REFERENCES = ("pure", "numpy")


def oracle_labels(n: int, spec: GraphSketchSpec, edges) -> list[int]:
    """Canonical labels from the pure-Python reference bank."""
    bank = ListBank(spec, range(n))
    bank.update_edges(edges)
    uf, _ = list_boruvka(bank)
    smallest: dict[int, int] = {}
    for v in range(n):
        smallest.setdefault(uf.find(v), v)
    return [smallest[uf.find(v)] for v in range(n)]


def scratch_labels(n: int, seed: int, edges, copies: int = 3,
                   backend: str = "numpy") -> list[int]:
    """From-scratch Theorem C.1 run on *edges* — the replay reference."""
    if backend == "pure":
        spec = GraphSketchSpec.generate(n, random.Random(seed), copies=copies)
        return oracle_labels(n, spec, edges)
    cluster = Cluster(
        ModelConfig.heterogeneous(n=n, m=max(4, len(edges))),
        rng=random.Random(987),
    )
    store = EdgeStore.create(cluster, list(edges), name="replay")
    return sketch_components(cluster, store, n, random.Random(seed), copies=copies)


def random_batches(n, rng, batches=4, per_batch=12):
    """A stream of insert/delete batches; deletes target live edges."""
    live: list[tuple[int, int]] = []
    stream = []
    for _ in range(batches):
        inserts = []
        for _ in range(per_batch):
            u, v = rng.randrange(n), rng.randrange(n)
            inserts.append((u, v))
            if u != v:
                live.append((min(u, v), max(u, v)))
        deletes = []
        for _ in range(min(len(live), per_batch // 2)):
            deletes.append(live.pop(rng.randrange(len(live))))
        stream.append((inserts, deletes))
    return stream


@pytest.mark.parametrize("backend", REFERENCES)
def test_differential_replay_after_every_prefix(backend):
    n, seed = 20, 11
    service = GraphService(ServeConfig(n=n, seed=seed, shards=3))
    for inserts, deletes in random_batches(n, random.Random(4)):
        service.update(insert=inserts, delete=deletes)
        surviving = [(u, v) for u, v, _ in service.surviving_edges()]
        reference = scratch_labels(n, seed, surviving, backend=backend)
        assert service.components().labels == reference


@pytest.mark.parametrize("backend", REFERENCES)
def test_replay_holds_with_multi_edges_and_loops(backend):
    n, seed = 12, 3
    service = GraphService(ServeConfig(n=n, seed=seed))
    # Parallel edges and self-loops stream through like anything else.
    service.update(insert=[(0, 1), (0, 1), (1, 0), (5, 5), (2, 7)])
    service.update(delete=[(0, 1)])
    surviving = [(u, v) for u, v, _ in service.surviving_edges()]
    assert surviving == [(0, 1), (0, 1), (2, 7), (5, 5)]
    assert service.components().labels == scratch_labels(
        n, seed, surviving, backend=backend
    )
    # Deleting the remaining multiplicity disconnects 0 and 1.
    service.update(delete=[(0, 1), (1, 0)])
    assert not service.connected(0, 1)
    assert service.components().labels == scratch_labels(
        n, seed, [(2, 7), (5, 5)], backend=backend
    )


def oracle_mst_weight(n: int, edges, seed: int, epsilon: float, copies: int) -> dict:
    """``approximate_mst_weight``'s blockwise estimate with every
    threshold's components from the reference bank (same rng discipline:
    one ``rng.random()`` for the cluster, then one spec per threshold)."""
    rng = random.Random(seed)
    rng.random()
    max_weight = max(w for _, _, w in edges)
    thresholds = geometric_thresholds(max_weight, epsilon)
    counts = {}
    for t in thresholds:
        spec = GraphSketchSpec.generate(n, rng, copies=copies)
        counts[t] = len(set(oracle_labels(n, spec, [e for e in edges if e[2] <= t])))
    estimate = float(n - 1)
    for j, t in enumerate(thresholds):
        upper = thresholds[j + 1] if j + 1 < len(thresholds) else max_weight
        estimate += max(0, upper - t) * (counts[t] - 1)
    return {"estimate": estimate, "thresholds": thresholds, "component_counts": counts}


@pytest.mark.parametrize("backend", REFERENCES)
def test_mst_weight_replays_from_scratch_run(backend):
    n, seed, max_weight = 14, 6, 9
    rng = random.Random(1)
    edges, seen = [], set()
    while len(edges) < 20:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        edges.append((min(u, v), max(u, v), rng.randrange(1, max_weight + 1)))
    edges[0] = (edges[0][0], edges[0][1], max_weight)

    service = GraphService(ServeConfig(n=n, seed=seed, max_weight=max_weight))
    churn = [edges[3][0], edges[3][1], 2]
    service.update(insert=[list(e) for e in edges] + [churn])
    service.update(delete=[churn])
    got = service.mst_weight()

    if backend == "pure":
        reference = oracle_mst_weight(n, edges, seed, epsilon=0.5, copies=3)
    else:
        result = approximate_mst_weight(
            Graph(n=n, edges=tuple(edges), weighted=True),
            epsilon=0.5,
            rng=random.Random(seed),
            copies=3,
        )
        reference = {
            "estimate": result.estimate,
            "thresholds": result.thresholds,
            "component_counts": result.component_counts,
        }
    assert got["estimate"] == reference["estimate"]
    assert got["thresholds"] == reference["thresholds"]
    assert got["component_counts"] == [
        reference["component_counts"][t] for t in reference["thresholds"]
    ]


def test_refresh_is_lazy_and_cached():
    service = GraphService(ServeConfig(n=8, seed=0))
    service.update(insert=[(0, 1), (1, 2)])
    assert service.refreshes == 0
    service.connected(0, 2)
    service.connected(1, 2)
    service.components()
    assert service.refreshes == 1  # one rebuild served all three queries
    service.update(insert=[(3, 4)])
    service.connected(3, 4)
    assert service.refreshes == 2


def test_update_batch_is_atomic_on_bad_delete():
    service = GraphService(ServeConfig(n=8, seed=0))
    service.update(insert=[(0, 1)])
    before = service.components().labels
    with pytest.raises(ServiceError, match="surviving"):
        service.update(insert=[(2, 3)], delete=[(4, 5)])
    # The rejected batch moved nothing — not even its inserts.
    assert service.surviving_edges() == [(0, 1, 1)]
    assert service.components().labels == before


def test_rejected_batch_leaves_ledger_total_and_shards_unchanged():
    service = GraphService(ServeConfig(n=12, seed=4, shards=3, max_weight=6))
    service.update(insert=[(0, 1, 2), (0, 1, 2), (3, 4, 5), (6, 7, 1)])
    ledger = service.surviving_edges()
    total = service.stats()["edges"]
    banks = service._shards + service._mst_banks
    counters = [(b.s0.copy(), b.s1.copy(), b.s2.copy()) for b in banks]
    rejected = (
        # one more delete than the surviving multiplicity, after inserts
        dict(insert=[(8, 9, 3)], delete=[(0, 1, 2), (1, 0, 2), (0, 1, 2)]),
        # a delete of an edge never inserted
        dict(insert=[(2, 5, 1)], delete=[(5, 6, 1)]),
        # a malformed edge after valid ones
        dict(insert=[(2, 5, 1), (2, 12, 1)]),
    )
    for batch in rejected:
        with pytest.raises(ServiceError):
            service.update(**batch)
        assert service.surviving_edges() == ledger
        assert service.stats()["edges"] == total
        assert service.stats()["updates_applied"] == 4
        for bank, (s0, s1, s2) in zip(banks, counters):
            assert bank.s0.tolist() == s0.tolist()
            assert bank.s1.tolist() == s1.tolist()
            assert bank.s2.tolist() == s2.tolist()


def test_edge_total_is_kept_incrementally():
    service = GraphService(ServeConfig(n=10, seed=1))
    assert service.update(insert=[(0, 1), (0, 1), (2, 2)])["edges"] == 3
    assert service.update(insert=[(3, 4)], delete=[(1, 0)])["edges"] == 3
    assert service.update(insert=[(5, 6)], delete=[(5, 6)])["edges"] == 3
    assert service.stats()["edges"] == len(service.surviving_edges()) == 3


def test_delete_must_match_weight():
    service = GraphService(ServeConfig(n=8, seed=0, max_weight=10))
    service.update(insert=[(0, 1, 5)])
    with pytest.raises(ServiceError, match="surviving"):
        service.update(delete=[(0, 1, 4)])


def test_validation_errors():
    service = GraphService(ServeConfig(n=8, seed=0))
    with pytest.raises(ServiceError, match="universe"):
        service.update(insert=[(0, 8)])
    with pytest.raises(ServiceError, match="weight"):
        service.update(insert=[(0, 1, 0)])
    with pytest.raises(ServiceError, match="u, v"):
        service.update(insert=[(0, 1, 2, 3)])
    with pytest.raises(ServiceError, match="universe"):
        service.connected(0, 99)
    with pytest.raises(ServiceError, match="max_weight"):
        service.mst_weight()
    with pytest.raises(ServiceError, match="exceeds"):
        GraphService(ServeConfig(n=8, seed=0, max_weight=5)).update(
            insert=[(0, 1, 6)]
        )


def test_config_validation():
    for bad in (
        dict(n=0),
        dict(n=4, copies=0),
        dict(n=4, shards=0),
        dict(n=4, max_weight=0),
        dict(n=4, epsilon=0.0),
    ):
        with pytest.raises(ServiceError):
            ServeConfig(**bad)


def test_insert_delete_churn_returns_to_empty_state():
    n, seed = 10, 2
    service = GraphService(ServeConfig(n=n, seed=seed, shards=2))
    edges = [(0, 1), (1, 2), (2, 3), (4, 5)]
    service.update(insert=edges)
    service.update(delete=edges)
    view = service.components()
    assert view.num_components == n
    assert view.labels == list(range(n))
    # All shard counters returned to exact zero by linearity.
    for shard in service._shards:
        for vertex in shard.vertices:
            assert shard.is_zero_vertex(vertex)


def test_stats_shape():
    service = GraphService(ServeConfig(n=8, seed=0, shards=2))
    service.update(insert=[(0, 1)])
    service.connected(0, 1)
    stats = service.stats()
    assert stats["edges"] == 1
    assert stats["updates_applied"] == 1
    assert stats["queries_answered"] == 1
    assert stats["refreshes"] == 1
    assert stats["shards"] == 2
    assert stats["forest_fresh"] is True
    assert stats["mst_enabled"] is False
    assert stats["sketch_words"] > 0
