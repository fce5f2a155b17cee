"""Array-backed sketch banks: bulk construction, merging, sampling."""

import random

import pytest

from repro.graph import Graph, generators
from repro.graph.traversal import component_labels
from repro.sketches import (
    GraphSketchSpec,
    SketchBank,
    SketchRow,
    VertexSketch,
    bank_boruvka,
)


def make_spec(n=8, seed=0, phases=3, copies=2):
    return GraphSketchSpec.generate(n, random.Random(seed), phases=phases, copies=copies)


def object_rows(spec, edges):
    """Reference rows built through the per-object wrapper API."""
    sketches = {}
    for u, v in edges:
        for endpoint in (u, v):
            if endpoint not in sketches:
                sketches[endpoint] = VertexSketch(spec, endpoint)
            sketches[endpoint].add_edge(u, v)
    return {v: s.bank.row(v) for v, s in sketches.items()}


def rows_equal(a: SketchRow, b: SketchRow) -> bool:
    return (
        a.s0.tolist() == b.s0.tolist()
        and a.s1.tolist() == b.s1.tolist()
        and a.s2.tolist() == b.s2.tolist()
    )


EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (1, 5), (6, 2), (5, 0)]


def test_update_edges_matches_object_api():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    for vertex, reference in object_rows(spec, EDGES).items():
        assert rows_equal(bank.row(vertex), reference)


def test_bulk_equals_incremental():
    spec = make_spec()
    bulk = SketchBank(spec)
    bulk.update_edges(EDGES)
    incremental = SketchBank(spec)
    for edge in EDGES:
        incremental.update_edges([edge])
    for vertex in bulk.vertices:
        assert rows_equal(bulk.row(vertex), incremental.row(vertex))


def test_update_accepts_weighted_tuples():
    spec = make_spec()
    a, b = SketchBank(spec), SketchBank(spec)
    a.update_edges([(0, 1, 7), (1, 2, 9)])
    b.update_edges([(0, 1), (1, 2)])
    for vertex in (0, 1, 2):
        assert rows_equal(a.row(vertex), b.row(vertex))


def test_self_loop_matches_object_semantics():
    """A self-loop contributes +1 per endpoint visit — twice to one row,
    exactly as the per-endpoint object construction does."""
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(3, 3)])
    reference = VertexSketch(spec, 3)
    reference.add_edge(3, 3)
    reference.add_edge(3, 3)
    assert rows_equal(bank.row(3), reference.bank.row(3))


def test_vertex_rows_auto_created_in_endpoint_order():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(4, 2), (0, 2)])
    assert bank.vertices == [4, 2, 0]
    assert 4 in bank and 7 not in bank
    assert len(bank) == 3


def test_internal_edge_cancels_on_merge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(0, 1)])
    assert not bank.is_zero_vertex(0)
    bank.merge_vertices(0, 1)
    assert bank.is_zero_vertex(0)
    assert bank.sample_outgoing(0, phase=0) is None


def test_merged_rows_sample_the_cut_edge():
    spec = make_spec(n=4, seed=6, phases=2, copies=3)
    bank = SketchBank(spec)
    bank.update_edges([(0, 1), (1, 2)])
    bank.merge_vertices(0, 1)
    # The cut ({0,1}, {2}) has exactly edge (1,2).
    assert bank.sample_outgoing(0, phase=0) == (1, 2)


def test_insert_row_and_row_items_roundtrip():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    rebuilt = SketchBank(spec)
    for vertex, row in bank.row_items():
        rebuilt.insert_row(vertex, row)
    for vertex in bank.vertices:
        assert rows_equal(bank.row(vertex), rebuilt.row(vertex))


def test_row_merge_is_linear():
    spec = make_spec()
    left = SketchBank(spec)
    left.update_edges([(0, 1), (1, 2)])
    right = SketchBank(spec)
    right.update_edges([(0, 3), (2, 4)])
    combined = SketchBank(spec)
    combined.update_edges([(0, 1), (1, 2), (0, 3), (2, 4)])
    merged = left.row(0).merge(right.row(0))
    assert rows_equal(merged, combined.row(0))


def test_absorb_accumulates_other_bank():
    spec = make_spec()
    a = SketchBank(spec)
    a.update_edges([(0, 1)])
    b = SketchBank(spec)
    b.update_edges([(1, 2)])
    a.absorb(b)
    reference = SketchBank(spec)
    reference.update_edges([(0, 1), (1, 2)])
    for vertex in (0, 1, 2):
        assert rows_equal(a.row(vertex), reference.row(vertex))


def test_copy_is_independent():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(0, 1)])
    before = bank.row(1)
    clone = bank.copy()
    clone.update_edges([(1, 2)])
    assert rows_equal(bank.row(1), before)  # original intact
    assert not rows_equal(bank.row(1), clone.row(1))
    assert 2 not in bank


def test_merge_different_seeds_rejected():
    bank = SketchBank(make_spec(seed=1))
    other = SketchBank(make_spec(seed=2), vertices=(0,))
    with pytest.raises(ValueError):
        bank.merge_row_from(other, 0)
    with pytest.raises(ValueError):
        bank.absorb(other)


def test_wrapper_merge_different_seeds_rejected():
    a = VertexSketch(make_spec(seed=1), 0)
    b = VertexSketch(make_spec(seed=2), 0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_add_incident_requires_incidence():
    bank = SketchBank(make_spec())
    with pytest.raises(ValueError):
        bank.add_incident(0, 1, 2)


def test_word_size_matches_legacy_charge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    legacy = VertexSketch(spec, 0).word_size()
    assert bank.word_size() == len(bank) * legacy
    assert bank.row(0).word_size() == legacy


def test_decode_slot_recovers_single_edge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(0, 1)])
    identifier = 0 * spec.n + 1
    decoded = bank.decode_slot(0, phase=0, copy=0, level=0)
    assert decoded == (identifier, 1)
    assert bank.decode_slot(1, phase=0, copy=0, level=0) == (identifier, -1)


def test_bank_boruvka_matches_truth_on_random_graphs():
    for seed in range(4):
        rng = random.Random(seed)
        g = generators.random_connected_graph(18, 40, rng)
        spec = GraphSketchSpec.generate(g.n, random.Random(seed + 50), copies=3)
        bank = SketchBank(spec, vertices=range(g.n))
        bank.update_edges((e[0], e[1]) for e in g.edges)
        uf, forest = bank_boruvka(bank)
        assert uf.num_components == 1
        assert len(forest) == g.n - 1
        edge_set = g.edge_set()
        assert all((min(u, v), max(u, v)) in edge_set for u, v in forest)


def test_bank_boruvka_on_edgeless_bank():
    g = Graph(5, [])
    spec = GraphSketchSpec.generate(g.n, random.Random(3), copies=2)
    bank = SketchBank(spec, vertices=range(g.n))
    uf, forest = bank_boruvka(bank)
    assert uf.num_components == 5
    assert forest == []
    labels = component_labels(g)
    assert labels == list(range(5))


def test_nonuniform_level_counts_rejected():
    from repro.sketches import L0SamplerSeeds

    rng = random.Random(0)
    mixed = GraphSketchSpec(
        n=8,
        seeds=(
            (L0SamplerSeeds.generate(64, rng),),
            (L0SamplerSeeds.generate(100_000, rng),),
        ),
    )
    with pytest.raises(ValueError):
        SketchBank(mixed)


def test_wrapper_samplers_snapshot_matches_bank():
    spec = make_spec()
    sketch = VertexSketch(spec, 0)
    sketch.add_edge(0, 1)
    sketch.add_edge(0, 2)
    row = sketch.bank.row(0)
    flat_index = 0
    for phase in sketch.samplers:
        for sampler in phase:
            for level in sampler.levels:
                assert level.s0 == row.s0[flat_index]
                assert level.s1 == row.s1[flat_index]
                assert level.s2 == row.s2[flat_index]
                flat_index += 1
