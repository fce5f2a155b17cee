"""The array bank against the pure-Python reference bank.

``SketchBank`` keeps its counters in numpy arrays (int64 ``s0``/``s1``,
uint64 residues ``s2``) and scatters whole batches at once;
``tests/sketch_oracle.py`` keeps the list-of-ints bank it replaced, with
exact Python-int counters.  Over random signed batches -- self-loops,
repeated edges, deletes, ``absorb`` and ``row_items``/``insert_row``
round trips -- both must hold identical counters and produce an
identical ``bank_boruvka`` forest.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import PRIME, GraphSketchSpec, SketchBank, SketchRow, bank_boruvka
from sketch_oracle import ListBank, ListRow, list_boruvka

N = 12
SPEC = GraphSketchSpec.generate(N, random.Random(21), copies=2)

vertices = st.integers(0, N - 1)
edge_lists = st.lists(st.tuples(vertices, vertices), max_size=25)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), edge_lists, st.sampled_from((1, -1))),
        st.tuples(st.just("absorb"), edge_lists, st.sampled_from((1, -1))),
        st.tuples(st.just("roundtrip"), st.just([]), st.just(1)),
    ),
    max_size=8,
)


def counters(bank) -> tuple[list, list, list]:
    return tuple(np.asarray(c).ravel().tolist() for c in (bank.s0, bank.s1, bank.s2))


def apply(bank_type, row_type, program):
    bank = bank_type(SPEC)
    for op, edges, sign in program:
        if op == "update":
            bank.update_edges(edges, sign=sign)
        elif op == "absorb":
            other = bank_type(SPEC)
            other.update_edges(edges, sign=sign)
            bank.absorb(other)
        else:
            rebuilt = bank_type(SPEC)
            for vertex, row in bank.row_items():
                rebuilt.insert_row(vertex, row_type(row.s0, row.s1, row.s2))
            bank = rebuilt
    return bank


@settings(max_examples=60, deadline=None)
@given(program=ops)
def test_array_bank_matches_reference_bank(program):
    array_bank = apply(SketchBank, SketchRow, program)
    reference = apply(ListBank, ListRow, program)
    assert array_bank.vertices == reference.vertices
    assert counters(array_bank) == counters(reference)
    uf, forest = bank_boruvka(array_bank)
    reference_uf, reference_forest = list_boruvka(reference)
    assert forest == reference_forest
    assert [uf.find(v) for v in array_bank.vertices] == [
        reference_uf.find(v) for v in reference.vertices
    ]


@settings(max_examples=30, deadline=None)
@given(batch=edge_lists, copies=st.integers(1, 3))
def test_repeated_edges_and_loops_match_reference(batch, copies):
    """Every edge of the batch several times over, loops included, in one
    scatter: repeated (row, slot) targets must sum like the reference."""
    spec = GraphSketchSpec.generate(N, random.Random(copies), copies=copies)
    array_bank, reference = SketchBank(spec), ListBank(spec)
    for bank in (array_bank, reference):
        bank.update_edges(batch * 3)
        bank.update_edges(batch, sign=-1)
    assert counters(array_bank) == counters(reference)


def test_wrapped_s1_still_decodes_the_edge():
    """Push one counter's s1 past 2^63 and back: the int64 sum wraps on
    the way, and the final one-sparse counter decodes exactly."""
    u, v = 3, 7
    identifier = u * N + v
    array_bank, reference = SketchBank(SPEC), ListBank(SPEC)
    for bank in (array_bank, reference):
        bank.update_edges([(u, v)])

    # A phantom coordinate near 2^62 on phase 0, copy 0, level 0 of u's
    # row, with a consistent fingerprint.
    slot = 0
    phantom = (1 << 62) + 5
    z = SPEC.arrays.z_flat[slot]
    power = pow(z, phantom, PRIME)

    def rows(sign):
        s0 = [0] * array_bank.slots_per_row
        s1 = [0] * array_bank.slots_per_row
        s2 = [0] * array_bank.slots_per_row
        s0[slot], s1[slot], s2[slot] = sign, sign * phantom, power if sign == 1 else PRIME - power
        return (
            SketchRow(np.array(s0, np.int64), np.array(s1, np.int64), np.array(s2, np.uint64)),
            ListRow(s0, s1, s2),
        )

    for sign in (1, 1):
        array_row, list_row = rows(sign)
        array_bank.insert_row(u, array_row)
        reference.insert_row(u, list_row)
    true_s1 = reference.row(u).s1[slot]
    assert true_s1 == identifier + 2 * phantom > (1 << 63)
    assert array_bank.row(u).s1[slot] == true_s1 - (1 << 64)  # wrapped

    for sign in (-1, -1):
        array_row, list_row = rows(sign)
        array_bank.insert_row(u, array_row)
        reference.insert_row(u, list_row)
    assert counters(array_bank) == counters(reference)
    assert array_bank.decode_slot(u, phase=0, copy=0, level=0) == (identifier, 1)
    assert array_bank.sample_outgoing(u, phase=0) == (u, v)
