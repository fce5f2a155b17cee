"""Array-native ℓ₀ banks: the substrate behind the AGM sketches.

A :class:`SketchBank` holds every one-sparse counter ``(s0, s1, s2)`` of
the AGM vertex vectors (``s0 = Σ δ``, ``s1 = Σ id·δ``,
``s2 = Σ δ·z^id mod p``) for a vertex set, as three ``rows x slots``
numpy arrays that grow by doubling:

    slot(phase, copy, level) = (phase * copies + copy) * L + level

with ``L`` levels per sampler.  ``s0``/``s1`` are int64, ``s2`` holds
uint64 residues mod ``p = 2^61 - 1``.

Batched updates (:meth:`SketchBank.update_edges`): for a batch of edges
``{u, v}`` the bank evaluates every sampler's level hash at every edge id
in one stacked Horner pass, takes trailing zeros for the level depths,
and expands the ``(edge, sampler, level)`` triples with ``np.repeat``.
Fingerprint powers ``z^id`` come from stacked baby-step/giant-step tables
(two gathers and one mulmod per triple).  Each triple adds ``+δ`` to the
smaller endpoint's row and ``-δ`` to the larger's: ``s0``/``s1`` by
``np.add.at``, ``s2`` exactly by ``np.unique`` plus two float64
``bincount`` passes over the 30/31-bit limbs of each residue, recombined
with one mulmod.  The sketches are linear (Ahn-Guha-McGregor), so the
order in which counters are added never changes the result.

Exactness of the fixed-width counters:

* ``s2`` limb sums: a residue ``< 2^61`` splits into a low limb ``< 2^30``
  and a high limb ``< 2^31``.  One counter receives at most one term per
  edge of a chunk of at most ``2^12`` edges, so each limb sum stays below
  ``2^43 < 2^53`` and float64 adds it exactly.
* ``s1`` is wrapping int64 arithmetic, i.e. exact mod ``2^64``.  Decoding
  only trusts a counter whose final true value is one-sparse, and then
  ``s1 = id·s0`` with ``|id| < n^2``, which fits in int64 -- so the
  stored value *is* the true value, however far intermediate sums
  wrapped.  A counter that is not one-sparse fails the ``s2`` fingerprint
  test except with probability ``O(n^2 / p)``, wrapped or not.

Updates are *signed*: ``update_edges(batch, sign=-1)`` deletes edges by
applying the identical contributions negated -- the substrate behind the
dynamic-graph query service in :mod:`repro.serve`.  Self-loops are
no-ops: their ``+1`` and ``-1`` land on the same row and cancel.

:func:`bank_boruvka` runs Borůvka in sketch space directly on a bank, in
the legacy scan order decision for decision, so component labels are
bit-identical to the seed implementation for fixed seeds (pinned by
``tests/integration/test_sketch_equivalence.py``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..graph.union_find import UnionFind
from .backend import P, PowerTables, addmod, mulmod, poly_eval, trailing_zeros
from .field import PRIME, fingerprint_power

__all__ = [
    "SamplerArrays",
    "SketchRow",
    "SketchBank",
    "bank_boruvka",
    "edge_id",
    "edge_from_id",
]

#: Edges per scatter pass: bounds the temporaries and keeps every s2 limb
#: sum below 2^53 (see the module docstring).
_CHUNK = 1 << 12
_LOW30 = np.uint64((1 << 30) - 1)
_SHIFT30 = np.uint64(30)
_TWO30 = np.uint64(1 << 30)


def edge_id(n: int, u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return u * n + v


def edge_from_id(n: int, identifier: int) -> tuple[int, int]:
    return divmod(identifier, n)


class SamplerArrays:
    """A spec's samplers stacked for the array kernels.

    Cached on the :class:`~repro.sketches.graph_sketch.GraphSketchSpec`
    (``spec.arrays``) and shared by all of its banks.  The power tables
    are built on the first update and freed with the spec.
    """

    def __init__(self, spec) -> None:
        flat_seeds = [seeds for phase_seeds in spec.seeds for seeds in phase_seeds]
        level_counts = {seeds.num_levels for seeds in flat_seeds}
        if len(level_counts) != 1:
            raise ValueError("bank requires a uniform level count across samplers")
        self.num_levels = level_counts.pop()
        self.num_samplers = len(flat_seeds)
        self.coefficients = np.array(
            [seeds.level_hash.coefficients for seeds in flat_seeds], dtype=np.uint64
        )
        #: Evaluation point of every slot, in slot order.
        self.z_flat = [z for seeds in flat_seeds for z in seeds.z_points]
        #: Slot offsets within one phase in decode order: copies in
        #: order, levels from deepest to shallowest.
        self.scan_order = [
            base + level
            for base in range(0, spec.copies * self.num_levels, self.num_levels)
            for level in range(self.num_levels - 1, -1, -1)
        ]
        self.max_id = spec.n * spec.n
        self._tables: PowerTables | None = None

    def powers(self, slots, exponents):
        """``z_flat[slots] ** exponents mod p`` elementwise, for exponents
        (edge ids) below ``n^2``."""
        if self._tables is None:
            self._tables = PowerTables(self.z_flat, self.max_id)
        return self._tables.powers(slots, exponents)


class SketchRow:
    """One vertex's counter row, detached from its bank.

    This is the unit shipped through the aggregation tree: machines
    extract rows from their partial banks, the converge-cast merges rows
    per vertex, and the destination machine reassembles a bank.  Its word
    cost matches the legacy ``VertexSketch`` charge exactly (one word of
    vertex identity plus three counters per slot).
    """

    __slots__ = ("s0", "s1", "s2")

    def __init__(self, s0, s1, s2) -> None:
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2

    def merge(self, other: "SketchRow") -> "SketchRow":
        """Return the sum row (sketches are linear); inputs are untouched."""
        return SketchRow(self.s0 + other.s0, self.s1 + other.s1, addmod(self.s2, other.s2))

    def word_size(self) -> int:
        return 1 + 3 * len(self.s0)


class SketchBank:
    """All ``(phase, copy, level)`` one-sparse counters for a vertex set."""

    __slots__ = (
        "spec",
        "arrays",
        "num_levels",
        "num_samplers",
        "slots_per_row",
        "row_of",
        "vertices",
        "_s0",
        "_s1",
        "_s2",
    )

    def __init__(self, spec, vertices: Iterable[int] = ()) -> None:
        self.spec = spec
        self.arrays = arrays = spec.arrays
        self.num_levels = arrays.num_levels
        self.num_samplers = arrays.num_samplers
        self.slots_per_row = slots = arrays.num_samplers * arrays.num_levels
        self.row_of: dict[int, int] = {}
        self.vertices: list[int] = []
        vertices = list(vertices)
        self._s0 = np.zeros((len(vertices), slots), dtype=np.int64)
        self._s1 = np.zeros((len(vertices), slots), dtype=np.int64)
        self._s2 = np.zeros((len(vertices), slots), dtype=np.uint64)
        for vertex in vertices:
            self.add_vertex(vertex)

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    @property
    def s0(self):
        return self._s0[: len(self.vertices)]

    @property
    def s1(self):
        return self._s1[: len(self.vertices)]

    @property
    def s2(self):
        return self._s2[: len(self.vertices)]

    def add_vertex(self, vertex: int) -> int:
        """Ensure *vertex* has a row (zero counters); return its index."""
        row = self.row_of.get(vertex)
        if row is None:
            row = self.row_of[vertex] = len(self.vertices)
            self.vertices.append(vertex)
            if row == len(self._s0):
                grown = max(8, 2 * row)
                self._s0, self._s1, self._s2 = (
                    np.concatenate((a, np.zeros((grown - row, a.shape[1]), a.dtype)))
                    for a in (self._s0, self._s1, self._s2)
                )
        return row

    def row(self, vertex: int) -> SketchRow:
        """Extract a detached copy of *vertex*'s counter row."""
        r = self.row_of[vertex]
        return SketchRow(self._s0[r].copy(), self._s1[r].copy(), self._s2[r].copy())

    def row_items(self) -> list[tuple[int, SketchRow]]:
        """``(vertex, row)`` pairs in insertion order -- aggregation payload."""
        s0, s1, s2 = self.s0.copy(), self.s1.copy(), self.s2.copy()
        return [
            (vertex, SketchRow(s0[r], s1[r], s2[r]))
            for r, vertex in enumerate(self.vertices)
        ]

    def insert_row(self, vertex: int, row: SketchRow) -> None:
        """Add *row* into *vertex*'s row (creating it if missing)."""
        self._add_row(self.add_vertex(vertex), row.s0, row.s1, row.s2)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_edges(self, edges: Iterable[tuple], sign: int = 1) -> None:
        """Bulk-apply undirected edges to both endpoint rows.

        Edge ``{u, v}`` (id ``min*n + max``) contributes ``+sign`` to the
        smaller endpoint's vector and ``-sign`` to the larger's; hashes,
        level depths and fingerprint powers are computed once per edge and
        shared by both endpoints.  *sign* is ``+1`` (insert, the default)
        or ``-1`` (delete): an insert followed by a delete of the same
        edge returns every counter to its prior value exactly.

        Self-loops are no-ops on the counters (their two contributions
        cancel on one row) and are skipped before any hashing; the vertex
        still gets a (zero) row.
        """
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        n = self.spec.n
        add = self.add_vertex
        lower: list[int] = []
        upper: list[int] = []
        ids: list[int] = []
        for edge in edges:
            u, v = edge[0], edge[1]
            ru = add(u)
            rv = add(v)
            if u < v:
                lower.append(ru)
                upper.append(rv)
                ids.append(u * n + v)
            elif v < u:
                lower.append(rv)
                upper.append(ru)
                ids.append(v * n + u)
        for start in range(0, len(ids), _CHUNK):
            end = start + _CHUNK
            self._scatter(
                ids[start:end], ((lower[start:end], sign), (upper[start:end], -sign))
            )

    def add_incident(self, vertex: int, u: int, v: int, sign: int = 1) -> None:
        """Account for incident edge ``{u, v}`` in *vertex*'s row only.

        The single-edge path behind the legacy ``VertexSketch.add_edge``.
        *sign* is ``+1`` (insert) or ``-1`` (delete); self-loops are
        no-ops, matching :meth:`update_edges`.
        """
        if vertex not in (u, v):
            raise ValueError("edge not incident to this vertex")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        row = self.add_vertex(vertex)
        if u != v:
            lo, hi = min(u, v), max(u, v)
            self._scatter([lo * self.spec.n + hi], (([row], sign if vertex == lo else -sign),))

    def _scatter(self, ids: list[int], sides) -> None:
        """Add edge ids' contributions into rows: *sides* pairs a row list
        (one row per id) with the sign that side receives."""
        arrays = self.arrays
        levels = self.num_levels
        ids = np.array(ids, dtype=np.int64)
        hashed = poly_eval(arrays.coefficients, (ids + 1).astype(np.uint64))
        # Levels 0..min(depth, L-1) of each (sampler, edge) pair.
        counts = (np.minimum(trailing_zeros(hashed), levels - 1) + 1).ravel()
        pair = np.repeat(np.arange(counts.size), counts)
        level = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
        sampler, edge = np.divmod(pair, len(ids))
        slot = sampler * levels + level
        exponent = ids[edge]
        power = arrays.powers(slot, exponent)
        negated = P - power  # powers of a nonzero z are never 0 mod p

        slots = self.slots_per_row
        index = np.concatenate(
            [np.asarray(rows, dtype=np.int64)[edge] * slots + slot for rows, _ in sides]
        )
        d0 = np.concatenate([np.full(len(slot), s, dtype=np.int64) for _, s in sides])
        d1 = np.concatenate([exponent * s for _, s in sides])
        d2 = np.concatenate([power if s == 1 else negated for _, s in sides])
        # The counter arrays are always C-contiguous, so reshape gives views.
        np.add.at(self._s0.reshape(-1), index, d0)
        np.add.at(self._s1.reshape(-1), index, d1)
        keys, inverse = np.unique(index, return_inverse=True)
        low = np.bincount(inverse, (d2 & _LOW30).astype(np.float64), len(keys))
        high = np.bincount(inverse, (d2 >> _SHIFT30).astype(np.float64), len(keys))
        total = addmod(mulmod(high.astype(np.uint64), _TWO30), low.astype(np.uint64))
        flat2 = self._s2.reshape(-1)
        flat2[keys] = addmod(flat2[keys], total)

    # ------------------------------------------------------------------
    # merging / copying
    # ------------------------------------------------------------------
    def _add_row(self, dst_row: int, s0, s1, s2) -> None:
        self._s0[dst_row] += s0
        self._s1[dst_row] += s1
        self._s2[dst_row] = addmod(self._s2[dst_row], s2)

    def _check_compatible(self, other: "SketchBank") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("cannot merge sketches with different seeds")

    def merge_vertices(self, dst: int, src: int) -> None:
        """Add *src*'s row into *dst*'s row (supernode merge)."""
        self._merge_row_by_index(self.row_of[dst], self.row_of[src])

    def _merge_row_by_index(self, dst_row: int, src_row: int) -> None:
        self._add_row(dst_row, self._s0[src_row], self._s1[src_row], self._s2[src_row])

    def merge_row_from(
        self, other: "SketchBank", src_vertex: int, dst_vertex: int | None = None
    ) -> None:
        """Add *other*'s row for *src_vertex* into our *dst_vertex* row."""
        self._check_compatible(other)
        if dst_vertex is None:
            dst_vertex = src_vertex
        dst_row = self.add_vertex(dst_vertex)
        r = other.row_of[src_vertex]
        self._add_row(dst_row, other._s0[r], other._s1[r], other._s2[r])

    def absorb(self, other: "SketchBank") -> None:
        """Merge every row of *other* into this bank (array adds)."""
        self._check_compatible(other)
        rows = np.array([self.add_vertex(v) for v in other.vertices], dtype=np.int64)
        self._s0[rows] += other.s0
        self._s1[rows] += other.s1
        self._s2[rows] = addmod(self._s2[rows], other.s2)

    def copy(self) -> "SketchBank":
        clone = SketchBank.__new__(SketchBank)
        clone.spec = self.spec
        clone.arrays = self.arrays
        clone.num_levels = self.num_levels
        clone.num_samplers = self.num_samplers
        clone.slots_per_row = self.slots_per_row
        clone.row_of = dict(self.row_of)
        clone.vertices = list(self.vertices)
        clone._s0 = self.s0.copy()
        clone._s1 = self.s1.copy()
        clone._s2 = self.s2.copy()
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_zero_vertex(self, vertex: int) -> bool:
        r = self.row_of[vertex]
        return not (self._s0[r].any() or self._s1[r].any() or self._s2[r].any())

    def _sample_row(self, row: int, phase: int) -> tuple[int, int] | None:
        """Decode *row*'s slice for *phase*: copies in order, levels from
        deepest to shallowest -- the legacy scan order."""
        scan = self.arrays.scan_order
        start = phase * len(scan)
        end = start + len(scan)
        s0 = self._s0[row, start:end].tolist()
        if not any(s0):
            return None
        s1 = self._s1[row, start:end].tolist()
        s2 = self._s2[row, start:end].tolist()
        z = self.arrays.z_flat
        for k in scan:
            if s0[k]:  # zero counters never decode
                decoded = _decode(s0[k], s1[k], s2[k], z[start + k])
                if decoded is not None:
                    return edge_from_id(self.spec.n, decoded[0])
        return None

    def sample_outgoing(self, vertex: int, phase: int) -> tuple[int, int] | None:
        """Sample an edge leaving *vertex*'s (super)vector using the given
        phase's samplers; tries the independent copies in order."""
        return self._sample_row(self.row_of[vertex], phase)

    def decode_slot(
        self, vertex: int, phase: int, copy: int, level: int
    ) -> tuple[int, int] | None:
        """One-sparse recovery of a single addressed counter."""
        offset = (phase * self.spec.copies + copy) * self.num_levels + level
        r = self.row_of[vertex]
        return _decode(
            int(self._s0[r, offset]),
            int(self._s1[r, offset]),
            int(self._s2[r, offset]),
            self.arrays.z_flat[offset],
        )

    def word_size(self) -> int:
        """Total storage charge: every row costs what the legacy
        ``VertexSketch`` charged (one identity word + three counters per
        slot; evaluation points are part of the shared seed package)."""
        return len(self.vertices) * (1 + 3 * self.slots_per_row)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.row_of

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def _decode(s0: int, s1: int, s2: int, z: int) -> tuple[int, int] | None:
    """One-sparse recovery of one counter (mirrors
    ``OneSparseSketch.decode`` exactly)."""
    if s0 == 0 or s1 % s0 != 0:
        return None
    coordinate = s1 // s0
    if coordinate < 0:
        return None
    if (s0 % PRIME) * fingerprint_power(z, coordinate) % PRIME != s2:
        return None
    return coordinate, s0


def bank_boruvka(bank: SketchBank) -> tuple[UnionFind, list[tuple[int, int]]]:
    """Borůvka over a sketch bank (the large machine's local computation).

    Returns the component structure over the bank's vertices and the
    sampled edges that realized each union.  The loop mirrors the legacy
    object implementation decision for decision -- same root set, same
    proposal order, same row-aliasing after unions -- so its output is
    bit-identical for equal bank contents.
    """
    uf = UnionFind(bank.vertices)
    work = bank.copy()
    row_ref = dict(work.row_of)
    forest: list[tuple[int, int]] = []

    for phase in range(bank.spec.phases):
        roots = {uf.find(v) for v in work.vertices}
        if len(roots) <= 1:
            break
        proposals: list[tuple[int, int]] = []
        for root in roots:
            sampled = work._sample_row(row_ref[root], phase)
            if sampled is not None:
                proposals.append(sampled)
        if not proposals:
            # No supernode found an outgoing edge.  Either every cut is
            # empty (components are final) or all samplers failed, which
            # happens with probability exponentially small in the number
            # of copies; later phases cannot recover, so stop either way.
            break
        for u, v in proposals:
            ru, rv = uf.find(u), uf.find(v)
            if ru != rv:
                work._merge_row_by_index(row_ref[ru], row_ref[rv])
                uf.union(u, v)
                keep = uf.find(u)
                if keep != ru:
                    row_ref[keep] = row_ref[ru]
                forest.append((u, v))
    return uf, forest
