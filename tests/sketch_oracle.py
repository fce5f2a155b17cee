"""Pure-Python reference for the sketch bank: the bit-identical oracle.

The library keeps one sketch implementation, the numpy array bank of
:mod:`repro.sketches.bank`.  This module keeps the dependency-free code it
replaced, for differential tests only:

* :class:`PureKernels` -- batched Horner evaluation, trailing zeros and
  fingerprint powers over Python ints (the old ``PureBackend``, including
  its baby-step/giant-step power table);
* :class:`ListBank` -- the old list-of-ints bank: the same slot layout,
  the same signed update rule and exact (unbounded) integer counters;
* :func:`list_boruvka` -- Borůvka over a :class:`ListBank`, in the same
  scan order as :func:`repro.sketches.bank.bank_boruvka`.

Counters here are exact Python ints, so comparing them with the array
bank also checks the array bank's int64 ``s1`` and mod-p ``s2`` scatter.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, NamedTuple, Sequence

from repro.graph.union_find import UnionFind
from repro.sketches.field import PRIME, fingerprint_power

__all__ = ["PureKernels", "ListRow", "ListBank", "list_boruvka"]

#: Largest baby-step/giant-step block worth materializing.
_MAX_BLOCK = 1 << 20


class PureKernels:
    """Dependency-free kernels over Python ints."""

    name = "pure"

    def __init__(self) -> None:
        # z -> (block, baby, giant) powers tables; see pow_many.
        self._pow_tables: dict[int, tuple[int, list[int], list[int]]] = {}

    def poly_eval_many(
        self, coefficients: Sequence[int], xs: Sequence[int], reduce_inputs: bool = True
    ) -> list[int]:
        """Horner-evaluate the polynomial at every point of *xs*, mod PRIME."""
        if reduce_inputs:
            xs = [x % PRIME for x in xs]
        out = [coefficients[0]] * len(xs)
        for c in coefficients[1:]:
            out = [(a * x + c) % PRIME for a, x in zip(out, xs)]
        return out

    def trailing_zeros_many(self, values: Iterable[int]) -> list[int]:
        return [(v & -v).bit_length() - 1 if v else 61 for v in values]

    def pow_many(
        self, z: int, exponents: Sequence[int], max_exponent: int | None = None
    ) -> list[int]:
        """``z ** e mod PRIME`` for every ``e``; large batches build (and
        cache) a baby-step/giant-step table, small ones call ``pow``."""
        if not exponents:
            return []
        table = self._pow_tables.get(z)
        if table is None:
            hi = max_exponent if max_exponent is not None else max(exponents)
            block = isqrt(max(hi, 1)) + 1
            if block > _MAX_BLOCK or 4 * len(exponents) < block:
                return [pow(z, e, PRIME) for e in exponents]
            baby = [1] * block
            acc = 1
            for r in range(1, block):
                acc = acc * z % PRIME
                baby[r] = acc
            z_block = acc * z % PRIME
            giant = [1] * (block + 1)
            acc = 1
            for q in range(1, block + 1):
                acc = acc * z_block % PRIME
                giant[q] = acc
            table = self._pow_tables[z] = (block, baby, giant)
        block, baby, giant = table
        bound = block * len(giant)
        return [
            giant[e // block] * baby[e % block] % PRIME if e < bound else pow(z, e, PRIME)
            for e in exponents
        ]


class ListRow(NamedTuple):
    """One vertex's counters as lists (``SketchRow``'s fields)."""

    s0: list[int]
    s1: list[int]
    s2: list[int]


class ListBank:
    """The list-of-ints sketch bank (slot layout of ``SketchBank``)."""

    def __init__(self, spec, vertices: Iterable[int] = ()) -> None:
        self.spec = spec
        self.kernels = PureKernels()
        self.flat_seeds = [seeds for phase in spec.seeds for seeds in phase]
        self.num_levels = self.flat_seeds[0].num_levels
        self.slots_per_row = len(self.flat_seeds) * self.num_levels
        self.z_flat = [z for seeds in self.flat_seeds for z in seeds.z_points]
        self.row_of: dict[int, int] = {}
        self.vertices: list[int] = []
        self.s0: list[int] = []
        self.s1: list[int] = []
        self.s2: list[int] = []
        for vertex in vertices:
            self.add_vertex(vertex)

    def add_vertex(self, vertex: int) -> int:
        row = self.row_of.get(vertex)
        if row is None:
            row = self.row_of[vertex] = len(self.vertices)
            self.vertices.append(vertex)
            zeros = [0] * self.slots_per_row
            self.s0.extend(zeros)
            self.s1.extend(zeros)
            self.s2.extend(zeros)
        return row

    def row(self, vertex: int) -> ListRow:
        start = self.row_of[vertex] * self.slots_per_row
        end = start + self.slots_per_row
        return ListRow(self.s0[start:end], self.s1[start:end], self.s2[start:end])

    def row_items(self) -> list[tuple[int, ListRow]]:
        return [(vertex, self.row(vertex)) for vertex in self.vertices]

    def insert_row(self, vertex: int, row: ListRow) -> None:
        self._add(self.add_vertex(vertex) * self.slots_per_row, *row)

    def absorb(self, other: "ListBank") -> None:
        for vertex in other.vertices:
            self.insert_row(vertex, other.row(vertex))

    def merge_rows(self, dst_row: int, src_row: int) -> None:
        start = src_row * self.slots_per_row
        end = start + self.slots_per_row
        self._add(
            dst_row * self.slots_per_row,
            self.s0[start:end], self.s1[start:end], self.s2[start:end],
        )

    def _add(self, a: int, s0: list[int], s1: list[int], s2: list[int]) -> None:
        for k in range(self.slots_per_row):
            self.s0[a + k] += s0[k]
            self.s1[a + k] += s1[k]
            self.s2[a + k] = (self.s2[a + k] + s2[k]) % PRIME

    def update_edges(self, edges: Iterable[tuple], sign: int = 1) -> None:
        """Edge ``{u, v}`` adds ``sign`` at the smaller endpoint and
        ``-sign`` at the larger, on every level its hash reaches."""
        n = self.spec.n
        pairs = []
        for edge in edges:
            u, v = edge[0], edge[1]
            ru, rv = self.add_vertex(u), self.add_vertex(v)
            if u < v:
                pairs.append((ru, rv, u * n + v))
            elif v < u:
                pairs.append((rv, ru, v * n + u))
        if not pairs:
            return
        kernels, levels, slots = self.kernels, self.num_levels, self.slots_per_row
        ids = [p[2] for p in pairs]
        xs = [i + 1 for i in ids]
        for j, seeds in enumerate(self.flat_seeds):
            hashed = kernels.poly_eval_many(seeds.level_hash.coefficients, xs)
            depths = kernels.trailing_zeros_many(hashed)
            for level in range(levels):
                chosen = [k for k in range(len(pairs)) if depths[k] >= level]
                if not chosen:
                    break
                powers = kernels.pow_many(
                    seeds.z_points[level], [ids[k] for k in chosen], max_exponent=n * n
                )
                slot = j * levels + level
                for k, f in zip(chosen, powers):
                    for row, s in ((pairs[k][0], sign), (pairs[k][1], -sign)):
                        a = row * slots + slot
                        self.s0[a] += s
                        self.s1[a] += s * ids[k]
                        self.s2[a] = (self.s2[a] + s * f) % PRIME

    def copy(self) -> "ListBank":
        clone = ListBank(self.spec)
        clone.row_of = dict(self.row_of)
        clone.vertices = list(self.vertices)
        clone.s0, clone.s1, clone.s2 = self.s0[:], self.s1[:], self.s2[:]
        return clone

    def sample_row(self, row: int, phase: int) -> tuple[int, int] | None:
        levels, copies, n = self.num_levels, self.spec.copies, self.spec.n
        for copy_index in range(copies):
            base = (phase * copies + copy_index) * levels
            for level in range(levels - 1, -1, -1):
                a = row * self.slots_per_row + base + level
                s0, s1 = self.s0[a], self.s1[a]
                if s0 == 0 or s1 % s0 != 0 or s1 // s0 < 0:
                    continue
                coordinate = s1 // s0
                z = self.z_flat[base + level]
                if (s0 % PRIME) * fingerprint_power(z, coordinate) % PRIME == self.s2[a]:
                    return divmod(coordinate, n)
        return None


def list_boruvka(bank: ListBank) -> tuple[UnionFind, list[tuple[int, int]]]:
    """Borůvka over a :class:`ListBank`; the old ``bank_boruvka`` loop."""
    uf = UnionFind(bank.vertices)
    work = bank.copy()
    row_ref = dict(work.row_of)
    forest: list[tuple[int, int]] = []
    for phase in range(bank.spec.phases):
        roots = {uf.find(v) for v in work.vertices}
        if len(roots) <= 1:
            break
        proposals = [
            sampled
            for root in roots
            if (sampled := work.sample_row(row_ref[root], phase)) is not None
        ]
        if not proposals:
            break
        for u, v in proposals:
            ru, rv = uf.find(u), uf.find(v)
            if ru != rv:
                work.merge_rows(row_ref[ru], row_ref[rv])
                uf.union(u, v)
                keep = uf.find(u)
                if keep != ru:
                    row_ref[keep] = row_ref[ru]
                forest.append((u, v))
    return uf, forest
