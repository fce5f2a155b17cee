"""Linear sketching substrate: k-wise hashing, one-sparse recovery,
ℓ₀-samplers, and AGM graph sketches.

Two layers coexist:

* the **object API** (:class:`OneSparseSketch`, :class:`L0Sampler`,
  :class:`VertexSketch`) — one small object per counter group, convenient
  for unit-scale use; its methods behave exactly as the seed did
  (``VertexSketch.samplers`` is now a read-only snapshot);
* the **bank API** (:class:`SketchBank`, :class:`SketchRow`,
  :func:`bank_boruvka`) — the array-native substrate: all
  ``(phase, copy, level)`` one-sparse counters of a vertex set in three
  numpy arrays, stacked-kernel bulk edge updates that compute each edge's
  hashes and fingerprint powers once for both endpoints, and array
  merge/copy/zero-test (kernels in :mod:`repro.sketches.backend`).

Equivalence policy: with fixed seeds, both layers produce bit-identical
counters, samples, and component labels, equal to the pure-Python
reference kept in the test suite; this is pinned by golden and property
tests.
"""

from .backend import get_backend
from .bank import SketchBank, SketchRow, bank_boruvka
from .field import PRIME, KWiseHash, fingerprint_power, trailing_zeros
from .graph_sketch import (
    GraphSketchSpec,
    VertexSketch,
    components_from_sketches,
    edge_from_id,
    edge_id,
    sketch_boruvka,
)
from .l0 import L0Sampler, L0SamplerSeeds
from .onesparse import OneSparseSketch

__all__ = [
    "PRIME",
    "KWiseHash",
    "fingerprint_power",
    "trailing_zeros",
    "OneSparseSketch",
    "L0Sampler",
    "L0SamplerSeeds",
    "GraphSketchSpec",
    "VertexSketch",
    "SketchBank",
    "SketchRow",
    "bank_boruvka",
    "components_from_sketches",
    "edge_from_id",
    "edge_id",
    "sketch_boruvka",
    "get_backend",
]
