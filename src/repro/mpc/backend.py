"""Compute backends for the columnar round engine.

The engine's one per-item hot loop — grouping a ``send_indexed`` scatter
(a destination column plus a payload column) into per-``(src, dst)``
delivery runs — goes through a small kernel seam:

* :class:`PureEngineBackend` (the default) is dependency-free Python: a
  stable dict-bucketing pass over the destination column.
* :class:`NumpyEngineBackend` groups numpy columns with one stable
  ``argsort`` and boundary scan, so a 100k-item scatter needs no per-item
  Python bytecode at all.  Payload columns stay numpy arrays end to end
  (the run's *block*), which makes word sizing O(1) per run
  (``block.size`` — every element of a numeric dtype is one machine word,
  exactly like the equivalent tuple of scalars).

Both backends emit runs in **ascending destination order with stable
per-destination item order**, and all round accounting (words, volumes,
violations) is derived from the same integer run metadata — so the
ledgers produced under either backend are bit-identical by construction.
There is a dedicated differential test suite pinning this.

The ``REPRO_ENGINE_BACKEND`` environment variable (``pure``, ``numpy`` or
``auto``) overrides the default backend choice.
"""

from __future__ import annotations

from typing import Any, Sequence
from ..env import env_name

try:  # optional accelerator — the pure backend is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None

__all__ = [
    "HAS_NUMPY",
    "PureEngineBackend",
    "NumpyEngineBackend",
    "get_engine_backend",
    "available_engine_backends",
]

HAS_NUMPY = _np is not None

_ENV_VAR = "REPRO_ENGINE_BACKEND"


def _group_pure(dsts: Sequence[int], items: Sequence[Any]) -> list[tuple[int, list[Any]]]:
    """Stable dict-bucketing of *items* by destination, ascending dst."""
    buckets: dict[int, list[Any]] = {}
    for dst, item in zip(dsts, items):
        bucket = buckets.get(dst)
        if bucket is None:
            buckets[dst] = [item]
        else:
            bucket.append(item)
    return [(dst, buckets[dst]) for dst in sorted(buckets)]


class PureEngineBackend:
    """Dependency-free grouping kernels over Python lists."""

    name = "pure"

    def group_indexed(
        self, dsts: Sequence[int], items: Sequence[Any]
    ) -> list[tuple[int, Any]]:
        """Split one scatter into ``(dst, block)`` runs.

        Runs come back in ascending destination order; within a run, items
        keep their scatter order (stable).  Array inputs are accepted for
        backend interchangeability but are delivered as plain lists —
        use :class:`NumpyEngineBackend` to keep blocks columnar.
        """
        if _np is not None and isinstance(items, _np.ndarray):
            return _group_pure(_as_id_list(dsts), items.tolist())
        # _as_id_list normalizes ndarray destination columns to Python
        # ints, so run/route/inbox keys are identical across backends.
        return _group_pure(_as_id_list(dsts), list(items))


class NumpyEngineBackend:
    """Vectorized grouping over numpy columns; list inputs fall back to
    the pure kernel (identical runs, identical accounting)."""

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:
            raise RuntimeError(
                "numpy engine backend requested but numpy is not installed "
                "(`pip install .` installs it)"
            )
        self._np = _np

    def group_indexed(
        self, dsts: Sequence[int], items: Sequence[Any]
    ) -> list[tuple[int, Any]]:
        np = self._np
        if not isinstance(items, np.ndarray):
            # Object payloads: the pure kernel is the honest per-item path.
            return _group_pure(list(_as_id_list(dsts)), list(items))
        dst_col = np.asarray(dsts, dtype=np.int64)
        if dst_col.ndim != 1 or dst_col.shape[0] != items.shape[0]:
            raise ValueError(
                f"scatter shape mismatch: {dst_col.shape[0]} destinations "
                f"for {items.shape[0]} items"
            )
        order = np.argsort(dst_col, kind="stable")
        sorted_dsts = dst_col[order]
        sorted_items = items[order]
        boundaries = np.flatnonzero(sorted_dsts[1:] != sorted_dsts[:-1]) + 1
        starts = [0, *boundaries.tolist(), len(sorted_dsts)]
        return [
            (int(sorted_dsts[start]), sorted_items[start:stop])
            for start, stop in zip(starts[:-1], starts[1:])
        ]


def _as_id_list(dsts: Any) -> list[int]:
    """Destination column as a list of Python ints (ndarray-tolerant)."""
    if _np is not None and isinstance(dsts, _np.ndarray):
        return dsts.tolist()
    return list(dsts)


def available_engine_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_engine_backend` on this installation."""
    return ("pure", "numpy") if HAS_NUMPY else ("pure",)


def get_engine_backend(
    backend: object = None,
) -> PureEngineBackend | NumpyEngineBackend:
    """Resolve *backend* to an engine-kernel instance.

    Accepts an existing backend instance (returned as is), a name
    (``"pure"``, ``"numpy"``, ``"auto"``), or ``None`` — which reads
    ``REPRO_ENGINE_BACKEND`` and falls back to the pure-Python default.
    """
    if backend is None:
        backend = env_name(_ENV_VAR, "pure")
    if isinstance(backend, (PureEngineBackend, NumpyEngineBackend)):
        return backend
    name = str(backend).lower()
    if name == "auto":
        return NumpyEngineBackend() if HAS_NUMPY else PureEngineBackend()
    if name == "pure":
        return PureEngineBackend()
    if name == "numpy":
        return NumpyEngineBackend()  # raises if numpy is missing
    raise ValueError(
        f"unknown engine backend {backend!r} (expected 'pure', 'numpy' or 'auto')"
    )
