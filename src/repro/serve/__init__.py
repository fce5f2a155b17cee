"""Dynamic-graph query service over linear sketches.

The sketches of Appendix C.1 are *linear*, so edge deletions are signed
updates and a long-lived service can maintain connectivity under a
stream of inserts and deletes without ever re-running the pipeline:

* :mod:`repro.serve.service` — the incremental core: per-shard
  :class:`~repro.sketches.bank.SketchBank` state, a lazily refreshed
  component forest, and connectivity / components / approximate-MST
  weight queries.
* :mod:`repro.serve.protocol` — the deterministic JSONL op protocol.
* :mod:`repro.serve.daemon` — ``python -m repro serve`` over stdio or
  TCP.
* :mod:`repro.serve.client` — spawn-or-dial client.

Determinism: a service seeded with ``seed`` answers exactly as a
from-scratch :func:`~repro.core.connectivity.sketch_components` run on
the surviving edge multiset (pinned by the differential-replay tests in
``tests/serve/``).
"""

from .client import ServeClient, ServeRemoteError
from .protocol import ServeSession, decode, encode
from .service import ComponentView, GraphService, ServeConfig, ServiceError

__all__ = [
    "ComponentView",
    "GraphService",
    "ServeConfig",
    "ServiceError",
    "ServeSession",
    "ServeClient",
    "ServeRemoteError",
    "encode",
    "decode",
]
