"""Component-stable execution (footnote 1 of the paper).

The conditional lower bounds of [17, 29] apply only to *component-stable*
algorithms — ones whose output on each connected component is independent
of the other components.  The paper notes its algorithms "can trivially be
made component-stable, because we can first solve connectivity on the
large machine, and then work on each connected component separately but in
parallel".  This module implements exactly that wrapper:

1. run the O(1)-round sketch connectivity (Theorem C.1);
2. split the input into per-component subgraphs (vertices relabeled to
   ``0..size-1`` so a component run never sees the rest of the graph —
   that is the stability guarantee);
3. run the wrapped algorithm on every component inside a parallel ledger
   section — components share rounds, so the total round cost is
   ``connectivity + max over components``;
4. remap outputs back to original vertex ids when combining.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..graph.graph import Graph
from ..mpc import ModelConfig
from ..mpc.ledger import RoundLedger
from .connectivity import heterogeneous_connectivity

__all__ = ["ComponentStableResult", "run_component_stable"]

#: An algorithm entry point: (graph, rng=...) -> result with a ``rounds``
#: attribute (all of ``repro.core``'s entry points qualify).
Algorithm = Callable[..., Any]


@dataclass
class ComponentStableResult:
    """Per-component results plus the combined round accounting.

    Component results are expressed in *component-local* vertex ids;
    ``to_original[label]`` maps local id -> original id, and the
    ``combined_*`` helpers do the remapping.
    """

    component_results: dict[int, Any]
    to_original: dict[int, list[int]]
    labels: list[int]
    connectivity_rounds: int
    component_rounds: int

    @property
    def rounds(self) -> int:
        """Total: connectivity plus the slowest component (they run in
        parallel)."""
        return self.connectivity_rounds + self.component_rounds

    @property
    def num_components(self) -> int:
        return len(self.component_results)

    def combined_vertices(self, extract: Callable[[Any], Any]) -> set[int]:
        """Union per-component vertex outputs, remapped to original ids."""
        out: set[int] = set()
        for label, result in self.component_results.items():
            mapping = self.to_original[label]
            out.update(mapping[v] for v in extract(result))
        return out

    def combined_edges(self, extract: Callable[[Any], Any]) -> list[tuple]:
        """Union per-component edge outputs (``(u, v, ...)`` tuples; the
        first two coordinates are vertex ids), remapped to original ids."""
        out: list[tuple] = []
        for label, result in self.component_results.items():
            mapping = self.to_original[label]
            for edge in extract(result):
                u, v = mapping[edge[0]], mapping[edge[1]]
                out.append((min(u, v), max(u, v), *edge[2:]))
        return out


def run_component_stable(
    graph: Graph,
    algorithm: Algorithm,
    rng: random.Random | None = None,
    config: ModelConfig | None = None,
    **algorithm_kwargs: Any,
) -> ComponentStableResult:
    """Run *algorithm* component-stably on *graph*.

    Each component gets its own deployment sized to the component (the
    model allots machines per input size); all components execute in
    parallel, so the charged component cost is the max round count.
    """
    rng = rng if rng is not None else random.Random(0)

    connectivity = heterogeneous_connectivity(graph, config=config, rng=rng)
    members: dict[int, list[int]] = {}
    for vertex, label in enumerate(connectivity.labels):
        members.setdefault(label, []).append(vertex)

    ledger = RoundLedger()
    results: dict[int, Any] = {}
    to_original: dict[int, list[int]] = {}
    with ledger.parallel("components") as par:
        for label, vertices in sorted(members.items()):
            with par.branch():
                local_of = {v: i for i, v in enumerate(vertices)}
                local_edges = [
                    (local_of[e[0]], local_of[e[1]], *e[2:])
                    for e in graph.edges
                    if e[0] in local_of and e[1] in local_of
                ]
                subgraph = Graph(
                    len(vertices), local_edges, weighted=graph.weighted
                )
                result = algorithm(
                    subgraph, rng=random.Random(rng.random()), **algorithm_kwargs
                )
                ledger.charge(getattr(result, "rounds", 0), note=f"component{label}")
                results[label] = result
                to_original[label] = list(vertices)

    return ComponentStableResult(
        component_results=results,
        to_original=to_original,
        labels=connectivity.labels,
        connectivity_rounds=connectivity.rounds,
        component_rounds=ledger.rounds,
    )
