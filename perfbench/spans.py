"""Outside-in tracing: timing spans around the program's layer entry points.

The program carries no instrumentation.  :class:`Tracer` replaces each
declared entry point with a wrapper that records one span per call --
entry-point name, start, end and the index of the enclosing span -- into
flat in-memory arrays, and writes them out once, when the run ends
(:meth:`Tracer.write`).  :func:`layer_table` reads such a file back and
computes each layer's *self* time: a span's duration minus the durations
of its direct child spans.

Only boundary entry points are wrapped, never recursive helpers such as
``repro.mpc.words.word_size``: a span per recursive call would cost more
than the work it measures.  Methods are wrapped on their class, so every
instance and every caller sees the wrapper.  Module functions are wrapped
at every ``repro`` module binding that holds them (``from x import f``
copies the reference into the importing module).  An entry point that
cannot be resolved is reported by name, never silently counted as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from types import ModuleType

#: Layer -> entry points (``module:qualname``).  ``core`` is the
#: benchmark's root span around the timed call; its self time is what the
#: algorithm (or, on ``serve_stream``, the client loop) does outside every
#: listed layer.  See LAYERS.md for what each layer should move.
LAYERS: dict[str, tuple[str, ...]] = {
    "mpc.words": (
        "repro.mpc.plan:RoundPlan.run_words",
        "repro.mpc.machine:Machine.put",
        "repro.mpc.machine:Machine.touch",
    ),
    "primitives": (
        "repro.primitives.sort:sample_sort",
        "repro.primitives.aggregate:aggregate",
        "repro.primitives.broadcast:broadcast",
        "repro.primitives.disseminate:disseminate",
        "repro.primitives.arrange:arrange_directed",
        "repro.primitives.dedup:dedup_lightest",
        *(
            f"repro.primitives.edgestore:EdgeStore.{method}"
            for method in (
                "create", "items", "map_local", "filter_local", "flat_map_local",
                "sample", "copy", "drop", "count", "gather_to_large", "sort",
                "aggregate", "annotate",
            )
        ),
        # The per-machine kernels the primitives hand to the executor seam
        # (``Cluster.run_local_steps``); wrapped in the step registry so
        # ``mpc.executor`` keeps only the seam's own cost.
        *(
            f"local-step:{name}"
            for name in (
                "cluster/map-small", "dedup/keep-first-columnar",
                "dedup/keep-first-object", "edgestore/scan", "edgestore/pairs",
                "sort/bucket-object", "sort/rank-object", "sort/partition-columnar",
                "sort/rank-columnar", "arrange/directed-flat",
                "arrange/directed-object", "aggregate/combine-object",
                "aggregate/reduce-pairs", "join/directed-flat", "join/directed-object",
            )
        ),
    ),
    "mpc.cluster": ("repro.mpc.cluster:Cluster.execute",),
    "mpc.executor": ("repro.mpc.cluster:Cluster.run_local_steps",),
    "local": (
        "repro.local.mst:kruskal_edges",
        "repro.local.matching:greedy_maximal_matching",
    ),
    "labeling": (
        "repro.labeling.flow_labels:build_flow_labels",
        "repro.labeling.flow_labels:decode_heaviest",
    ),
    "sketches": (
        "repro.sketches.bank:SketchBank.update_edges",
        "repro.sketches.bank:SketchBank.row_items",
        "repro.sketches.bank:SketchBank.insert_row",
        "repro.sketches.bank:SketchBank.absorb",
        "repro.sketches.bank:SketchRow.merge",
        "repro.sketches.bank:bank_boruvka",
        "repro.sketches.graph_sketch:GraphSketchSpec.generate",
    ),
    "serve.service": (
        "repro.serve.service:GraphService.update",
        "repro.serve.service:GraphService.refresh",
        "repro.serve.service:GraphService.connected",
    ),
    "serve.protocol": ("repro.serve.protocol:ServeSession.handle_line",),
    "core": (),
}

#: Counts recorded at the boundaries, by the layer that owns them.
COUNTS = (
    "mpc.words.total_words",
    "mpc.cluster.rounds",
    "mpc.cluster.items",
    "sketches.edges",
    "serve.refreshes",
)

ROOT = "core"
#: Spans of the benchmark's own pauses inside the timed call (reference
#: timings between ``serve_stream`` batches): they belong to no layer and
#: are left out of the wall time that shares divide by.
PAUSE = "pause"


def _layer_of() -> dict[str, str]:
    return {entry: layer for layer, entries in LAYERS.items() for entry in entries}


class Tracer:
    """Records spans for the wrapped entry points of one process."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT, PAUSE]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.unresolved: list[str] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _wrap(self, fn, name_id: int, hook=None):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock, counts = time.perf_counter, self.counts
        hook = hook or _no_count

        def traced(*args, **kwargs):
            args, kwargs, finish = hook(counts, args, kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                finish()

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def _span(self, name_id: int):
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(index)
        try:
            yield
        finally:
            self.span_end[index] = time.perf_counter()
            self._stack.pop()

    def root(self):
        """The ``core`` span around the timed call."""
        return self._span(self.names.index(ROOT))

    def pause(self):
        """A span for benchmark work inside the timed call."""
        return self._span(self.names.index(PAUSE))

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every declared entry point of the loaded ``repro`` modules."""
        for entries in LAYERS.values():
            for entry in entries:
                if not self._install_one(entry):
                    self.unresolved.append(entry)

    def _install_one(self, entry: str) -> bool:
        module_name, _, qualname = entry.partition(":")
        name_id = len(self.names)
        if module_name == "local-step":
            from repro.mpc.executor import local_step, resolve_step

            try:
                step = resolve_step(qualname)
            except KeyError:
                return False
            # Re-registering from the defining module replaces the entry.
            local_step(qualname, ships=step.ships)(self._wrap(step.fn, name_id))
            self.names.append(entry)
            return True
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        hook = _HOOKS.get(entry)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if isinstance(raw, classmethod):
                if inspect.isgeneratorfunction(raw.__func__):
                    return False
                wrapped = classmethod(self._wrap(raw.__func__, name_id, hook))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self._wrap(raw, name_id, hook)
            else:
                return False
            setattr(owner, attr, wrapped)
        else:
            original = getattr(module, attr, None)
            if not inspect.isfunction(original) or inspect.isgeneratorfunction(original):
                return False
            wrapped = self._wrap(original, name_id, hook)
            for other in list(sys.modules.values()):
                if isinstance(other, ModuleType) and other.__name__.split(".")[0] == "repro":
                    for binding, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, binding, wrapped)
        self.names.append(entry)
        return True

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "counts": dict(self.counts),
            "unresolved": self.unresolved,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)


# ----------------------------------------------------------------------
# count hooks: run outside the span's timed interval
# ----------------------------------------------------------------------
def _count_rounds(counts, args, kwargs):
    ledger = args[0].ledger
    rounds, records = ledger.rounds, len(ledger.records)

    def finish():
        new = ledger.records[records:]
        counts["mpc.cluster.rounds"] += ledger.rounds - rounds
        counts["mpc.cluster.items"] += sum(record.items for record in new)
        counts["mpc.words.total_words"] += sum(record.total_words for record in new)

    return args, kwargs, finish


def _count_edges(counts, args, kwargs):
    edges = args[1] if len(args) > 1 else kwargs.pop("edges")
    if isinstance(edges, (list, tuple)):
        counts["sketches.edges"] += len(edges)
    else:
        def counted(source):
            for edge in source:
                counts["sketches.edges"] += 1
                yield edge

        edges = counted(edges)
    return (args[0], edges, *args[2:]), kwargs, _nothing


def _count_refresh(counts, args, kwargs):
    counts["serve.refreshes"] += 1
    return args, kwargs, _nothing


def _no_count(counts, args, kwargs):
    return args, kwargs, _nothing


def _nothing() -> None:
    return None


_HOOKS = {
    "repro.mpc.cluster:Cluster.execute": _count_rounds,
    "repro.sketches.bank:SketchBank.update_edges": _count_edges,
    "repro.serve.service:GraphService.refresh": _count_refresh,
}


# ----------------------------------------------------------------------
# analysis (runs in the benchmark's parent process)
# ----------------------------------------------------------------------
def read(path: str) -> tuple[dict, array, array, array, array]:
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        count = header["spans"]
        columns = []
        for typecode in ("i", "i", "d", "d"):
            column = array(typecode)
            column.fromfile(source, count)
            columns.append(column)
    return (header, *columns)


def layer_table(path: str) -> dict:
    """Per-layer ``self_s`` / ``calls`` / ``share`` from one span file,
    plus the boundary counts, the root's wall time (less pauses) and the
    unresolved names."""
    header, names, parents, starts, ends = read(path)
    layer_of = _layer_of()
    layer_of[ROOT] = ROOT
    child = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[index] - starts[index]
    self_s = Counter({layer: 0.0 for layer in LAYERS})
    calls = Counter({layer: 0 for layer in LAYERS})
    wall = 0.0
    for index, name_id in enumerate(names):
        duration = ends[index] - starts[index]
        if header["names"][name_id] == PAUSE:
            wall -= duration
            continue
        layer = layer_of[header["names"][name_id]]
        self_s[layer] += duration - child[index]
        calls[layer] += 1
        if layer == ROOT and parents[index] < 0:
            wall += duration
    return {
        "wall_s": wall,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "calls": calls[layer],
                "share": self_s[layer] / wall if wall else 0.0,
            }
            for layer in LAYERS
        },
        "counts": header["counts"],
        "unresolved": header["unresolved"],
    }
