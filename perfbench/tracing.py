"""Per-layer tracing from outside the program.

The public functions of each paleylift module are wrapped in place.  Every
module attribute bound to a wrapped object is patched, because modules
import each other's functions by name (cli imports `rank` and `multiply`,
css imports `trace_faces`, ...): patching only the defining module would
miss those calls.  Each call records a span (name, parent span, start,
end); a function's self time is its spans' durations minus the time
covered by their child spans.

Per-element operations (field add/mul, matrix entry/row) are not wrapped:
they run q^2 times, so a wrapper would dominate what it measures.  Their
time lands in the caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# module -> wrapped functions; "Class.method" names a method.
WRAPPED = {
    "fields": ["make_field", "primitive_element", "quadratic_residues"],
    "paley": ["build_paley", "verify_self_complementary_via_multiplier"],
    "voltage": ["build_voltage_graph", "lift", "block_adjacency"],
    "graphs": ["Graph.__init__", "adjacency_matrix", "incidence_matrix",
               "complement", "find_isomorphism", "verify_isomorphism",
               "is_self_complementary", "graph_to_json", "graph_from_json"],
    "embedding": ["RotationSystem.__post_init__", "trace_faces",
                  "face_edge_matrix", "dual_graph", "search_self_dual_embedding",
                  "rotation_to_json", "rotation_from_json"],
    "gf2": ["BinaryMatrix.__post_init__", "BinaryMatrix.transpose",
            "BinaryMatrix.to_text", "BinaryMatrix.from_text", "rank",
            "multiply", "RowSpace.__init__"],
    "css": ["build_code_embedding", "distance_search", "verify_witness",
            "write_bundle", "read_bundle"],
    "cli": ["cmd_paley", "cmd_lift", "cmd_code", "cmd_distance", "cmd_verify",
            "cmd_embed_search"],
}
FUNCTIONS = [f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names]

# Failure counters: searches that ran out of budget, CLI commands that
# returned nonzero (counted by the pipeline, not by a wrapper).
FAILURE_COUNTERS = ["graphs.find_isomorphism.budget_exceeded",
                    "embedding.search_self_dual_embedding.budget_exceeded",
                    "cli.exit_nonzero"]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rank(c, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    c["gf2.rank.cells"] += m.rows * m.cols


def _count_to_text(c, args, kwargs, result):
    c["gf2.text.bytes_written"] += len(result)


def _count_from_text(c, args, kwargs, result):
    c["gf2.text.bytes_read"] += len(_arg(args, kwargs, 1, "text"))


def _count_distance(c, args, kwargs, result):
    n = _arg(args, kwargs, 0, "code").n
    w_max = _arg(args, kwargs, 1, "w_max")
    c["css.distance_search.supports"] += sum(math.comb(n, w) for w in range(1, w_max + 1))


def _count_trace_faces(c, args, kwargs, result):
    c["embedding.trace_faces.darts"] += 2 * _arg(args, kwargs, 0, "rs").graph.edge_count


def _count_find_isomorphism(c, args, kwargs, result):
    c["graphs.find_isomorphism.vertices"] += _arg(args, kwargs, 0, "ga").vertex_count


# Work counts, computed from each call's arguments and result.
WORK_COUNTERS = {
    "gf2.rank": _count_rank,
    "gf2.BinaryMatrix.to_text": _count_to_text,
    "gf2.BinaryMatrix.from_text": _count_from_text,
    "css.distance_search": _count_distance,
    "embedding.trace_faces": _count_trace_faces,
    "graphs.find_isomorphism": _count_find_isomorphism,
}
WORK_NAMES = ["gf2.rank.cells", "gf2.text.bytes_written", "gf2.text.bytes_read",
              "css.distance_search.supports", "embedding.trace_faces.darts",
              "graphs.find_isomorphism.vertices"]


class Tracer:
    """Span recorder for the wrapped functions; inert until installed and
    recording."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list = []       # (name, parent index or -1, start, end)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []    # (owner, attribute, original)
        graphs = importlib.import_module("paleylift.graphs")
        self._budget_error = graphs.SearchBudgetExceeded

    def reset(self) -> None:
        self.spans, self.counters, self._stack = [], Counter(), []

    def _wrap(self, name: str, fn):
        count = WORK_COUNTERS.get(name)
        budget_key = f"{name}.budget_exceeded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._budget_error:
                self.counters[budget_key] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, parent, start, end)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed function; returns the names that no longer
        exist in the program."""
        missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "paleylift" or key.startswith("paleylift."))]
        for mod_name, names in WRAPPED.items():
            module = importlib.import_module(f"paleylift.{mod_name}")
            for name in names:
                full = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name, None)
                    raw = vars(owner).get(attr) if isinstance(owner, type) else None
                    if raw is None:
                        missing.append(full)
                        continue
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(full, raw.__func__))
                    else:
                        patched = self._wrap(full, raw)
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, patched)
                    continue
                original = getattr(module, name, None)
                if original is None:
                    missing.append(full)
                    continue
                wrapper = self._wrap(full, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def summary(self) -> dict[str, float]:
        """Self time and calls per function, self time per module, and the
        work and failure counters, for the spans recorded since reset()."""
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            out[f"{fn}.self_s"] = 0.0
            out[f"{fn}.calls"] = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[f"{name}.self_s"] += (end - start) - child[i]
            out[f"{name}.calls"] += 1
        for mod, names in WRAPPED.items():
            out[f"{mod}.self_s"] = sum(out[f"{mod}.{n}.self_s"] for n in names)
        for key in WORK_NAMES + FAILURE_COUNTERS:
            out[key] = self.counters[key]
        return out
