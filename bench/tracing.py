"""In-memory span and count recording around helmcut's public functions.

The benchmark's own wrappers stand at each layer boundary (layer = module
of the package); nothing inside the program is changed.  Modules bind each
other's functions by name at import time (``from .reduction import
reduce_complex``), so a wrapper replaces the binding in every helmcut
module that holds the function, not only in the defining module.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "builders",
    "complexes",
    "reduction",
    "exact_linalg",
    "homology",
    "domains",
    "cuts",
    "links",
    "groups",
)

# Classes whose public methods get spans too: other layers reach this
# work through objects these layers return (a ComplexHomology from
# homology_of, a ReducedComplex from reduce_complex, a subcomplex query).
# Methods of the remaining classes are O(1) accessors or series arithmetic
# called up to a million times a run; their time counts toward the caller.
METHOD_CLASSES = {
    "complexes": ("SimplicialComplex", "MarkedComplex"),
    "reduction": ("ReducedComplex",),
    "homology": ("ComplexHomology",),
}

# Per-layer metrics beyond self time, in the order they are reported.
COUNTERS = (
    "complexes.boundary_subcomplex_calls",
    "complexes.subdivided_tets",
    "reduction.cells_in",
    "reduction.cells_left",
    "exact_linalg.snf_s",
    "exact_linalg.snf_calls",
    "exact_linalg.snf_entries",
    "homology.homology_of_calls",
    "homology.homology_of_misses",
    "homology.witness_calls",
    "domains.intersection_form_s",
    "cuts.validate_calls",
    "cuts.validate_s",
    "cuts.cut_open_s",
    "groups.milnor_mu_calls",
    "groups.wirtinger_calls",
    "groups.magnus_products",
)


class Tracer:
    """Records one span per call of a wrapped function: (name, start, end,
    parent index), plus the counters above.  Spans nest by call order; the
    process runs one operation at a time, so a stack gives each span its
    parent."""

    def __init__(self, timer=time.perf_counter) -> None:
        self._timer = timer
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_time: list[float] = []
        self.counts: dict[str, float] = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._on = True

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's correctness checks) are not
        recorded."""
        was, self._on = self._on, False
        try:
            yield
        finally:
            self._on = was

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        """Wrap fn in a span; hook(args) may return a callback that gets
        (duration, result) when the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            finish = hook(args) if hook is not None else None
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.child_time.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = self._timer()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._timer()
                self._stack.pop()
                self.ends[idx] = end
                if self._stack:
                    self.child_time[self._stack[-1]] += end - start
            if finish is not None:
                finish(end - start, result)
            return result

        return wrapper

    def _hooks(self, modules) -> dict:
        """Counter updates, keyed by the wrapped function's span name."""
        c = self.counts
        homology_of = modules["homology"].homology_of

        def add(*pairs):
            for key, amount in pairs:
                c[key] += amount

        def homology_of_hook(args):
            misses = homology_of.cache_info().misses
            c["homology.homology_of_calls"] += 1
            return lambda dt, r: add(
                ("homology.homology_of_misses", homology_of.cache_info().misses - misses)
            )

        def reduce_hook(args):
            c["reduction.cells_in"] += len(args[0].dim)
            return lambda dt, r: add(
                ("reduction.cells_left", sum(len(cells) for cells in r.cells_by_dim))
            )

        return {
            "complexes.boundary_subcomplex": lambda a: add(
                ("complexes.boundary_subcomplex_calls", 1)
            ),
            "complexes.barycentric_subdivide_with_map": lambda a: lambda dt, r: add(
                ("complexes.subdivided_tets", len(r[0].simplices(3)))
            ),
            "reduction.reduce_complex": reduce_hook,
            "exact_linalg.smith_normal_form": lambda a: lambda dt, r: add(
                ("exact_linalg.snf_s", dt),
                ("exact_linalg.snf_calls", 1),
                ("exact_linalg.snf_entries", a[0].rows * a[0].cols),
            ),
            "homology.homology_of": homology_of_hook,
            "homology.is_boundary_witness": lambda a: add(("homology.witness_calls", 1)),
            "domains.intersection_form": lambda a: lambda dt, r: add(
                ("domains.intersection_form_s", dt)
            ),
            "cuts.validate_surface_system": lambda a: lambda dt, r: add(
                ("cuts.validate_s", dt), ("cuts.validate_calls", 1)
            ),
            "cuts.cut_open": lambda a: lambda dt, r: add(("cuts.cut_open_s", dt)),
            "groups.milnor_mu": lambda a: add(("groups.milnor_mu_calls", 1)),
            "groups.wirtinger": lambda a: add(("groups.wirtinger_calls", 1)),
        }

    def install(self) -> None:
        """Wrap every public function and public method of the layer
        modules, and rebind the wrappers wherever helmcut holds the
        originals."""
        modules = {name: sys.modules[f"helmcut.{name}"] for name in LAYERS}
        hooks = self._hooks(modules)
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if attr in METHOD_CLASSES.get(layer, ()):
                        self._wrap_methods(layer, obj)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._span(name, obj, hooks.get(name))
        series = modules["groups"].MagnusSeries
        series.__mul__ = self._counted("groups.magnus_products", series.__mul__)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "helmcut" and not mod_name.startswith("helmcut."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._span(name, raw))

    def _counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._on:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reporting -----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        """Per layer: the sum over its spans of the span's duration minus
        the time its child spans cover."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, start, end, child in zip(self.names, self.starts, self.ends, self.child_time):
            out[name.split(".", 1)[0]] += end - start - child
        return out

    def metrics(self) -> dict[str, float]:
        out = {f"{layer}.self_s": t for layer, t in self.layer_self_times().items()}
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        """Write spans as parallel columns (name index, start, end, parent)
        with the counters."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        data = {
            "names": names,
            "spans": {
                "name": [index[n] for n in self.names],
                "start": [round(s - t0, 7) for s in self.starts],
                "end": [round(e - t0, 7) for e in self.ends],
                "parent": self.parents,
            },
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
