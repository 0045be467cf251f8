"""Span tracing of the thermalcoherent package from outside its source.

The tracer wraps the public functions and methods defined in each
package module (names without a leading underscore), plus the
verification checks and CLI subcommands found by name prefix.  Several
modules import functions by name, so a wrapper is installed in every
module namespace that binds the original.  Each call records one span
``[name, start, end, parent, attrs]``; spans stay in memory until the
caller writes them out.  Only the standard library is imported here.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager
from functools import wraps

PACKAGE = "thermalcoherent"
LAYERS = (
    "fockspace",
    "tfd_states",
    "equivalence",
    "observables",
    "quasiprob",
    "opo",
    "verification",
    "cli",
)
# Private callables traced by name prefix: the verification registry
# checks and the CLI subcommands.  A renamed check is still found.
PREFIXES = {"verification": "_check_", "cli": "cmd_"}
# The cached eigensystem call is the only place the characteristic
# function's padded cutoff is visible from outside.
EXTRA = {"quasiprob": ("_displacement_eigensystems",)}

KERNEL = "tfd_states.apply_exp_generator"
BUILD = "tfd_states.build_state"
CHAR = "quasiprob.char_signal_numeric"
WIGNER = "quasiprob.wigner_numeric_many"
EIGEN = "quasiprob._displacement_eigensystems"


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    return math.prod(shape) if shape is not None else len(x)


def _build_before(sig):
    def before(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"tail_tol": bound.arguments.get("tail_tol")}

    return before


# label -> (attributes from the arguments, attributes from the result)
HOOKS = {
    KERNEL: (lambda a, k: {"cells": _size(_first(a, k, "psi"))}, None),
    BUILD: (
        None,  # replaced at install time by a signature-aware hook
        lambda st: {"d": st.dim_per_mode, "tail": st.tail_mass},
    ),
    "fockspace.matrix_exp": (lambda a, k: {"dim": _first(a, k, "m").shape[0]}, None),
    CHAR: (lambda a, k: {"points": _size(a[1] if len(a) > 1 else k["etas"])}, None),
    EIGEN: (lambda a, k: {"d_eval": int(_first(a, k, "d"))}, None),
}


def discover():
    """(label, owner, attribute, original) for every traced callable."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{name}", mod, name, obj))
            elif inspect.isclass(obj):
                for meth, val in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(val):
                        found.append((f"{layer}.{name}.{meth}", obj, meth, val))
        prefix = PREFIXES.get(layer)
        for name, obj in vars(mod).items():
            if prefix and name.startswith(prefix) and inspect.isfunction(obj):
                found.append((f"{layer}.{name[len(prefix):]}", mod, name, obj))
        for name in EXTRA.get(layer, ()):
            if callable(getattr(mod, name, None)):
                found.append((f"{layer}.{name}", mod, name, getattr(mod, name)))
    return found


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records nested spans around the package's functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if attrs:
            span[4] = {**(span[4] or {}), **attrs}

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, label, fn, before, after):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(label, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, {"error": type(exc).__name__})
                raise
            tracer.close(idx, after(result) if after else None)
            return result

        traced.perfbench_traced = True
        return traced

    def install(self) -> int:
        """Wrap every discovered callable wherever it is bound; returns the count."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for label, owner, attr, fn in discover():
            before, after = HOOKS.get(label, (None, None))
            if label == BUILD:
                before = _build_before(inspect.signature(fn))
            wrapper = self._wrap(label, fn, before, after)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = (fn, wrapper)
        for mod in _package_modules():
            for name, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, name, val))
                    setattr(mod, name, hit[1])
        return len(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names of package bindings that currently hold a tracing wrapper."""
    hits = []
    for mod in _package_modules():
        for name, val in vars(mod).items():
            if getattr(val, "perfbench_traced", False):
                hits.append(f"{mod.__name__}.{name}")
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                hits.extend(
                    f"{mod.__name__}.{name}.{meth}"
                    for meth, fn in vars(val).items()
                    if getattr(fn, "perfbench_traced", False)
                )
    return hits


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _ancestor(spans, idx, label):
    parent = spans[idx][3]
    while parent >= 0 and spans[parent][0] != label:
        parent = spans[parent][3]
    return parent


def summarize(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics from the spans of one pass (one list per job).

    Every label gets ``calls``, ``busy_s`` and ``self_s``; a few labels
    get derived quantities described in the benchmark README.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    def peak(key, value):
        out[key] = max(out.get(key, 0.0), value)

    kernel_total = kernel_useful = 0.0
    for spans in span_lists:
        selfs = self_times(spans)
        build_kernel: dict[int, list] = {}
        wigner_chars: dict[int, int] = {}
        for i, (name, start, end, _, attrs) in enumerate(spans):
            attrs = attrs or {}
            dur = end - start
            add(f"{name}.calls", 1)
            add(f"{name}.busy_s", dur)
            add(f"{name}.self_s", selfs[i])
            if name == KERNEL:
                add(f"{KERNEL}.cells", attrs.get("cells", 0))
                b = _ancestor(spans, i, BUILD)
                if b >= 0:
                    d = math.isqrt(attrs.get("cells", 0))
                    build_kernel.setdefault(b, []).append((d, dur))
            elif name == BUILD:
                if "d" in attrs:
                    peak(f"{BUILD}.cutoff_max", attrs["d"])
                    if attrs.get("tail_tol"):
                        peak(f"{BUILD}.tail_ratio_max", attrs["tail"] / attrs["tail_tol"])
            elif name == "fockspace.matrix_exp":
                peak("fockspace.matrix_exp.dim_max", attrs.get("dim", 0))
            elif name == CHAR:
                add(f"{CHAR}.points", attrs.get("points", 0))
                w = _ancestor(spans, i, WIGNER)
                if w >= 0:
                    wigner_chars[w] = wigner_chars.get(w, 0) + 1
            elif name == EIGEN:
                peak(f"{CHAR}.d_eval_max", attrs.get("d_eval", 0))
        for b, calls in build_kernel.items():
            add(f"{BUILD}.attempts", len({d for d, _ in calls}))
            returned = (spans[b][4] or {}).get("d")
            for d, dur in calls:
                kernel_total += dur
                if d == returned:
                    kernel_useful += dur
        for count in wigner_chars.values():
            add(f"{WIGNER}.refinements", count - 1)
    if kernel_total > 0.0:
        out[f"{BUILD}.useful_ratio"] = kernel_useful / kernel_total
    return out
