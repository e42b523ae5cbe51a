"""In-memory span tracing around the public entry points of each layer.

A ``Tracer`` replaces each traced function at every name its callers look
it up by (``qvi.damped_newton`` and ``limit.damped_newton`` are separate
bindings made by ``from ._slope import``), records one span per call and
puts every original back when the ``with`` block ends, so an untraced run
in the same process sees the unwrapped functions.  A target that no longer
exists is recorded as absent instead of failing.

Each span is ``[id, parent_id, name, start, end, info]``; ``info`` holds a
small per-target detail (Newton iterations and convergence, renewal
candidates, CLI subcommand and exit code).  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import sys
import time

import numpy as np

PACKAGE = "growth_frictions"


def _newton_info(args, kwargs, result):
    _, iters, norm = result
    return (int(iters), bool(norm <= kwargs.get("tol", 1e-10)))


def _renewal_info(args, kwargs, result):
    return int(np.size(args[2]))


def _cli_info(args, kwargs, result):
    return (args[0][0], result)


# (defining module, attribute, info function).  Span names are
# "<layer>.<attribute>" with the module name as the layer.
TARGETS = (
    ("_slope", "damped_newton", _newton_info),
    ("qvi", "solve_boundaries", None),
    ("qvi", "residual_system", None),
    ("qvi", "build_value", None),
    ("qvi", "verify_qvi", None),
    ("limit", "solve_limit", None),
    ("limit", "residual_system_limit", None),
    ("limit", "build_limit_value", None),
    ("limit", "verify_hjb_limit", None),
    ("lab", "evaluate_policy_renewal", None),
    ("lab", "brute_force_boundaries", None),
    ("lab", "sweep_delta", None),
    ("lab", "convergence_report", None),
    ("lab", "_renewal_batch", _renewal_info),
    ("simulate", "estimate_growth_impulse", None),
    ("simulate", "estimate_growth_reflected", None),
    ("simulate", "simulate_impulse_path", None),
    ("simulate", "simulate_reflected_path", None),
    ("simulate", "couple_paths", None),
    ("simulate", "couple_at_boundaries", None),
    ("cli", "main", _cli_info),
)


def package_modules():
    """The loaded modules of the package, the package itself included."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager that wraps TARGETS for the duration of a block."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.absent: list = []
        self._patched: list = []  # (module, attribute, original)
        self._stack: list = []

    def _wrap(self, name, fn, info_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info_of is not None:
                span[5] = info_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def __enter__(self):
        modules = package_modules()
        for module_name, attr, info_of in self.targets:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original, info_of)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False


def wrapped_names():
    """Names in the package that still hold a tracer wrapper (should be none
    outside a ``with Tracer()`` block)."""
    return [f"{mod.__name__}.{attr}" for mod in package_modules()
            for attr, value in list(mod.__dict__.items())
            if hasattr(value, "perfbench_span")]


# ---------------------------------------------------------------- analysis

def durations(spans, name, parent_name=None):
    """Durations of the spans called ``name`` (optionally only those whose
    direct parent is called ``parent_name``)."""
    out = []
    for span in spans:
        if span[2] != name:
            continue
        if parent_name is not None and (span[1] < 0 or spans[span[1]][2] != parent_name):
            continue
        out.append(span[4] - span[3])
    return out


def self_times(spans):
    """Per-span self time: duration minus the part its direct children cover
    (children of one span run sequentially, so their durations add)."""
    own = [s[4] - s[3] for s in spans]
    for span in spans:
        if span[1] >= 0:
            own[span[1]] -= span[4] - span[3]
    return own


def child_time(spans, parent_ids, child_name):
    """Total duration of ``child_name`` spans directly under ``parent_ids``."""
    parent_ids = set(parent_ids)
    return sum(s[4] - s[3] for s in spans if s[2] == child_name and s[1] in parent_ids)


def write_csv(spans, path):
    """Write spans as CSV: id, parent, name, start, end, info."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start,end,info\n")
        for sid, parent, name, t0, t1, info in spans:
            detail = "" if info is None else str(info).replace(",", ";")
            fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f},{detail}\n")
