"""Outside-in span tracer for the hyplab package.

The tracer wraps functions of already-imported hyplab modules without
editing the package.  A wrapped function is reachable through several
bindings, and a call through any binding left unwrapped escapes the trace,
so ``install`` replaces every one of them:

* the module global that defines the function;
* every other hyplab module global bound to it (``from .x import f``);
* every entry of a module-level dict bound to it (``tables.TABLE_BUILDERS``,
  ``cli.COMMANDS``);
* the class attribute, for the methods named in ``METHODS``.

``uninstall`` puts every original back.  Spans are kept in memory as
``(name, start, end, parent, tag)`` tuples (``parent`` is the index of the
enclosing span, -1 at top level) and written out once, at the end of a run.
Recording assumes one thread: traced runs use ``--jobs 1``, because spans
recorded in pool workers would be lost.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "hyplab"

# every hyplab module with a layer metric; ``zones`` is left out because its
# public functions are O(1) helpers called inside weights and coefficients,
# where a wrapper would cost more than the call it measures
MODULES = (
    "cli",
    "config",
    "energy",
    "companion",
    "coefficients",
    "diagonalizers",
    "moduli",
    "weights",
    "tables",
    "conjugation",
    "zygmund",
)

# O(1) helpers of traced modules, left unwrapped for the same reason:
# jbracket runs once per row inside roots_on_times' root settling (~14k calls
# a pass), whose self time should keep that cost
SKIP = frozenset({"weights.jbracket"})

# methods are wrapped only where named: most methods are O(1) evaluations
# called inside the loops being measured (AuxiliaryFunction.value runs ~50
# times per inverse_bisect call)
METHODS = (("moduli", "AuxiliaryFunction", "inverse_bisect"),)


def _arg(args, kwargs, position, keyword):
    return kwargs[keyword] if keyword in kwargs else args[position]


# per-call annotations stored as the span tag: the frequency of an evolution
# and the number of time points of a batched evaluation
TAGS = {
    "energy.evolve_frequency": lambda a, k: float(_arg(a, k, 1, "xi")),
    "companion.roots_on_times": lambda a, k: int(np.size(_arg(a, k, 1, "ts"))),
    "coefficients.mollify": lambda a, k: int(np.size(_arg(a, k, 3, "t"))),
}


def _module(short):
    return sys.modules[f"{PACKAGE}.{short}"]


def traced_functions():
    """Span name -> function, for every function the tracer wraps."""
    out = {}
    for short in MODULES:
        mod = _module(short)
        for name, obj in vars(mod).items():
            span = f"{short}.{name}"
            if (
                not name.startswith("_")
                and span not in SKIP
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[span] = obj
    for short, cls_name, meth in METHODS:
        out[f"{short}.{meth}"] = vars(getattr(_module(short), cls_name))[meth]
    return out


def _bindings():
    """(setter, container, key, value) of every place a traced function can be bound."""
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith(PACKAGE + ".") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            yield setattr, mod, key, value
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dval in list(value.items()):
                    yield dict.__setitem__, value, dkey, dval
    for short, cls_name, meth in METHODS:
        cls = getattr(_module(short), cls_name)
        yield setattr, cls, meth, vars(cls)[meth]


def _is_key(value, table):
    try:
        return value in table
    except TypeError:  # unhashable module globals (lists, arrays, dicts)
        return False


class Tracer:
    """Records spans around the public functions of the hyplab modules."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (setter, container, key, original), in install order
        self.originals = {}  # original function -> span name

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tag_of = TAGS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            tag = tag_of(args, kwargs) if tag_of is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tag)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every traced function in every binding; returns the tracer."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.originals = {fn: name for name, fn in traced_functions().items()}
        wrappers = {fn: self._wrap(name, fn) for fn, name in self.originals.items()}
        for setter, container, key, value in list(_bindings()):
            if _is_key(value, wrappers):
                setter(container, key, wrappers[value])
                self._patched.append((setter, container, key, value))
        return self

    def uninstall(self):
        while self._patched:
            setter, container, key, original = self._patched.pop()
            setter(container, key, original)

    def escaped_bindings(self):
        """Bindings that still hold an original function (none while installed)."""
        return [
            f"{getattr(container, '__name__', type(container).__name__)}[{key!r}]"
            for _, container, key, value in _bindings()
            if _is_key(value, self.originals)
        ]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Span duration minus the time covered by its child spans.

    Spans come from one thread's call stack, so children of a span nest and
    never overlap; the covered time is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
