"""Spans around the library's public functions, installed from outside it.

A layer is a group of functions of one ``lowrank_ncvx`` module.  While a
``Tracer`` is active, every module-level binding of every function of a layer,
in every loaded ``lowrank_ncvx`` module, is replaced by a wrapper that records
a span.  Scanning all bindings matters: ``gd.loss_and_grad`` and
``direct.loss_and_grad`` are the same function as ``problems.loss_and_grad``,
and calls made through any of them must land in the same layer.  Leaving the
context restores the original bindings, so untraced code runs unwrapped.

A span is ``[name, start_ns, end_ns, parent]``; ``parent`` indexes the span
list (-1 for a root).  Spans stay in memory until the caller writes them out.
"""

import contextlib
import functools
import inspect
import sys
import time

# layer name -> (module, predicate on the function's name)
LAYERS = {
    "problems.gen": ("problems", lambda name: name.startswith("gen_")),
    "problems.loss_and_grad": ("problems", lambda name: name == "loss_and_grad"),
    "spectral.surrogate": ("spectral", lambda name: name.startswith("surrogate_")),
    "spectral.factor": ("spectral", lambda name: name == "factors_from_surrogate"
                        or name.endswith("_estimate_from_surrogate")),
    "gd.mask": ("gd", lambda name: name in ("twf_mask", "median_mask")),
    "gd.dist_to_truth": ("gd", lambda name: name == "dist_to_truth"),
    "gd.incoherence_proxy": ("gd", lambda name: name == "incoherence_proxy"),
    "gd.driver": ("gd", lambda name: name in ("run_gd", "run_truncated_gd")),
    "core.dist_bd": ("core", lambda name: name == "dist_bd"),
    "core.dist_factors": ("core", lambda name: name == "dist_factors"),
    "core.dist_vector": ("core", lambda name: name == "dist_vector"),
    "direct.altmin_mc": ("direct", lambda name: name == "altmin_mc"),
}

PACKAGE = "lowrank_ncvx"


def loss_bytes_in(args, kwargs):
    """Bytes one loss_and_grad(instance, point, loss, loss_params, weights) call
    must read: design, observations, iterate and weights.  Computed from array
    sizes, so cache reuse is not counted."""
    instance, point = args[0], args[1]
    weights = args[4] if len(args) > 4 else kwargs.get("weights")
    total = sum(v.nbytes for v in instance.design.values() if hasattr(v, "nbytes"))
    total += instance.y.nbytes + sum(part.nbytes for part in point.parts)
    return total + (weights.nbytes if weights is not None else 0)


def layer_functions():
    """{layer: [(qualified name, function)]} for the functions each layer covers."""
    out = {}
    for layer, (modname, wanted) in LAYERS.items():
        mod = sys.modules[f"{PACKAGE}.{modname}"]
        out[layer] = [
            (f"{modname}.{name}", fn) for name, fn in sorted(vars(mod).items())
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and wanted(name)
        ]
    return out


class Tracer:
    """Records nested spans; use as a context manager to install the wrappers."""

    def __init__(self):
        self.spans = []
        self.bytes_in = {}
        self.bindings = {}
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def _wrap(self, layer, fn):
        count_bytes = loss_bytes_in if layer == "problems.loss_and_grad" else None

        # Opens and closes the span inline rather than through span(): this
        # runs on every wrapped call, so it avoids a generator per call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_bytes is not None:
                self.bytes_in[layer] = self.bytes_in.get(layer, 0) + count_bytes(args, kwargs)
            self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, fns in layer_functions().items():
            for qualname, fn in fns:
                wrapper = self._wrap(layer, fn)
                bound = []
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
                            bound.append(f"{mod.__name__.removeprefix(PACKAGE + '.')}.{attr}")
                self.bindings[qualname] = bound
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of its children.
    Spans of one thread nest, so children never overlap one another."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def subtree_self_sum(spans, own, root):
    """Sum of self times over the span ``root`` and all its descendants."""
    inside = {root}
    total = own[root]
    for i in range(root + 1, len(spans)):
        if spans[i][3] not in inside:
            break  # spans are stored in opening order, so the subtree is contiguous
        inside.add(i)
        total += own[i]
    return total
