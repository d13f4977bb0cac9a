"""Span recorder for the traced benchmark run.

The package has no tracing of its own, so the recorder wraps its public
functions from outside: each wrapper is bound at every name through
which other modules reach the function (`circlestab.cli.wasserstein`
as well as `circlestab.measures.wasserstein`, and `maps.rotation_number`
that `tune_rotation_number` looks up at call time).  Per-step scalar
closures cannot be reached this way, so their time lands in the span
of the function that runs them.

A span is [name, start, end, parent index, counters]; spans live in
memory and are written out when the pass ends.  Self time is a span's
duration minus the time its child spans cover.  Per-layer metrics are
derived from the spans; a layer is a module of the package.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "arithmetic", "fourier", "maps", "measures", "invariant",
          "response")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _wasserstein_counters(a, k, r):
    from circlestab import AtomicMeasure, LebesgueMeasure
    mu, nu = _arg(a, k, 0, "mu"), _arg(a, k, 1, "nu")
    atomic = [isinstance(m, AtomicMeasure) for m in (mu, nu)]
    lebesgue = [isinstance(m, LebesgueMeasure) for m in (mu, nu)]
    if all(atomic):
        kind = "atomic_atomic"
    elif all(x or y for x, y in zip(atomic, lebesgue)):
        kind = "atomic_lebesgue"
    else:
        kind = "cdf"
    atoms = sum(len(m) for m, at in zip((mu, nu), atomic) if at)
    return {"kind": kind, "atoms": atoms}


def _orbit_counters(a, k, r):
    return {"steps": int(_arg(a, k, 2, "n")) + int(_arg(a, k, 3, "burn_in", 0))}


# (layer, attribute in the layer's module, span name, counters(args,
# kwargs, result)).  Methods are named Class.method; public functions
# of a layer not listed here get a plain span named layer.function.
SPECIAL = [
    ("arithmetic", "frac", "arithmetic.frac",
     lambda a, k, r: {"points": int(np.size(r))}),
    ("fourier", "FourierSeries.eval", "fourier.eval",
     lambda a, k, r: {"points": int(np.size(r))}),
    ("maps", "CircleMap.orbit", "maps.orbit", _orbit_counters),
    ("maps", "Rotation.orbit", "maps.orbit", _orbit_counters),
    ("maps", "ConjugatedRotation.orbit", "maps.orbit", _orbit_counters),
    ("maps", "rotation_number", "maps.rotation_number",
     lambda a, k, r: {"steps": int(_arg(a, k, 1, "iters", 1 << 15))}),
    ("maps", "tune_rotation_number", "maps.tune", None),
    ("maps", "Discretized.grid_image", "maps.grid_image",
     lambda a, k, r: {"nodes": int(np.size(r))}),
    ("maps", "ConjugacyDiffeo.inverse", "maps.conjugacy_inverse",
     lambda a, k, r: {"points": int(np.size(r))}),
    ("measures", "wasserstein", "measures.wasserstein",
     _wasserstein_counters),
    ("measures", "AtomicMeasure.__init__", "measures.atomic_init",
     lambda a, k, r: {"atoms": int(np.size(_arg(a, k, 1, "positions")))}),
    ("measures", "atomize_by_cdf", "measures.atomize",
     lambda a, k, r: {"cells": int(np.size(r.positions))}),
    ("measures", "cesaro_average", "measures.cesaro", None),
    ("measures", "discrepancy", "measures.discrepancy",
     lambda a, k, r: {"points": int(r.n)}),
    ("invariant", "analyze_functional_graph", "invariant.graph",
     lambda a, k, r: {"nodes": int(r.N), "cycles": r.cycle_count}),
    ("invariant", "birkhoff_measure", "invariant.birkhoff",
     lambda a, k, r: {"samples": int(_arg(a, k, 2, "n"))}),
    ("invariant", "birkhoff_average", "invariant.birkhoff",
     lambda a, k, r: {"samples": int(_arg(a, k, 2, "n"))}),
    ("response", "fd_response", "response.fd",
     lambda a, k, r: {"eps_points": len(r[1])}),
    ("response", "response_pairing", "response.formula", None),
    ("cli", "stability_scan", "cli.scan",
     lambda a, k, r: {"ladder_points": len(_arg(a, k, 0, "config").ladder),
                      "ladder_failures": len(r.failures)}),
    ("cli", "discretization_scan", "cli.scan",
     lambda a, k, r: {"ladder_points": len(_arg(a, k, 0, "config").ladder),
                      "ladder_failures": len(r.failures)}),
]


def rebind(original, replacement, namespaces):
    """Bind replacement wherever original is bound in the namespaces."""
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if obj is original:
                setattr(ns, name, replacement)


def package_modules():
    return [m for n, m in sys.modules.items()
            if n == "circlestab" or n.startswith("circlestab.")]


class Recorder:
    """Spans of one pass, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._leaves = []
        self.active = True

    def wrap(self, name, fn, counters=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        return traced

    def install(self, extra_namespaces=()):
        """Wrap the layers' public functions and the methods in SPECIAL."""
        import circlestab
        namespaces = package_modules() + list(extra_namespaces)
        special = {(layer, attr): (name, counters)
                   for layer, attr, name, counters in SPECIAL}
        for layer in LAYERS:
            mod = getattr(circlestab, layer)
            attrs = [a for a in mod.__all__
                     if inspect.isfunction(getattr(mod, a, None))]
            attrs += [a for lay, a, _, _ in SPECIAL
                      if lay == layer and a not in attrs]
            for attr in attrs:
                name, counters = special.get((layer, attr),
                                             (f"{layer}.{attr}", None))
                owner, _, meth = attr.rpartition(".")
                if owner:
                    cls = getattr(mod, owner)
                    fn, where = cls.__dict__[meth], [cls]
                else:
                    fn, where = getattr(mod, attr), namespaces
                rebind(fn, self.wrap(name, fn, counters), where)

    def leaf(self, name, fn):
        """fn, recorded as a span that opens no spans of its own.

        Safe to call from a signal handler: the span is set aside until
        `stop`, so it cannot take the index of a span being opened.
        """
        def traced():
            parent = self._stack[-1] if self._stack else -1
            start = time.perf_counter()
            result = fn()
            self._leaves.append([name, start, time.perf_counter(), parent,
                                 None])
            return result

        return traced

    def stop(self):
        self.active = False
        self.spans.extend(self._leaves)
        self._leaves = []

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, counters) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "counters": counters or {}}) + "\n")


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass from its spans."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    # outermost spans of each name: recursion is not counted twice
    outer = [i for i in range(n)
             if all(spans[p][0] != spans[i][0] for p in ancestors(i))]

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        key = s[0].split(".")[0] + ".self_s"
        if key in m:  # not the benchmark's own reference samples
            m[key] += dur[i] - child_time[i]

    def total(name, counter=None, where=lambda i: True):
        picked = [i for i in outer if spans[i][0] == name and where(i)]
        if counter is None:
            return sum(dur[i] for i in picked)
        if counter == "calls":
            return len(picked)
        return sum((spans[i][4] or {}).get(counter, 0) for i in picked)

    def kind(k):
        return lambda i: (spans[i][4] or {}).get("kind") == k

    in_tune = lambda i: any(spans[p][0] == "maps.tune" for p in ancestors(i))
    tune_calls = total("maps.tune", "calls")
    m.update({
        "cli.holder_fit_s": total("cli.holder_fit"),
        "cli.ladder_points": total("cli.scan", "ladder_points"),
        "cli.ladder_failures": total("cli.scan", "ladder_failures"),
        "arithmetic.frac_s": total("arithmetic.frac"),
        "arithmetic.frac_points": total("arithmetic.frac", "points"),
        "arithmetic.continued_fraction_calls":
            total("arithmetic.continued_fraction", "calls"),
        "fourier.eval_points": total("fourier.eval", "points"),
        "maps.orbit_s": total("maps.orbit"),
        "maps.orbit_steps": total("maps.orbit", "steps"),
        "maps.rotation_number_s": total("maps.rotation_number"),
        "maps.rotation_number_calls": total("maps.rotation_number", "calls"),
        "maps.rotation_number_steps": total("maps.rotation_number", "steps"),
        "maps.tune_s": total("maps.tune"),
        "maps.tune_calls": tune_calls,
        "maps.tune_steps_per_eps":
            total("maps.rotation_number", "steps", in_tune) / tune_calls
            if tune_calls else 0.0,
        "maps.grid_image_s": total("maps.grid_image"),
        "maps.grid_image_nodes": total("maps.grid_image", "nodes"),
        "maps.conjugacy_inverse_s": total("maps.conjugacy_inverse"),
        "maps.conjugacy_inverse_points":
            total("maps.conjugacy_inverse", "points"),
        "measures.wasserstein_s": total("measures.wasserstein"),
        "measures.wasserstein_calls": total("measures.wasserstein", "calls"),
        "measures.wasserstein_atoms": total("measures.wasserstein", "atoms"),
        "measures.w_atomic_lebesgue_s":
            total("measures.wasserstein", where=kind("atomic_lebesgue")),
        "measures.w_atomic_atomic_s":
            total("measures.wasserstein", where=kind("atomic_atomic")),
        "measures.w_cdf_s": total("measures.wasserstein", where=kind("cdf")),
        "measures.atomic_init_s": total("measures.atomic_init"),
        "measures.atomic_init_atoms": total("measures.atomic_init", "atoms"),
        "measures.atomize_s": total("measures.atomize"),
        "measures.atomize_cells": total("measures.atomize", "cells"),
        "measures.pushforward_s": total("measures.pushforward"),
        "measures.cesaro_s": total("measures.cesaro"),
        "measures.discrepancy_s": total("measures.discrepancy"),
        "measures.discrepancy_points":
            total("measures.discrepancy", "points"),
        "measures.dk_check_s": total("measures.dk_check"),
        "measures.dk_check_calls": total("measures.dk_check", "calls"),
        "invariant.graph_s": total("invariant.graph"),
        "invariant.graph_nodes": total("invariant.graph", "nodes"),
        "invariant.graph_cycles": total("invariant.graph", "cycles"),
        "invariant.birkhoff_s": total("invariant.birkhoff"),
        "invariant.birkhoff_samples": total("invariant.birkhoff", "samples"),
        "response.fd_s": total("response.fd"),
        "response.formula_s": total("response.formula"),
        "response.eps_points": total("response.fd", "eps_points"),
    })
    m["trace.self_share"] = (sum(m[f"{layer}.self_s"] for layer in LAYERS)
                             / wall_s)
    return m
