"""Outside-in tracer for the mfspin layers, installed in a command's process.

The layers are the package modules.  ``install`` wraps each layer's public
functions (and the model methods) and rebinds every alias of them in the
loaded ``mfspin`` modules, so a call made through ``certification.certify``
or ``cli._certify`` is timed the same way.  Nothing inside the package is
edited.

Per wrapped function the tracer keeps calls, total and self time, where self
time is the function's time minus the time of wrapped functions it called.
Calls to ``scipy.integrate.quad`` and ``scipy.optimize.brentq``, and
``warnings.warn`` categories, are counted against the innermost open layer.
Model functions run hundreds of thousands of times per command, so they are
aggregated only; every other wrapped call also leaves a span (id, parent,
name, start, end) in the dump.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import math
import sys
import time
import warnings

LAYER_FUNCTIONS = {
    "cli": ("dispatch",),
    "lattice": ("compute_id",),
    "models": ("scalar_phi", "phi_full_scale"),
    "solver": ("solve_branches", "max_stable_root", "find_transition", "barrier_height"),
    "certification": ("certify", "allowed_bands", "compute_DJ"),
    "oracle": ("potts_fullspace_min", "cubic_fullspace_min", "nematic_dual_min"),
    "mc": ("run_mc", "estimate_rate_function"),
}
MODEL_METHODS = ("entropy", "g", "g_prime", "g_second")
AGGREGATE_ONLY = {"models"}


def _oracle_grid_points(name, bound) -> int:
    """Grid points one oracle call evaluates, from its arguments."""
    a = bound.arguments
    if name == "potts_fullspace_min":
        return math.comb(a["resolution"] + a["q"] - 1, a["q"] - 1)
    if name == "cubic_fullspace_min":
        return math.comb(a["resolution"] + a["r"] - 1, a["r"] - 1)
    return a["resolution"] ** (a["N"] - 1)


class Tracer:
    def __init__(self):
        self.stack = []                                   # [layer, child_s, span_id]
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = collections.Counter()
        self.seconds = collections.Counter()
        self.spans = []
        self._next_id = 1

    def wrap(self, layer, name, fn, after=None):
        key = f"{layer}.{name}"
        stats = self.stats[key]
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        keep_span = layer not in AGGREGATE_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else 0
            span_id = parent
            if keep_span:
                span_id, self._next_id = self._next_id, self._next_id + 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if keep_span:
                    spans.append((span_id, parent, key, t0, t1))
            if after is not None:
                after(args, kwargs, dt)
            return result
        return traced

    def counted(self, what, fn):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{stack[-1][0] if stack else 'outside'}.{what}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def warn_counter(self, warn):
        stack, counts = self.stack, self.counts

        def wrapper(message, category=None, stacklevel=1, source=None, **kwargs):
            cat = category or (type(message) if isinstance(message, Warning) else UserWarning)
            counts[f"{stack[-1][0] if stack else 'outside'}.warn.{cat.__name__}"] += 1
            return warn(message, category, stacklevel + 1, source, **kwargs)
        return wrapper

    def after_run_mc(self, args, kwargs, dt):
        cfg = args[0] if args else kwargs["config"]
        self.counts[f"mc.site_updates.{cfg.model.kind}"] += cfg.N * cfg.sweeps
        self.seconds[f"mc.run_mc.{cfg.model.kind}"] += dt

    def after_oracle(self, fn, name):
        sig = inspect.signature(fn)

        def after(args, kwargs, dt):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["oracle.grid_points"] += _oracle_grid_points(name, bound)
            self.seconds["oracle.grid"] += dt
        return after

    def dump(self, path, cache=None):
        doc = {"stats": dict(self.stats), "counts": dict(self.counts),
               "seconds": dict(self.seconds), "cache": cache,
               "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                         for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(modules, orig, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def install() -> Tracer:
    """Wrap the layers of the already imported ``mfspin`` package."""
    import scipy.integrate
    import scipy.optimize

    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "mfspin" or n.startswith("mfspin."))]
    for layer, names in LAYER_FUNCTIONS.items():
        mod = sys.modules.get(f"mfspin.{layer}")
        for name in names:
            fn = getattr(mod, name, None)
            if fn is None:
                continue        # a function this version lacks reports zero
            after = None
            if layer == "mc" and name == "run_mc":
                after = tracer.after_run_mc
            elif layer == "oracle":
                after = tracer.after_oracle(fn, name)
            _rebind(modules, fn, tracer.wrap(layer, name, fn, after))
    models = sys.modules["mfspin.models"]
    for cls in [v for v in vars(models).values()
                if inspect.isclass(v) and v.__module__ == models.__name__]:
        for name in MODEL_METHODS:
            if inspect.isfunction(cls.__dict__.get(name)):
                setattr(cls, name, tracer.wrap("models", name, cls.__dict__[name]))
    for mod, name, what in ((scipy.integrate, "quad", "quad_calls"),
                            (scipy.optimize, "brentq", "brentq_calls")):
        fn = getattr(mod, name)
        wrapper = tracer.counted(what, fn)
        setattr(mod, name, wrapper)
        _rebind(modules, fn, wrapper)
    warnings.warn = tracer.warn_counter(warnings.warn)
    return tracer


def nematic_cache_info():
    """(hits, misses) of the nematic moment cache, or None without one."""
    fn = getattr(sys.modules.get("mfspin.models"), "_nematic_raw_moments", None)
    info = getattr(fn, "cache_info", None)
    return list(info()[:2]) if info else None
