"""Spans around symplecta's layer entry points, recorded from outside the package.

Each entry point is replaced, in every ``symplecta.*`` module namespace that
holds the original function object, by a wrapper that appends a span
``[name, start, end, parent]`` to an in-memory list.  Rebinding every holder
matters: modules call each other through names bound by ``from .x import f``,
so patching only the defining module would miss the internal calls.
"""

import functools
import importlib
import sys
import time

import numpy as np

# Layer (package module) -> public entry points that get a span.
ENTRY_POINTS = {
    "symplin": ("nondegeneracy_gate", "factor_sigma_symmetric"),
    "cocycle": ("cocycle_residual", "coboundary_residual"),
    "grid": ("symplectic_fourier", "pullback", "sigma_convolve",
             "apply_multiplier", "sample_symbol", "write_grid_function",
             "read_grid_function"),
    "weylrep": ("build_rep_context", "u_conjugator_batch", "weyl_standard",
                "orthogonality_integral", "matrix_coefficient"),
    "calculus": ("quantize_T", "quantize_weyl", "lambda_transform",
                 "recover_symbol", "quantize_theta_tau_kernel",
                 "write_operator", "read_operator"),
    "spaces": ("modulation_norms", "trig_resample", "sobolev_k_norm",
               "embedding_bound", "chirp_TA"),
    "katoschatten": ("kato_synthesis", "schatten_norm",
                     "kato_identity_residual", "multiplier_identity_residual",
                     "modulation_schatten_rows", "cordes_rows"),
    "cli": ("main",),
}

# The kernels named in the roadmap also get inclusive time (`<name>.s`).
KERNELS = (
    "grid.symplectic_fourier", "grid.pullback", "calculus.quantize_T",
    "calculus.lambda_transform", "calculus.recover_symbol",
    "katoschatten.kato_synthesis", "weylrep.orthogonality_integral",
    "weylrep.u_conjugator_batch", "spaces.modulation_norms",
    "katoschatten.schatten_norm",
)


def _complex_bytes(arr):
    return int(np.asarray(arr).size) * 16


# Work counts computed from argument and return sizes, not measured traffic:
# entry point -> (count names, function of (args, return value) -> counts).
COUNTERS = {
    "weylrep.u_conjugator_batch":
        (("points", "bytes"), lambda args, ret: (ret.shape[0], _complex_bytes(ret))),
    # N^d lattice positions times N^d window shifts
    "spaces.modulation_norms":
        (("points",), lambda args, ret: (np.size(getattr(args[0], "values", args[0])) ** 2,)),
    "calculus.write_operator": (("bytes",), lambda args, ret: (_complex_bytes(args[0]),)),
    "calculus.read_operator": (("bytes",), lambda args, ret: (_complex_bytes(ret),)),
    "grid.write_grid_function":
        (("bytes",), lambda args, ret: (_complex_bytes(args[0].values),)),
    "grid.read_grid_function": (("bytes",), lambda args, ret: (_complex_bytes(ret.values),)),
}

COUNT_UNITS = {"points": "count-computed", "bytes": "B-computed"}


def patch_everywhere(original, replacement):
    """Rebind every symplecta module attribute that is `original`.

    Returns a callable that restores the original bindings.
    """
    bound = []
    for modname, mod in list(sys.modules.items()):
        if modname != "symplecta" and not modname.startswith("symplecta."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                bound.append((mod, attr))

    def restore():
        for mod, attr in bound:
            setattr(mod, attr, original)
    return restore


def current(qualname):
    module, func = qualname.split(".")
    return getattr(importlib.import_module(f"symplecta.{module}"), func)


def metric_names():
    """Every per-layer metric as (name, unit), in reporting order."""
    out = []
    for module, funcs in ENTRY_POINTS.items():
        for func in funcs:
            name = f"{module}.{func}"
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            if name in KERNELS:
                out.append((f"{name}.s", "s"))
            for key in COUNTERS.get(name, ((),))[0]:
                out.append((f"{name}.{key}", COUNT_UNITS[key]))
        out.append((f"{module}.self_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Records nested spans of the entry points while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._restore = []

    def install(self):
        for module, funcs in ENTRY_POINTS.items():
            for func in funcs:
                name = f"{module}.{func}"
                original = current(name)
                self._restore.append(
                    patch_everywhere(original, self._wrap(name, original)))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                keys, count = counter
                for key, val in zip(keys, count(args, result)):
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + int(val)
            return result
        return wrapper

    def summary(self):
        """Per-layer metrics of the spans recorded so far (no overhead entry)."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        calls, self_s, incl = {}, {}, {}
        for i, (name, _, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            incl[name] = incl.get(name, 0.0) + dur[i]  # no entry point recurses
        out = {}
        for module, funcs in ENTRY_POINTS.items():
            total = 0.0
            for func in funcs:
                name = f"{module}.{func}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
                total += out[f"{name}.self_s"]
                if name in KERNELS:
                    out[f"{name}.s"] = incl.get(name, 0.0)
                for key in COUNTERS.get(name, ((),))[0]:
                    out[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0)
            out[f"{module}.self_s"] = total
        return out
