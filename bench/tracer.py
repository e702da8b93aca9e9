"""Spans around gncoder's public functions, installed from outside.

``install`` swaps each traced function for a wrapper in every loaded
``gncoder`` module that binds it (modules import each other's functions by
name, so patching the defining module alone would miss most calls), and
patches traced methods on their class.  The returned callable restores the
originals.  A span is ``(name, start_ns, end_ns, parent, job)``; spans stay
in memory until ``write``.  Tracing assumes one thread, which holds while
``GN_CODER_THREADS`` is unset.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

#: span name -> (module, attribute) of a module-level function.
FUNCTIONS = {
    "cli.main": ("gncoder.cli", "main"),
    "cli.synth_problem": ("gncoder.cli", "synth_problem"),
    "grids.make_grid": ("gncoder.grids", "make_grid"),
    "grids.norm": ("gncoder.grids", "norm"),
    "network.eval_psi": ("gncoder.network", "eval_psi"),
    "network.jacobian": ("gncoder.network", "jacobian"),
    "network.directional_derivative": ("gncoder.network", "directional_derivative"),
    "network.lipschitz_constants": ("gncoder.network", "lipschitz_constants"),
    "operators.build": ("gncoder.operators", "parse_operator"),
    "pseudoinverse.weighted_qr": ("gncoder.pseudoinverse", "weighted_qr"),
    "pseudoinverse.pinv_apply": ("gncoder.pseudoinverse", "pinv_apply"),
    "solver.solve": ("gncoder.solver", "solve"),
    "solver.gauss_newton_step": ("gncoder.solver", "gauss_newton_step"),
    "diagnostics.independence_trial": ("gncoder.diagnostics", "independence_trial"),
    "diagnostics.cone_check": ("gncoder.diagnostics", "cone_check"),
    "diagnostics.mysovskii_check": ("gncoder.diagnostics", "mysovskii_check"),
}

#: span name -> (module, class, methods) of methods sharing one span name.
METHODS = {
    "activations.eval": ("gncoder.activations", "Activation", ("value", "d1", "d2")),
    "operators.apply": ("gncoder.operators", "LinearOperator", ("apply",)),
    "operators.condition_number": (
        "gncoder.operators", "LinearOperator", ("condition_number",)),
}

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = -1
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_qr(self, factors):
        self.counts["weighted_qr.full_rank"] += factors.rank == factors.column_count

    def _count_solve(self, trace):
        self.counts["solver.iterations"] += trace.iterations

    def install(self):
        """Wrap every traced function and method; return the undo callable."""
        hooks = {
            "pseudoinverse.weighted_qr": self._count_qr,
            "solver.solve": self._count_solve,
        }
        modules = [m for k, m in sys.modules.items()
                   if (k == "gncoder" or k.startswith("gncoder.")) and m is not None]
        undo = []
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        for name, (module, cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(name, original))
                undo.append((cls, method, original))

        def uninstall():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return uninstall

    def summary(self) -> tuple[dict, dict]:
        """Per-layer metrics and the base of each derived ratio.

        Metrics are ``name -> (value, unit)``: calls, busy ms and self ms per
        span name, then the ratios.  Self time is a span's duration minus the
        durations of its direct children.  A ratio whose base is zero reads
        0; the bases map each ratio to ``(numerator, base, base metric)``.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        busy = defaultdict(int)
        own = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_ns[i]
        under = Counter()  # (span name, ancestor name) -> calls
        for name, _, _, parent, _ in spans:
            if name not in ("network.eval_psi", "operators.apply"):
                continue
            seen = set()
            while parent >= 0:
                seen.add(spans[parent][0])
                parent = spans[parent][3]
            for ancestor in seen:
                under[name, ancestor] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_ms"] = (busy[name] / 1e6, "ms")
            out[f"{name}.self_ms"] = (own[name] / 1e6, "ms")
        steps = calls["solver.gauss_newton_step"]
        qrs = calls["pseudoinverse.weighted_qr"]
        ratios = {
            "solver.forward_evals_per_step": (
                under["network.eval_psi", "solver.solve"], steps,
                "solver.gauss_newton_step.calls"),
            "operators.apply.per_step": (
                under["operators.apply", "solver.gauss_newton_step"], steps,
                "solver.gauss_newton_step.calls"),
            "pseudoinverse.pinv_apply.per_qr": (
                calls["pseudoinverse.pinv_apply"], qrs,
                "pseudoinverse.weighted_qr.calls"),
            "pseudoinverse.weighted_qr.full_rank_frac": (
                self.counts["weighted_qr.full_rank"], qrs,
                "pseudoinverse.weighted_qr.calls"),
        }
        for name, (num, base, _) in ratios.items():
            out[name] = (num / base if base else 0.0, "ratio")
        out["solver.iterations"] = (self.counts["solver.iterations"], "count")
        return out, ratios

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
