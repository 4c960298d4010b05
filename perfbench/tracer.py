"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the package from the outside: each
function object is replaced, at every module attribute (or class attribute)
it is bound to, by one wrapper that records a span (name, parent, start,
end). Spans stay in memory; per-layer totals are folded out of them at the
end of each pass and the raw spans are written to a file when the run ends.

A target that no longer exists, or is never called, reports zero calls:
later changes to the package may move or remove functions.
"""

import functools
import json
import sys
import time

import numpy as np

PACKAGE = "bishopdiscs"

# span name -> (module, attribute path inside the module)
SPANS = {
    "specio.load": ("specio", "load"),
    "normal_form.normalize_full": ("normal_form", "normalize_full"),
    "normal_form.normalize_quadric": ("normal_form", "normalize_quadric"),
    "normal_form.kill_imaginary_part": ("normal_form", "kill_imaginary_part"),
    "normal_form.solve_normalization_stage": ("normal_form", "solve_normalization_stage"),
    "normal_form.slice_at": ("normal_form", "ManifoldSpec.slice_at"),
    "series.eval_matrix": ("series", "eval_matrix"),
    "series.fix_parameters": ("series", "BidegreeSeries.fix_parameters"),
    "curve.trace_level_curve": ("curve", "trace_level_curve"),
    "curve.check_radial_monotonicity": ("curve", "check_radial_monotonicity"),
    "conformal.riemann_map": ("conformal", "riemann_map"),
    "conformal.invert": ("conformal", "ConformalMap.invert"),
    "fourier.eval_interpolant": ("fourier", "eval_interpolant"),
    "fourier.invert_correspondence": ("fourier", "invert_correspondence"),
    "fourier.cauchy_integral": ("fourier", "cauchy_integral"),
    "fourier.conjugate_samples": ("fourier", "conjugate_samples"),
    "fourier.upsample": ("fourier", "upsample"),
    "hilbert.norm_probe": ("hilbert", "norm_probe"),
    "solver.solve_slice": ("solver", "solve_slice"),
    "solver.build_slice_operators": ("solver", "build_slice_operators"),
    "solver.solve_u": ("solver", "solve_u"),
    "solver.omega_deviation": ("solver", "omega_deviation"),
    "discs.sweep": ("discs", "sweep"),
    "discs.build_disc": ("discs", "build_disc"),
    "discs.jacobian_defect": ("discs", "jacobian_defect"),
    "discs.radial_derivative_of_u": ("discs", "radial_derivative_of_u"),
    "discs.cauchy_extend": ("discs", "cauchy_extend"),
    "discs.min_pairwise_distance": ("discs", "min_pairwise_distance"),
    "cli.main": ("cli", "main"),
    "cli.write_report": ("cli", "write_report"),
}


def _riemann_map_counts(args, result):
    return {"conformal.newton_iterations": getattr(result, "iterations", 0)}


def _solve_u_counts(args, result):
    return {"solver.picard_iterations": getattr(result, "iterations", 0),
            "solver.contraction_failed": int(not getattr(result, "contraction_ok", True))}


def _eval_interpolant_counts(args, result):
    # one complex exponential pair per target point and retained mode
    if len(args) < 2:
        return {}
    return {"fourier.eval_interpolant.mode_evals":
            np.size(args[1]) * (np.size(args[0]) // 2)}


# counts read off return values (or arguments) at the span boundary
COUNT_HOOKS = {
    "conformal.riemann_map": _riemann_map_counts,
    "solver.solve_u": _solve_u_counts,
    "fourier.eval_interpolant": _eval_interpolant_counts,
}
COUNTS = ("conformal.newton_iterations", "solver.picard_iterations",
          "solver.contraction_failed", "fourier.eval_interpolant.mode_evals")


def _resolve(module_name, path):
    """(owner, attribute, function) for a target, or None when it is gone."""
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    if module is None:
        return None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):      # the function itself, not a bound method
        func = owner.__dict__.get(parts[-1])
    else:
        func = getattr(owner, parts[-1], None)
    if not callable(func):
        return None
    return owner, parts[-1], func


class Recorder:
    """Collects spans and counts while installed; folds them per pass."""

    def __init__(self):
        self.names = list(SPANS)
        self.spans = []          # (name index, parent span index, start, end, outermost)
        self.stack = []
        self.active = [0] * len(self.names)   # open spans per name
        self.pass_counts = dict.fromkeys(COUNTS, 0)
        self.totals = {name: [0, 0.0, 0.0] for name in self.names}   # calls, s, self_s
        self.count_totals = dict.fromkeys(COUNTS, 0)
        self.last_pass_spans = []
        self.passes = 0
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every resolvable target at each binding inside the package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for index, name in enumerate(self.names):
            found = _resolve(*SPANS[name])
            if found is None:
                continue
            owner, attr, func = found
            wrapper = self._wrap(index, func, COUNT_HOOKS.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, func, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patch(module, key, func, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, index, func, hook):
        spans, stack, active = self.spans, self.stack, self.active
        counts = self.pass_counts
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[index] == 0
            active[index] += 1
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[index] -= 1
                spans[sid] = (index, parent, start, end, outermost)
            if hook is not None:
                for key, value in hook(args, result).items():
                    counts[key] += int(value)
            return result

        return wrapper

    # -- folding ----------------------------------------------------------

    def end_pass(self):
        """Fold the spans of one pass into the running totals."""
        child = [0.0] * len(self.spans)
        for index, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (index, parent, start, end, outermost) in enumerate(self.spans):
            entry = self.totals[self.names[index]]
            entry[0] += 1
            if outermost:
                entry[1] += end - start
            entry[2] += end - start - child[sid]
        for key, value in self.pass_counts.items():
            self.count_totals[key] += value
            self.pass_counts[key] = 0
        self.last_pass_spans = self.spans[:]
        self.spans.clear()
        self.passes += 1

    def per_pass(self):
        """Mean per-pass calls, inclusive and self seconds, and counts."""
        n = max(self.passes, 1)
        spans = {name: (calls / n, s / n, self_s / n)
                 for name, (calls, s, self_s) in self.totals.items()}
        counts = {key: value / n for key, value in self.count_totals.items()}
        return spans, counts

    def write(self, path):
        """Write the last traced pass's spans, with parents, as JSON."""
        t0 = self.last_pass_spans[0][2] if self.last_pass_spans else 0.0
        rows = [[sid, parent, self.names[index], start - t0, end - t0]
                for sid, (index, parent, start, end, _) in enumerate(self.last_pass_spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": rows}, fh)
            fh.write("\n")
