"""Spans around calls into gaplab's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every module attribute
that holds it (``gaplab.cli.verify`` and ``gaplab.bounds.verify`` are the same
object bound twice), so calls are seen whichever site they go through.
Kernels called by other kernels (``bisect_eigenvalue`` -> ``sturm_count``)
resolve the name through the ``kernels`` module globals and are seen too,
as long as the kernels run interpreted.

Spans stay in memory until the run ends: name, start, end, parent span,
thread, plus per-call counts (grid size N, cells swept, phase steps, ...).
"""

import json
import sys
import threading
import time
from collections import defaultdict


def _finest_n(args, kwargs, result):
    return {"N": result.grid.N}


def _operator_n(args, kwargs, result):
    return {"N": args[0].diag.size}


def _grid_n(args, kwargs, result):
    return {"N": args[1].N, "cells": args[1].N}


def _sturm_cells(args, kwargs, result):
    return {"cells": args[0].shape[0]}


def _inverse_iteration(args, kwargs, result):
    _, sweeps, converged = result
    return {"sweeps": sweeps, "retries": 0 if converged else 1}


def _piecewise_steps(args, kwargs, result):
    return {"steps": args[3]}


def _capped_steps(args, kwargs, result):
    return {"steps": args[4]}


# layer name -> (module, attribute, per-call counts)
LAYERS = {
    "cli.main": ("gaplab.cli", "main", None),
    "fdsolver.solve_extrapolated": ("gaplab.fdsolver", "solve_extrapolated", _finest_n),
    "fdsolver.assemble": ("gaplab.fdsolver", "assemble", _grid_n),
    "fdsolver.lowest_two_eigenpairs": ("gaplab.fdsolver", "lowest_two_eigenpairs", _operator_n),
    "potentials.evaluate": ("gaplab.potentials", "evaluate", None),
    "potentials.interval_norms": ("gaplab.potentials", "interval_norms", None),
    "bounds.verify": ("gaplab.bounds", "verify", None),
    "oracle.decompose": ("gaplab.oracle", "decompose", None),
    "oracle.eigenvalues_exact": ("gaplab.oracle", "eigenvalues_exact", None),
    "oracle.match_value": ("gaplab.oracle", "match_value", None),
    "oracle.prufer_count": ("gaplab.oracle", "prufer_count", None),
    "oracle.ground_state_profile": ("gaplab.oracle", "ground_state_profile", None),
    "kernels.sturm_count": ("gaplab.kernels", "sturm_count", _sturm_cells),
    "kernels.bisect_eigenvalue": ("gaplab.kernels", "bisect_eigenvalue", None),
    "kernels.inverse_iteration": ("gaplab.kernels", "inverse_iteration", _inverse_iteration),
    "kernels.prufer_theta_piecewise": ("gaplab.kernels", "prufer_theta_piecewise", _piecewise_steps),
    "kernels.prufer_theta_capped": ("gaplab.kernels", "prufer_theta_capped", _capped_steps),
    "kernels.profile_rk4_capped": ("gaplab.kernels", "profile_rk4_capped", None),
}


class Tracer:
    def __init__(self):
        # spans: [name, start, end, parent index or None, thread id, counts]
        self.spans = []
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        sites = [m for n, m in list(sys.modules.items())
                 if n == "gaplab" or n.startswith("gaplab.")]
        for name, (module, attr, counter) in LAYERS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, counter)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self._undo.append((site, key, original))

    def uninstall(self):
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_totals(self):
        """Per layer: calls, s (inclusive), self_s and summed counts."""
        child_s = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals = {name: defaultdict(float) for name in LAYERS}
        for index, (name, start, end, _, _, counts) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_s[index]
            for key, value in (counts or {}).items():
                if key != "N":
                    t[key] += value
        return totals

    def top_level_s(self):
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent is None)

    def per_n(self):
        """Calls and time per grid size N, for the layers that record N."""
        out = {}
        for name, start, end, _, _, counts in self.spans:
            if counts and "N" in counts:
                row = out.setdefault(name, {}).setdefault(counts["N"], [0, 0.0])
                row[0] += 1
                row[1] += end - start
        return {name: {str(n): {"calls": c, "s": s} for n, (c, s) in sorted(rows.items())}
                for name, rows in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, thread, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, **(counts or {}),
                }) + "\n")
