"""Span recorder that wraps liefact's public functions from outside the library.

Each wrapped call records one span: name, start, end, parent span and op id.
Spans live in flat arrays in memory (a desk-scale op makes thousands of
``eval_weight`` calls) and are written once, when the run ends.  A wrapper is
rebound everywhere the original function object is referenced, so
``liefact.factorize.forward`` is traced as well as ``liefact.fourier.forward``.
Classes whose methods stand in for a module function (``Torus.haar_quadrature``
behind ``groups.haar_quadrature``) are wrapped under the same span name; only
the outermost span of a name counts as a call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

PLAN_COLD = "fourier.forward.cold_s"


def _wigner_entries(args, kwargs, result, dur):
    two_l_max = int(args[0])
    beta = args[1] if len(args) > 1 else kwargs["beta"]
    m = two_l_max + 1
    return [("wigner.wigner_d_matrices.entries",
             np.atleast_1d(beta).size * m * (m + 1) * (2 * m + 1) // 6)]


def _evaluate_points(args, kwargs, result, dur):
    return [("fourier.evaluate.points", len(result))]


def _json_bytes(args, kwargs, result, dur):
    return [("serialize.coefficients_to_json.bytes", len(result))]


def _strong_residual(args, kwargs, result, dur):
    return [("factorize.strong_factorize.residual", result.residual)]


def _mu_margin(args, kwargs, result, dur):
    return [("factorize.supported_factorize.min_mu_margin",
             min(result.mu[xi] - result.mu_bounds[xi] for xi in result.mu))]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.extras: list[tuple[str, int, float]] = []
        self.enabled = False
        self.current_op = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._plans_seen: set = set()

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._depth.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn, post=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            stack, depth = tracer._stack, tracer._depth
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.outer.append(depth[nid] == 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            depth[nid] += 1
            stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                depth[nid] -= 1
                tracer.start[i] = t0
                tracer.end[i] = t1
            if post is not None:
                for metric, value in post(args, kwargs, result, t1 - t0):
                    tracer.extras.append((metric, tracer.current_op, float(value)))
            return result

        return traced

    def _transform_post(self, kind):
        def post(args, kwargs, result, dur):
            # a plan (torus) or Wigner table set (SU(2)) is cached per grid
            # and band limit, so the first call for that pair builds it
            if kind == "forward":
                grid = args[0].grid
                lim = kwargs.get("bandlimit", args[1] if len(args) > 1 else None)
                key = (grid.group, grid.bandlimit, grid.bandlimit if lim is None else int(lim))
            else:
                coeffs = args[0]
                grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
                grid_l = coeffs.bandlimit if grid is None else grid.bandlimit
                key = (coeffs.group, grid_l, coeffs.bandlimit)
            if key in self._plans_seen:
                return []
            self._plans_seen.add(key)
            return [(PLAN_COLD, dur)]
        return post

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap the traced functions in every loaded liefact module."""
        import liefact.cli  # noqa: F401  (loads serialize and verify too)
        from liefact import _wigner, classify, factorize, fourier, groups, serialize, verify, weights

        functions = [
            (_wigner, "wigner_d_matrices", "wigner.wigner_d_matrices", _wigner_entries),
            (groups, "haar_quadrature", "groups.haar_quadrature", None),
            (groups, "enumerate_dual", "groups.enumerate_dual", None),
            (fourier, "forward", "fourier.forward", self._transform_post("forward")),
            (fourier, "inverse", "fourier.inverse", self._transform_post("inverse")),
            (fourier, "evaluate", "fourier.evaluate", _evaluate_points),
            (fourier, "compose", "fourier.compose", None),
            (weights, "eval_weight", "weights.eval_weight", None),
            (weights, "young_conjugate", "weights.young_conjugate", None),
            (weights, "young_conjugate_grid", "weights.young_conjugate_grid", None),
            (classify, "decay_seminorm", "classify.decay_seminorm", None),
            (classify, "estimate_critical_h", "classify.estimate_critical_h", None),
            (factorize, "strong_factorize", "factorize.strong_factorize", _strong_residual),
            (factorize, "supported_factorize", "factorize.supported_factorize", _mu_margin),
            (factorize, "factorize_vector", "factorize.factorize_vector", None),
            (serialize, "coefficients_to_json", "serialize.coefficients_to_json", _json_bytes),
            (serialize, "coefficients_from_json", "serialize.coefficients_from_json", None),
            (serialize, "decay_table_csv", "serialize.decay_table_csv", None),
            (verify, "run_verification", "verify.run_verification", None),
        ]
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "liefact" or key.startswith("liefact."))]
        for module, attr, name, post in functions:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        methods = [("haar_quadrature", "groups.haar_quadrature"),
                   ("enumerate_dual", "groups.enumerate_dual"),
                   ("irrep_matrices", "groups.irrep_matrices")]
        for cls in (groups.Torus, groups.SU2):
            for attr, name in methods:
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        return self

    # -- output ------------------------------------------------------------------

    def data(self) -> dict:
        """The recorded spans as arrays, plus the name table and extras."""
        return {
            "names": list(self.names),
            "extras": list(self.extras),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "outer": np.array(self.outer, dtype=bool),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }


def save(path, data: dict) -> None:
    np.savez(path, **{k: (np.array(json.dumps(v)) if k in ("names", "extras") else v)
                      for k, v in data.items()})


def load(path) -> dict:
    with np.load(path) as npz:
        out = {key: npz[key] for key in npz.files}
    out["names"] = json.loads(str(out["names"]))
    out["extras"] = [tuple(e) for e in json.loads(str(out["extras"]))]
    return out


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets (e.g. one per CLI process) into one."""
    names: list[str] = []
    cols = {k: [] for k in ("name_id", "parent", "op", "outer", "start", "end")}
    extras = []
    offset = 0
    for part in parts:
        for n in part["names"]:
            if n not in names:
                names.append(n)
        remap = np.array([names.index(n) for n in part["names"]] or [0], dtype=np.int32)
        cols["name_id"].append(remap[part["name_id"]])
        cols["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        for key in ("op", "outer", "start", "end"):
            cols[key].append(part[key])
        extras.extend(part["extras"])
        offset += len(part["start"])
    merged = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
    merged["names"] = names
    merged["extras"] = extras
    return merged


def layer_metrics(spans: dict, n_ops: int, n_procs: int) -> dict[str, float]:
    """Per-op busy/self/call figures and per-call extras from a span set.

    ``busy_s`` sums the outermost spans of a name, ``self_s`` subtracts the
    time covered by direct child spans, ``calls`` counts outermost spans; all
    three are divided by the number of timed ops (spans with op >= 0).  The
    plan-build time is per process.
    """
    names = spans["names"]
    nid, parent, op = spans["name_id"], spans["parent"].astype(np.int64), spans["op"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    timed = op >= 0
    outer = spans["outer"].astype(bool) & timed
    out: dict[str, float] = {}
    per = 1.0 / max(n_ops, 1)
    for i, name in enumerate(names):
        mine = nid == i
        out[f"{name}.busy_s"] = float(dur[mine & outer].sum()) * per
        out[f"{name}.self_s"] = float(self_time[mine & timed].sum()) * per
        out[f"{name}.calls"] = float(np.count_nonzero(mine & outer)) * per
    sums: dict[str, float] = {}
    for metric, o, value in spans["extras"]:
        if metric.endswith(".residual"):
            sums[metric] = max(sums.get(metric, 0.0), value)
        elif metric.endswith(".min_mu_margin"):
            sums[metric] = min(sums.get(metric, np.inf), value)
        elif metric == PLAN_COLD:
            sums[metric] = sums.get(metric, 0.0) + value / max(n_procs, 1)
        elif o >= 0:
            sums[metric] = sums.get(metric, 0.0) + value * per
    out.update(sums)
    out["trace.spans"] = float(np.count_nonzero(timed)) * per
    return out
