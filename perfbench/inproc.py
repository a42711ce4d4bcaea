"""The in-process workloads: t2-factorize and su2-desk.

Each op is one pass through the paper's pipeline on a fresh seeded input.
``make_input`` runs before an op's timer starts, ``run_op`` is the timed
part, and ``check`` applies the correctness gates afterwards.  Gates reuse the
bounds ``liefact verify`` fixes for the same identities.
"""

from __future__ import annotations

import time

import numpy as np

from liefact import classify, factorize, fourier, groups, serialize, signals
from liefact.weights import gevrey_weight

ROUNDTRIP_BOUND = 1e-9      # verify: fourier/roundtrip
RESIDUAL_BOUND = 1e-10      # verify: factorize/strong-residual
EVALUATE_BOUND = 1e-9       # verify: fourier/roundtrip, applied at grid nodes
ORACLE_BOUND = 1e-12        # numpy.fft.fft2 against forward on the torus grid

H, H_PRIME = 0.5, 1.0
T2_BANDLIMIT = 16
SU2_BANDLIMIT = 16
SU2_GRID_POINTS = 32
SU2_OFFGRID_POINTS = 256


class Workload:
    """State shared by every op of one run: group, grid, weight."""

    def __init__(self, name: str, seed: int, corrupt: bool = False):
        self.name = name
        self.seed = seed
        self.corrupt = corrupt
        self.weight = gevrey_weight(1.0)
        if name == "t2-factorize":
            self.group = groups.Torus(2)
            self.grid = self.group.haar_quadrature(T2_BANDLIMIT)
            self.value_dim = 1
        elif name == "su2-desk":
            self.group = groups.SU2()
            self.grid = self.group.haar_quadrature(SU2_BANDLIMIT)
            self.value_dim = 2
        else:
            raise ValueError(f"not an in-process workload: {name}")
        self.fft_seconds: list[float] = []

    def make_input(self, op: int) -> dict:
        rng = np.random.default_rng([self.seed, op + 1])
        f = signals.random_bandlimited(self.group, self.grid, rng, value_dim=self.value_dim)
        inp = {"f": f}
        if self.name == "su2-desk":
            inp["nodes"] = rng.choice(self.grid.size, SU2_GRID_POINTS, replace=False)
            q = rng.standard_normal((SU2_OFFGRID_POINTS, 4))
            q /= np.linalg.norm(q, axis=1, keepdims=True)
            us = np.stack([
                np.stack([q[:, 0] + 1j * q[:, 3], q[:, 2] + 1j * q[:, 1]], axis=1),
                np.stack([-q[:, 2] + 1j * q[:, 1], q[:, 0] - 1j * q[:, 3]], axis=1),
            ], axis=1)
            inp["points"] = self.group.coords_from_matrices(us)
        return inp

    def _perturb(self, T) -> None:
        xi = next(iter(T.entries))
        t = T.entries[xi].copy()
        t[0, 0, 0] += 1e-6
        T.entries[xi] = t

    def run_op(self, inp: dict) -> dict:
        """The timed pipeline.  Functions are looked up on their modules at
        call time so a tracer that rebinds them sees every call."""
        f, grid, w = inp["f"], self.grid, self.weight
        T = fourier.forward(f)
        if self.corrupt:
            self._perturb(T)
        out = {"T": T, "rt": fourier.inverse(T, grid)}
        if self.name == "t2-factorize":
            res = factorize.strong_factorize(f, w, H, H_PRIME)
            out["res"] = res
            out["report"] = classify.estimate_critical_h(res.f_prime, w)
            out["json"] = serialize.coefficients_to_json(T)
            out["readback"] = serialize.coefficients_from_json(out["json"])
        else:
            f0 = fourier.GridFunction(self.group, grid, f.values[:, 0])
            out["res"] = factorize.strong_factorize(f0, w, H, H_PRIME)
            out["at_nodes"] = fourier.evaluate(T, grid.nodes[inp["nodes"]])
            out["off_grid"] = fourier.evaluate(T, inp["points"])
        return out

    def check(self, inp: dict, out: dict) -> dict[str, float]:
        """The defects of one op, by name; ``passed`` compares them to bounds."""
        f = inp["f"]
        defects = {
            "fourier.roundtrip_defect": float(np.max(np.abs(out["rt"].values - f.values))),
            "factorize.strong_factorize.residual": float(out["res"].residual),
        }
        if self.name == "t2-factorize":
            defects["fourier.fft_oracle_defect"] = self._fft_oracle(f, out["T"])
            again = serialize.coefficients_to_json(out["readback"])
            defects["serialize.readback_mismatch"] = 0.0 if again == out["json"] else 1.0
        else:
            defects["fourier.evaluate_defect"] = float(
                np.max(np.abs(out["at_nodes"] - f.values[inp["nodes"]])))
            defects["fourier.offgrid_nonfinite"] = float(
                np.count_nonzero(~np.isfinite(out["off_grid"])))
        return defects

    def passed(self, defects: dict[str, float]) -> bool:
        bounds = {
            "fourier.roundtrip_defect": ROUNDTRIP_BOUND,
            "factorize.strong_factorize.residual": RESIDUAL_BOUND,
            "fourier.fft_oracle_defect": ORACLE_BOUND,
            "serialize.readback_mismatch": 0.0,
            "fourier.evaluate_defect": EVALUATE_BOUND,
            "fourier.offgrid_nonfinite": 0.0,
        }
        return all(defects[k] <= bounds[k] for k in defects)

    def _fft_oracle(self, f, T) -> float:
        """Independent torus transform: fft2(values)/n^2 read at k mod n."""
        n = self.grid.axes["points_per_axis"]
        t0 = time.perf_counter()
        ref = np.fft.fft2(f.values[:, 0].reshape(n, n)) / n**2
        self.fft_seconds.append(time.perf_counter() - t0)
        labels = np.array([xi.label for xi in T.entries])
        got = np.array([t[0, 0, 0] for t in T.entries.values()])
        return float(np.max(np.abs(got - ref[labels[:, 0] % n, labels[:, 1] % n])))


def warm_up(workload: Workload) -> None:
    """One untimed op: builds the grid's plan or Wigner tables."""
    inp = workload.make_input(-1)
    workload.run_op(inp)

