"""The readme-cli workload: one fresh ``python -m liefact.cli`` process per op.

Ops cycle in a fixed order through the README's six commands, with a T^2
transform at L=8 after each one, so the transform is 6 ops in 12.  Only whole
cycles run, so the shares are fixed.  Every op is Python-bound and the host
speeds up and slows down in stretches of seconds, so a quantile that lands
in the middle of one command's few samples follows the share of fast
stretches a run happens to see.  With half the ops being the T^2 transform,
the nearest-rank p90 lands at about its 80th percentile, the upper tail of a
group of 18 or more samples spread evenly over the run.  Each command's
outputs are checked against the bounds ``liefact verify`` uses for the same
identities.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"

ROUNDTRIP_BOUND = 1e-9          # verify: fourier/roundtrip
RESIDUAL_BOUND = 1e-10          # verify: factorize/strong-residual
TRANSFER_BOUND = 1e-10          # verify: factorize/decay-transfer-margin (relative here)
SUPPORTED_RESIDUAL_BOUND = 1e-7  # verify: factorize/supported-residual
MU_BOUND = 1e-8                 # verify: factorize/supported-mu-bound
OUTSIDE_BOUND = 1e-6            # verify: factorize/supported-outside-mass
VECTOR_BOUND = 1e-9             # verify: factorize/vector
RECOVERY_BOUND = 0.01           # verify: classify/synthesized-recovery

_ROUNDTRIP = re.compile(r"roundtrip sup error ([0-9.e+-]+)")


def commands(seed: int) -> list[tuple[str, list[str]]]:
    """The cycle: (name, argv) pairs; outputs go to directories of the cwd."""
    s = str(seed)
    scale = ("transform_t2_scale", ["transform", "--group", "t2", "--bandlimit", "8",
                                    "--builtin", "poisson:1.0", "--out", "t2/"])
    readme = [
        ("transform_t1", ["transform", "--group", "t1", "--bandlimit", "64",
                          "--builtin", "poisson:1.0", "--out", "out/"]),
        ("classify_t1", ["classify", "--coefficients", "out/coefficients.json",
                         "--weight", "gevrey:s=1", "--out", "cls/"]),
        ("factorize_t1", ["factorize", "--group", "t1", "--bandlimit", "64",
                          "--builtin", "poisson:2.0", "--weight", "gevrey:s=1",
                          "--h", "0.5", "--h-prime", "1.0", "--out", "fac/"]),
        ("factorize_supported", ["factorize", "--group", "t1", "--bandlimit", "256",
                                 "--builtin", "poisson:2.0", "--supported",
                                 "--support-delta", "2.0", "--pieces", "8",
                                 "--bump-order", "2.0", "--weight", "gevrey:s=0.5",
                                 "--h", "0.5", "--h-prime", "1.0", "--out", "sup/"]),
        ("factorize_vector", ["factorize", "--group", "su2", "--bandlimit", "2",
                              "--vector", "--rep", "0,1,2", "--weight", "gevrey:s=1",
                              "--h", "1.0", "--h-prime", "2.0", "--seed", s,
                              "--out", "vec/"]),
        ("verify", ["verify", "--seed", s, "--out", "ver/"]),
    ]
    return [op for command in readme for op in (command, scale)]


def _bundle(workdir: Path, sub: str) -> dict:
    return json.loads((workdir / sub / "bundle.json").read_text())


def roundtrip_defect(stdout: str) -> float:
    """The roundtrip error a ``transform`` command prints (inf if absent)."""
    match = _ROUNDTRIP.search(stdout)
    return float(match.group(1)) if match else math.inf


def _poisson_t1_defect(workdir: Path) -> float:
    """coefficients.json of ``transform poisson:1.0`` on T^1: T_k = e^{-|k|}."""
    doc = json.loads((workdir / "out" / "coefficients.json").read_text())
    worst = 0.0
    for item in doc["entries"]:
        k = item["xi"][0]
        worst = max(worst, abs(item["re"][0][0][0] - math.exp(-abs(k))),
                    abs(item["im"][0][0][0]))
    return worst


def corrupt_coefficients(workdir: Path) -> None:
    """Perturb one coefficient of the T^1 transform output (self-test)."""
    path = workdir / "out" / "coefficients.json"
    doc = json.loads(path.read_text())
    doc["entries"][0]["re"][0][0][0] += 1e-6
    path.write_text(json.dumps(doc, sort_keys=True))


def gate(name: str, workdir: Path, rc: int, stdout: str) -> bool:
    """True when the command exited 0 and its outputs are within bounds."""
    if rc != 0:
        return False
    if name == "transform_t1":
        return roundtrip_defect(stdout) <= ROUNDTRIP_BOUND and \
            _poisson_t1_defect(workdir) <= ROUNDTRIP_BOUND
    if name == "transform_t2_scale":
        return roundtrip_defect(stdout) <= ROUNDTRIP_BOUND
    if name == "classify_t1":
        doc = json.loads((workdir / "cls" / "decay_report.json").read_text())
        h_star = doc["h_star"]
        return h_star != "inf" and abs(h_star - 1.0) <= RECOVERY_BOUND
    if name == "factorize_t1":
        b = _bundle(workdir, "fac")
        return b["residual"] <= RESIDUAL_BOUND and \
            -b["min_transfer_margin_relative"] <= TRANSFER_BOUND
    if name == "factorize_supported":
        b = _bundle(workdir, "sup")
        return (b["residual"] <= SUPPORTED_RESIDUAL_BOUND
                and -b["min_mu_margin"] <= MU_BOUND
                and b["outside_support_mass"] / b["sup_g"] <= OUTSIDE_BOUND)
    if name == "factorize_vector":
        b = _bundle(workdir, "vec")
        return max(b["action_residual"], b["orbit_residual"]) <= VECTOR_BOUND
    if name == "verify":
        return "verify: all properties pass" in stdout
    raise ValueError(name)


def run_command(argv: list[str], workdir: Path, env: dict, timeout: float,
                trace_file: Path | None = None) -> tuple[int, str, float]:
    """Run one CLI op; returns (exit code, stdout, wall seconds)."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "liefact.cli", *argv]
    else:
        cmd = [sys.executable, str(CHILD), str(trace_file), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    return proc.returncode, proc.stdout, wall


def warm_up(workdir: Path, env: dict, seed: int, timeout: float) -> None:
    """Untimed first command: its coefficient file is classify's input."""
    name, argv = commands(seed)[0]
    rc, stdout, _ = run_command(argv, workdir, env, timeout)
    if rc != 0:
        raise RuntimeError(f"warm-up {name} exited {rc}")

