"""liefact benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload t2-factorize|su2-desk|readme-cli
                             --seed N --seconds S --trace 0|1

Run from the repository root.  Every sample runs in a fresh worker process
(``worker.py``) with the library taken from ``src/`` and BLAS threads capped
at the number of usable CPUs.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; ``setup_s`` is the median of
``SETUP_SAMPLES`` fresh set-ups.  With ``--trace 1`` it holds the per-layer
metrics from spans recorded around liefact's public functions (see
``layers.json`` for what each should move).  Lines before it, prefixed with
``#``, give the sample counts, ``fail_frac``, the ungated ``latency_p50_s`` and
``throughput_ops_s``, and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("t2-factorize", "su2-desk", "readme-cli")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

# Gated end-to-end metrics: the JSON line carries these, and BENCHMARK.json
# bounds them.
END_TO_END = {
    "setup_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}
# Printed on the ``#`` lines only.  Both follow the share of the host's fast
# and slow stretches a run happens to see: on a shared 2-vCPU VM the median
# spread by up to 0.25 of itself over ten runs of the same code and the
# throughput by about 0.15, too close to the largest bound (0.25) to gate.
REPORTED = {
    "latency_p50_s": "s",
    "throughput_ops_s": "ops/s",
}


def layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in json.loads((HERE / "layers.json").read_text())}


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile as an observed sample (nearest-rank definition)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(HERE / "out")
    return env


def spawn(args, mode: str, deadline: float, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.trace:
        cmd.append("--trace")
    # own session, so a timeout also stops the CLI processes a worker started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(stderr)
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def provenance(run: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liefact").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "blas_threads": int(worker_env()["OPENBLAS_NUM_THREADS"]),
            "numpy": run["numpy"], "python": run["python"]}


def main() -> int:
    p = argparse.ArgumentParser(description="liefact benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "liefact" / "__init__.py").is_file():
        print(f"error: no liefact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    env = worker_env()

    setups = []
    if not args.trace:
        setups = [spawn(args, "setup", deadline, env)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "run", deadline, env)
    setups.append(run["setup_s"])

    attempted, failed = run["attempted"], run["failed"]
    lat = run["latencies"]
    if not lat:
        print("error: no op completed", file=sys.stderr)
        return 1
    beyond = sum(1 for v in lat if v > nearest_rank(lat, 0.9))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
          f"{failed} failed (fail_frac {failed / attempted:.4g}); {len(lat)} untraced ops "
          f"timed, {beyond} beyond p90")
    for err in run["errors"][:5]:
        print(f"# error: {err}")
    print("# provenance " + json.dumps(provenance(run), sort_keys=True))

    if args.trace:
        units = layer_units()
        layers = run["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
        print(f"# traced ops {run['traced_ops']}, overhead "
              f"{layers.get('trace.overhead_frac', 0.0):+.3f} against the untraced ops")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "latency_p90_s": nearest_rank(lat, 0.9),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print("# setup samples " + " ".join(f"{s:.4f}" for s in setups))
        reported = {"latency_p50_s": nearest_rank(lat, 0.5),
                    "throughput_ops_s": len(lat) / sum(lat)}
        for name, value in reported.items():
            print(f"#   {name:<48} {value:.6g} {REPORTED[name]} (reported, not gated)")
    for name, m in metrics.items():
        print(f"#   {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
