"""One benchmark process: set up a workload, then (in ``run`` mode) time it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --mode setup|run [--trace] [--corrupt]

Prints one JSON object as its last line.  ``run.py`` starts a fresh worker
for every set-up sample and every run, so imports, ``lru_cache``d grids and
plans and peak RSS never carry over.  The worker's clock starts before it
imports numpy or liefact; ``setup_s`` ends after the untimed warm-up op.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CLI_TIMEOUT_S = 120.0
MAX_ERRORS_SHOWN = 3


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _report_error(errors: list, exc: BaseException) -> None:
    if len(errors) < MAX_ERRORS_SHOWN:
        traceback.print_exception(exc, file=sys.stderr)
    errors.append(repr(exc))


def _provenance() -> dict:
    import numpy as np

    return {"numpy": np.__version__, "python": platform.python_version()}


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def run_inproc(args) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()
        tracer.enabled = True
    import inproc

    wl = inproc.Workload(args.workload, args.seed, corrupt=args.corrupt)
    inproc.warm_up(wl)
    if tracer is not None:
        tracer.enabled = False
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, **_provenance()}
    if args.mode == "setup":
        return result

    latencies = {False: [], True: []}
    worst: dict[str, float] = {}
    errors: list[str] = []
    attempted = failed = 0
    wl.fft_seconds.clear()
    op = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        # a traced run alternates untraced and traced ops, so the overhead
        # baseline sees the same drift of the machine as the traced ops
        traced = tracer is not None and op % 2 == 1
        inp = wl.make_input(op)
        if tracer is not None:
            tracer.current_op = op
            tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            out = wl.run_op(inp)
            dt = time.perf_counter() - t0
            ok = True
        except Exception as exc:  # a raising op is a failed op; keep going
            ok = False
            _report_error(errors, exc)
        finally:
            if tracer is not None:
                tracer.enabled = False
        if ok:
            try:
                defects = wl.check(inp, out)
                for key, value in defects.items():
                    worst[key] = max(worst.get(key, 0.0), value)
                ok = wl.passed(defects)
            except Exception as exc:
                ok = False
                _report_error(errors, exc)
        attempted += 1
        if ok:
            latencies[traced].append(dt)
        else:
            failed += 1
        op += 1

    plain = latencies[False]
    result.update({
        "attempted": attempted,
        "failed": failed,
        "latencies": plain,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "defects": worst,
        "errors": errors,
    })
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        data = tracer.data()
        spans.save(OUT / f"spans-{args.workload}.npz", data)
        traced_ops = len(latencies[True])
        layers = spans.layer_metrics(data, n_ops=traced_ops, n_procs=1)
        layers["fourier.roundtrip_defect"] = worst.get("fourier.roundtrip_defect", 0.0)
        layers["fourier.evaluate_defect"] = worst.get("fourier.evaluate_defect", 0.0)
        if wl.fft_seconds:
            layers["fourier.fft_reference_s"] = statistics.median(wl.fft_seconds)
        if plain and latencies[True]:
            layers["trace.overhead_frac"] = (statistics.median(latencies[True])
                                             / statistics.median(plain) - 1.0)
        result["layers"] = layers
        result["traced_ops"] = traced_ops
    return result


# ---------------------------------------------------------------------------
# readme-cli
# ---------------------------------------------------------------------------


def run_cli(args) -> dict:
    import readme_cli as rc_mod

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        return _run_cli_in(args, rc_mod, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_cli_in(args, rc_mod, workdir: Path) -> dict:
    env = dict(os.environ)
    rc_mod.warm_up(workdir, env, args.seed, CLI_TIMEOUT_S)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, **_provenance()}
    if args.mode == "setup":
        return result

    cmds = rc_mod.commands(args.seed)
    walls = {False: [], True: []}
    by_command = {False: {n: [] for n, _ in cmds}, True: {n: [] for n, _ in cmds}}
    span_files: list[Path] = []
    errors: list[str] = []
    attempted = failed = 0
    worst_roundtrip = 0.0
    # a traced run alternates untraced and traced cycles (at least one each),
    # so the overhead baseline sees the same drift of the machine.  A new
    # cycle starts while the run is under --seconds, so a slow stretch of the
    # host does not cost a run a whole cycle of samples.
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = bool(args.trace) and cycle % 2 == 1
        for name, argv in cmds:
            spans_file = workdir / f"spans-{attempted}.npz" if traced else None
            ok = False
            try:
                code, stdout, wall = rc_mod.run_command(argv, workdir, env, CLI_TIMEOUT_S,
                                                       spans_file)
                if args.corrupt and name == "transform_t1":
                    rc_mod.corrupt_coefficients(workdir)
                ok = rc_mod.gate(name, workdir, code, stdout)
                if name.startswith("transform") and code == 0:
                    worst_roundtrip = max(worst_roundtrip, rc_mod.roundtrip_defect(stdout))
                if not ok:
                    errors.append(f"{name}: exit {code} or outputs out of bounds")
            except (subprocess.SubprocessError, OSError, ValueError, KeyError,
                    TypeError) as exc:
                _report_error(errors, exc)
            attempted += 1
            if ok:
                walls[traced].append(wall)
                by_command[traced][name].append(wall)
                if spans_file is not None:
                    span_files.append(spans_file)
            else:
                failed += 1
        cycle += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or cycle >= 2):
            break

    result.update({
        "attempted": attempted,
        "failed": failed,
        "latencies": walls[False],
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "errors": errors,
    })
    if args.trace:
        import spans

        merged = spans.merge([spans.load(p) for p in span_files])
        spans.save(OUT / "spans-readme-cli.npz", merged)
        traced_ops = len(walls[True])
        layers = spans.layer_metrics(merged, n_ops=traced_ops, n_procs=traced_ops)
        layers["fourier.roundtrip_defect"] = worst_roundtrip
        base = 0.0
        for name, samples in by_command[True].items():
            if samples and by_command[False][name]:
                layers[f"cli.wall_s.{name}"] = statistics.median(samples)
                base += len(samples) * statistics.median(by_command[False][name])
        if base > 0:
            layers["trace.overhead_frac"] = sum(walls[True]) / base - 1.0
        result["layers"] = layers
        result["traced_ops"] = traced_ops
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["t2-factorize", "su2-desk", "readme-cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "run"], default="run")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one coefficient of every op's result (self-test)")
    args = p.parse_args()
    if args.workload == "readme-cli":
        result = run_cli(args)
    else:
        result = run_inproc(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
