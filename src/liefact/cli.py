"""Command-line driver: transform | classify | factorize | verify.

Each subcommand's parser declares only the options its handler reads, so
argparse refuses any other (exit code 2):

  transform  --group --bandlimit --builtin --input --out
  classify   --coefficients --weight --out
  factorize  the transform options, --weight --h --h-prime --supported
             --support-delta --pieces --bump-order --vector --rep --seed
  verify     --seed --out

The parsed namespace is the handler's configuration; ``cmd_factorize`` also
refuses the options its mode does not read and then resolves their defaults.
Exit codes: 0 ok, 1 verification failure, 2 usage/parameter error,
3 insufficient data, 4 conditioning failure.  Every command formats all its
artifacts, then hands them to one ``_emit``, which writes them and a
manifest.json whose config is exactly the command's options, resolved;
identical options produce byte-identical JSON artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .classify import estimate_critical_h
from .errors import (
    ConditioningError,
    EstimationError,
    InsufficientDataError,
    LiefactError,
    ParameterError,
)
from .factorize import (
    FiniteRep,
    _resolve_h_prime,
    factorize_vector,
    gevrey_bump,
    strong_factorize,
    supported_factorize,
)
from .fourier import forward, inverse, parseval_defect
from .groups import Torus, parse_group_spec
from .signals import heat_function, parse_builtin_spec, poisson_function
from .verify import run_verification
from .weights import parse_weight_spec


def _emit(config: argparse.Namespace, texts: dict[str, str]) -> None:
    """Write each artifact ``{name: text}``, then manifest.json, to --out; the texts
    arrive formatted, so a formatter that raises has left no file behind."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": config.command, "config": vars(config), "outputs": sorted(texts)}
    for name, text in [*texts.items(), ("manifest.json", json.dumps(manifest, sort_keys=True))]:
        (outdir / name).write_text(text)


def _resolve_input(config: argparse.Namespace):
    """Build (group, grid, GridFunction) from --builtin or --input, not both."""
    if config.builtin is not None and config.input_path is not None:
        raise ParameterError("--builtin and --input cannot be combined: pass one of them")
    group = parse_group_spec(config.group)
    grid = group.haar_quadrature(config.bandlimit)
    if config.builtin:
        name, params = parse_builtin_spec(config.builtin)
        if name == "poisson":
            return group, grid, poisson_function(group, grid, params[0])
        if name == "heat":
            return group, grid, heat_function(group, grid, params[0])
        if name == "bump":
            return group, grid, gevrey_bump(params[0], 0.0, params[1], grid)
    if config.input_path:
        text = Path(config.input_path).read_text()
        return group, grid, serialize.gridfunction_from_csv(text, group, grid)
    raise LiefactError("no input: pass --builtin or --input")


def cmd_transform(config: argparse.Namespace) -> int:
    group, grid, f = _resolve_input(config)
    T = forward(f)
    roundtrip = inverse(T, grid)
    err = float(np.max(np.abs(roundtrip.values - f.values)))
    # Parseval gap on the grid = mass the band limit could not represent
    tail = parseval_defect(f)
    _emit(config, {"coefficients.json": serialize.coefficients_to_json(T),
                   "decay.csv": serialize.decay_table_csv(T)})
    print(f"transform: {len(T.layout.labels)} dual blocks, roundtrip sup error {err:.3e}, "
          f"discarded-tail mass (relative Parseval gap) {tail:.3e}")
    return 0


def cmd_classify(config: argparse.Namespace) -> int:
    text = Path(config.coefficients).read_text()
    T = serialize.coefficients_from_json(text)
    w = parse_weight_spec(config.weight)
    report = estimate_critical_h(T, w)
    _emit(config, {"decay_report.json": serialize.decay_report_json(report),
                   "decay_report.csv": serialize.decay_report_csv(report)})
    h_star = "inf" if not np.isfinite(report.h_star) else f"{report.h_star:.6g}"
    print(f"classify: h* = {h_star}, slope = {report.slope:.6g}, "
          f"residual = {report.residual:.3e}")
    if report.super_omega:
        print("classify: note: super-omega decay signature "
              "(h* drifts toward 0 along the spectrum)")
    return 0


def cmd_factorize(config: argparse.Namespace) -> int:
    w = parse_weight_spec(config.weight)
    supported_only = (config.support_delta, config.pieces, config.bump_order)
    if config.vector and (config.supported or config.builtin is not None
                          or config.input_path is not None
                          or any(v is not None for v in supported_only)):
        raise ParameterError("--vector cannot be combined with --supported, --support-delta, "
                             "--pieces, --bump-order, --builtin or --input: it builds its "
                             "function from --rep and --seed")
    if not config.vector and config.rep is not None:
        raise ParameterError("--rep needs --vector")
    if not config.vector and config.seed is not None:
        raise ParameterError("--seed needs --vector")
    if not (config.vector or config.supported) and any(v is not None for v in supported_only):
        raise ParameterError("--support-delta, --pieces and --bump-order need --supported")
    config.support_delta = 2.0 if config.support_delta is None else config.support_delta
    config.bump_order = 2.0 if config.bump_order is None else config.bump_order
    config.seed = 0 if config.seed is None else config.seed
    config.h_prime = _resolve_h_prime(config.h, config.h_prime)
    if config.vector:
        if not config.rep:
            raise ParameterError("--vector needs --rep, e.g. --rep 0,1,2")
        group = parse_group_spec(config.group)
        labels = [tuple(int(v) for v in part.split("/")) if isinstance(group, Torus)
                  else int(part) for part in config.rep.split(",")]
        need = max(group.label_bandlimit(lab) for lab in labels)
        if need > config.bandlimit:
            raise ParameterError(f"--rep {config.rep} needs band limit {need} "
                                 f"> --bandlimit {config.bandlimit}")
        rep = FiniteRep.from_labels(group, labels)
        rng = np.random.default_rng(config.seed)
        v = rng.standard_normal(rep.total_dim) + 1j * rng.standard_normal(rep.total_dim)
        res = factorize_vector(rep, v, w, config.h, config.h_prime)
        bundle = {
            "mode": "vector",
            "rep": config.rep,
            "action_residual": res.action_residual,
            "orbit_residual": res.orbit_residual,
            "params": {"weight": w.spec_string(), "h": config.h,
                       "h_prime": res.factorization.h_prime},
        }
        _emit(config, {"bundle.json": json.dumps(bundle, sort_keys=True)})
        print(f"factorize(vector): action residual {res.action_residual:.3e}, "
              f"orbit residual {res.orbit_residual:.3e}")
        return 0
    f = _resolve_input(config)[2]
    if config.supported:
        res = supported_factorize(
            f, config.support_delta, w, config.h, config.h_prime,
            k=config.pieces, bump_order=config.bump_order,
        )
        bundle = {
            "mode": "supported",
            "residual": res.residual,
            "outside_support_mass": res.outside_support_mass,
            "sup_g": float(np.max(np.abs(res.g.values))),
            "min_mu_margin": res.min_mu_margin,
            "pieces": res.k,
            "params": {"weight": w.spec_string(), "h": config.h,
                       "h_prime": res.h_prime, "delta": config.support_delta},
        }
        _emit(config, {"bundle.json": json.dumps(bundle, sort_keys=True),
                       "f_prime_coefficients.json": serialize.coefficients_to_json(res.f_prime),
                       "g_grid.csv": serialize.gridfunction_to_csv(res.g)})
        print(f"factorize(supported): residual {res.residual:.3e}, "
              f"outside-support mass {res.outside_support_mass:.3e}, "
              f"min mu margin {res.min_mu_margin:.3e}")
        return 0
    res = strong_factorize(f, w, config.h, config.h_prime)
    labels = res.g.layout.labels.tolist()
    bundle = {
        "mode": "global",
        "residual": res.residual,
        "min_transfer_margin": res.min_transfer_margin,
        "min_transfer_margin_relative": res.min_transfer_margin_relative,
        "source_seminorm": res.source_seminorm,
        "multipliers": [{"xi": labels[i], "c": float(res.multipliers[i])}
                        for i in res.g.layout.wire.tolist()],
        "params": {"weight": w.spec_string(), "h": config.h, "h_prime": res.h_prime},
    }
    _emit(config, {"bundle.json": json.dumps(bundle, sort_keys=True),
                   "g_coefficients.json": serialize.coefficients_to_json(res.g),
                   "f_prime_coefficients.json": serialize.coefficients_to_json(res.f_prime)})
    print(f"factorize: residual {res.residual:.3e}, "
          f"min decay-transfer margin {res.min_transfer_margin:.3e} "
          f"({res.min_transfer_margin_relative:.3e} relative)")
    return 0


def cmd_verify(config: argparse.Namespace) -> int:
    results = run_verification(seed=config.seed)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        all_ok &= r.ok
        print(f"{r.name:<{width}}  measured {r.measured:>12.4e}  "
              f"bound {r.bound:>10.2e}  margin {r.margin:>11.4e}  {status}")
    doc = [dataclasses.asdict(r) for r in results]
    _emit(config, {"verify.json": json.dumps(doc, sort_keys=True)})
    print(f"verify: {'all properties pass' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liefact",
        description="Fourier analysis and convolution factorization on compact groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", dest="output_dir", default="liefact-out")
        return p

    def function_source(p):
        p.add_argument("--group", default="t1", help="t1 | t2 | su2")
        p.add_argument("--bandlimit", type=int, default=16)
        p.add_argument("--builtin", help="poisson:t | heat:t | bump:s:halfwidth")
        p.add_argument("--input", dest="input_path", help="grid-function CSV")

    function_source(command("transform", "forward transform, coefficient + decay files"))

    p = command("classify", "decay classification of a coefficient file")
    p.add_argument("--coefficients", required=True)
    p.add_argument("--weight", default="gevrey:s=1")

    p = command("factorize", "strong / supported / vector factorization")
    function_source(p)
    p.add_argument("--weight", default="gevrey:s=1")
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--h-prime", dest="h_prime", type=float, default=None)
    p.add_argument("--supported", action="store_true")
    p.add_argument("--support-delta", dest="support_delta", type=float)  # 2.0, set in cmd_factorize
    p.add_argument("--pieces", type=int, default=None)
    p.add_argument("--bump-order", dest="bump_order", type=float)  # 2.0, set in cmd_factorize
    p.add_argument("--vector", action="store_true")
    p.add_argument("--rep", help="comma-separated dual labels, e.g. 0,1,2")
    p.add_argument("--seed", type=int)  # 0, set in cmd_factorize; only --vector reads it

    p = command("verify", "run the full property suite")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    handler = {
        "transform": cmd_transform,
        "classify": cmd_classify,
        "factorize": cmd_factorize,
        "verify": cmd_verify,
    }[config.command]
    try:
        return handler(config)
    except (InsufficientDataError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConditioningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (LiefactError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
