import argparse
import importlib.util
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import liefact.factorize
import liefact.fourier
import liefact.serialize
from liefact.cli import build_parser, main
from liefact.errors import ParameterError
from liefact.factorize import bump_partition_of_unity
from liefact.serialize import coefficients_from_json, coefficients_to_json
from liefact.fourier import FourierCoefficients
from liefact.groups import SU2, Torus
from liefact.verify import run_verification


def run(args):
    return main(args)


def option_dests(command: str) -> set[str]:
    """The configuration keys a subcommand's parser defines, ``command`` included."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"} | {"command"}


class TestTransform:
    def test_poisson_builtin_writes_exact_decay(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["transform", "--group", "t1", "--bandlimit", "64",
                    "--builtin", "poisson:1.0", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        m = re.search(r"roundtrip sup error ([0-9.e+-]+)", printed)
        assert float(m.group(1)) <= 1e-9
        T = coefficients_from_json((out / "coefficients.json").read_text())
        for xi, norm in zip(T.duals, T.hs_norms()):
            assert abs(norm - np.exp(-abs(xi.label[0]))) < 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "transform"
        assert "coefficients.json" in manifest["outputs"]

    def test_grid_csv_input(self, tmp_path, capsys):
        from liefact.groups import haar_quadrature
        from liefact.serialize import _csv, gridfunction_to_csv
        from liefact.signals import poisson_function

        for g, L in ((Torus(1), 8), (SU2(), 2)):
            spec = g.spec_string()
            grid = haar_quadrature(g, L)
            f = poisson_function(g, grid, 1.0)
            csv_path = tmp_path / f"{spec}.csv"
            csv_path.write_text(gridfunction_to_csv(f))
            code = run(["transform", "--group", spec, "--bandlimit", str(L),
                        "--input", str(csv_path), "--out", str(tmp_path / spec)])
            assert code == 0
        # an SU(2) CSV in the double-cover layout (gamma on [0, 4pi) as well)
        # has twice the rows of the grid and is refused
        B = 2 * 2 + 2  # L = 2
        phases = 2 * np.pi * np.arange(2 * B) / B
        betas = np.arccos(np.polynomial.legendre.leggauss(B)[0])
        old = np.stack(np.meshgrid(phases, betas, phases, indexing="ij"), -1).reshape(-1, 3)
        assert len(old) == 2 * haar_quadrature(SU2(), 2).size
        csv_path = tmp_path / "double.csv"
        csv_path.write_text(_csv(["x0", "x1", "x2", "re0", "im0"], *old.T,
                                 np.ones(len(old)), np.zeros(len(old))))
        capsys.readouterr()
        code = run(["transform", "--group", "su2", "--bandlimit", "2",
                    "--input", str(csv_path), "--out", str(tmp_path / "double")])
        assert code == 2
        assert f"node count {len(old)} does not match the grid" in capsys.readouterr().err
        assert not (tmp_path / "double").exists()

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,re0,im0\nnot,a,number\n")
        code = run(["transform", "--group", "t1", "--bandlimit", "4",
                    "--input", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_csv_exits_2(self, tmp_path, bad):
        from liefact.groups import haar_quadrature
        from liefact.serialize import gridfunction_to_csv
        from liefact.signals import poisson_function

        t1 = Torus(1)
        text = gridfunction_to_csv(poisson_function(t1, haar_quadrature(t1, 4), 1.0))
        lines = text.splitlines()
        cells = lines[3].split(",")
        cells[1] = bad  # the re0 column
        lines[3] = ",".join(cells)
        csv_path = tmp_path / "f.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = run(["transform", "--group", "t1", "--bandlimit", "4",
                    "--input", str(csv_path), "--out", str(out)])
        assert code == 2
        assert not (out / "coefficients.json").exists()

    @pytest.mark.parametrize("bad", ["ragged", "non-numeric"])
    def test_malformed_grid_row_exits_2(self, tmp_path, capsys, bad):
        from liefact.groups import haar_quadrature
        from liefact.serialize import gridfunction_to_csv
        from liefact.signals import poisson_function

        t1 = Torus(1)
        lines = gridfunction_to_csv(poisson_function(t1, haar_quadrature(t1, 4), 1.0)).splitlines()
        cells = lines[3].split(",")
        if bad == "ragged":
            cells.append("0.0")
        else:
            cells[1] = "abc"  # the re0 column
        lines[3] = ",".join(cells)
        csv_path = tmp_path / "f.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = run(["transform", "--group", "t1", "--bandlimit", "4",
                    "--input", str(csv_path), "--out", str(out)])
        assert code == 2
        assert "grid CSV node row 3" in capsys.readouterr().err
        assert not out.exists()

    def test_builtin_with_input_exits_2_before_any_grid(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(Torus, "haar_quadrature", refuse)
        source = ["--group", "t1", "--bandlimit", "4", "--builtin", "poisson:1.0",
                  "--input", "/nonexistent.csv"]
        for i, argv in enumerate((["transform", *source],
                                  ["factorize", *source],
                                  ["factorize", *source, "--supported"])):
            out = tmp_path / str(i)
            assert run([*argv, "--out", str(out)]) == 2
            assert "--builtin and --input cannot be combined" in capsys.readouterr().err
            assert not out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["transform", "--group", "su2", "--bandlimit", "2",
                        "--builtin", "heat:0.5", "--out", str(out)]) == 0
        assert (out1 / "coefficients.json").read_bytes() == (out2 / "coefficients.json").read_bytes()
        assert (out1 / "decay.csv").read_bytes() == (out2 / "decay.csv").read_bytes()


def _relabel(doc, xi):
    doc["entries"][0]["xi"] = xi
    return doc


class TestClassify:
    def _poisson_coeff_file(self, tmp_path, t):
        out = tmp_path / "t"
        run(["transform", "--group", "t1", "--bandlimit", "64",
             "--builtin", f"poisson:{t}", "--out", str(out)])
        return out / "coefficients.json"

    def test_poisson_h_star(self, tmp_path, capsys):
        path = self._poisson_coeff_file(tmp_path, 2.0)
        code = run(["classify", "--coefficients", str(path),
                    "--weight", "gevrey:s=1", "--out", str(tmp_path / "c")])
        assert code == 0
        report = json.loads((tmp_path / "c" / "decay_report.json").read_text())
        assert abs(report["h_star"] - 0.5) <= 0.05
        assert not report["super_omega"]

    def test_zero_coefficients_exit_3(self, tmp_path):
        T = FourierCoefficients.zeros(Torus(1), 8)
        path = tmp_path / "z.json"
        path.write_text(coefficients_to_json(T))
        code = run(["classify", "--coefficients", str(path),
                    "--weight", "gevrey:s=1", "--out", str(tmp_path / "c")])
        assert code == 3

    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys):
        path = self._poisson_coeff_file(tmp_path, 2.0)
        doc = json.loads(path.read_text())
        doc["entries"][3]["re"][0][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        code = run(["classify", "--coefficients", str(path),
                    "--weight", "gevrey:s=1", "--out", str(tmp_path / "c")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "c" / "decay_report.json").exists()

    def test_oversized_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"group": "t2", "bandlimit": 100000, "value_dim": 1,
                                    "entries": []}))
        code = run(["classify", "--coefficients", str(path), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "40000400001 slots" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("group, edit, message", [
        ("t1", lambda doc: [doc], "object with keys"),
        ("t1", lambda doc: {k: v for k, v in doc.items() if k != "entries"}, "object with keys"),
        ("t1", lambda doc: {**doc, "bandlimit": 3.9}, "JSON integers"),
        ("t1", lambda doc: {**doc, "value_dim": "1"}, "JSON integers"),
        ("t1", lambda doc: _relabel(doc, 3), "not a list of 1 integers"),
        ("t1", lambda doc: _relabel(doc, [2.5]), "not a list of 1 integers"),
        ("su2", lambda doc: _relabel(doc, 2.0), "not an integer"),
    ])
    def test_malformed_coefficient_json_exits_2(self, tmp_path, capsys, group, edit, message):
        out = tmp_path / "t"
        run(["transform", "--group", group, "--bandlimit", "4",
             "--builtin", "poisson:1.0", "--out", str(out)])
        path = out / "coefficients.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code = run(["classify", "--coefficients", str(path),
                    "--weight", "gevrey:s=1", "--out", str(tmp_path / "c")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "c" / "decay_report.json").exists()

    @pytest.mark.parametrize("row", ["1,nan", "inf,3"])
    def test_non_finite_weight_table_exits_2(self, tmp_path, capsys, row):
        table = tmp_path / "w.csv"
        table.write_text(f"t,omega\n0,0\n{row}\n5,4\n")
        path = self._poisson_coeff_file(tmp_path, 2.0)
        code = run(["classify", "--coefficients", str(path),
                    "--weight", f"table:{table}", "--out", str(tmp_path / "c")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "c" / "decay_report.json").exists()

    @pytest.mark.parametrize("spec, body", [
        ("gevrey:s=abc", None), ("table:{}", "0,0\n1,abc\n"), ("table:{}", "0\n1\n2\n"),
    ], ids=["gevrey non-number", "table non-number", "table one column"])
    def test_unreadable_weight_spec_exits_2(self, tmp_path, capsys, spec, body):
        if body is not None:
            table = tmp_path / "w.csv"
            table.write_text("t,omega\n" + body)
            spec = spec.format(table)
        path = self._poisson_coeff_file(tmp_path, 2.0)
        capsys.readouterr()
        code = run(["classify", "--coefficients", str(path),
                    "--weight", spec, "--out", str(tmp_path / "c")])
        assert code == 2
        assert "weight spec" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_heat_flags_super_omega(self, tmp_path, capsys):
        out = tmp_path / "t"
        run(["transform", "--group", "t1", "--bandlimit", "16",
             "--builtin", "heat:0.1", "--out", str(out)])
        code = run(["classify", "--coefficients", str(out / "coefficients.json"),
                    "--weight", "gevrey:s=1", "--out", str(tmp_path / "c")])
        assert code == 0
        assert "super-omega" in capsys.readouterr().out
        report = json.loads((tmp_path / "c" / "decay_report.json").read_text())
        assert report["super_omega"]


class TestFactorize:
    def test_global_poisson(self, tmp_path, capsys):
        code = run(["factorize", "--group", "t1", "--bandlimit", "64",
                    "--builtin", "poisson:2.0", "--weight", "gevrey:s=1",
                    "--h", "0.5", "--h-prime", "1.0", "--out", str(tmp_path / "f")])
        assert code == 0
        printed = capsys.readouterr().out
        m = re.search(r"residual ([0-9.e+-]+)", printed)
        assert float(m.group(1)) <= 1e-10
        bundle = json.loads((tmp_path / "f" / "bundle.json").read_text())
        assert bundle["residual"] <= 1e-10
        assert bundle["min_transfer_margin_relative"] >= -1e-10

    def test_supported_quasianalytic_rejected(self, tmp_path):
        code = run(["factorize", "--group", "t1", "--bandlimit", "64",
                    "--builtin", "poisson:1.0", "--weight", "gevrey:s=0.5",
                    "--h", "0.5", "--h-prime", "1.0", "--supported",
                    "--support-delta", "2.0", "--pieces", "8",
                    "--bump-order", "1.0", "--out", str(tmp_path / "f")])
        assert code == 2

    @pytest.mark.parametrize("weight", ["log1p", "flat-tailed table"])
    def test_supported_gamma_failure_exits_2(self, tmp_path, capsys, weight):
        # (beta_0) holds, (gamma) fails: log t is not o(w) for log1p or a bounded w
        if weight != "log1p":
            table = tmp_path / "w.csv"
            table.write_text("t,omega\n0,0\n1,0\n3,2\n4,2\n")
            weight = f"table:{table}"
        code = run(["factorize", "--group", "t1", "--bandlimit", "64",
                    "--builtin", "poisson:2.0", "--supported", "--weight", weight,
                    "--out", str(tmp_path / "f")])
        assert code == 2
        assert "satisfies_gamma" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_supported_runs(self, tmp_path, capsys):
        code = run(["factorize", "--group", "t1", "--bandlimit", "256",
                    "--builtin", "poisson:2.0", "--weight", "gevrey:s=0.5",
                    "--h", "0.5", "--h-prime", "1.0", "--supported",
                    "--support-delta", "2.0", "--pieces", "8",
                    "--out", str(tmp_path / "f")])
        assert code == 0
        bundle = json.loads((tmp_path / "f" / "bundle.json").read_text())
        assert bundle["residual"] <= 1e-7
        assert bundle["min_mu_margin"] >= -1e-8
        assert bundle["outside_support_mass"] <= 1e-6 * bundle["sup_g"]

    def test_vector_mode(self, tmp_path, capsys):
        code = run(["factorize", "--group", "su2", "--bandlimit", "2",
                    "--vector", "--rep", "0,1", "--weight", "gevrey:s=1",
                    "--h", "1.0", "--h-prime", "2.0", "--seed", "7",
                    "--out", str(tmp_path / "v")])
        assert code == 0
        bundle = json.loads((tmp_path / "v" / "bundle.json").read_text())
        assert bundle["action_residual"] <= 1e-9
        assert bundle["orbit_residual"] <= 1e-9

    @pytest.mark.parametrize("mode", ["global", "supported", "vector"])
    def test_bundle_records_resolved_h_prime(self, tmp_path, mode):
        # without --h-prime, the bundle and the manifest both record h' = 2h
        argv = {
            "global": ["--group", "t1", "--bandlimit", "8", "--builtin", "poisson:2.0"],
            "supported": ["--group", "t1", "--bandlimit", "64", "--builtin", "poisson:2.0",
                          "--supported", "--pieces", "8", "--weight", "gevrey:s=0.5"],
            "vector": ["--group", "su2", "--bandlimit", "2", "--vector", "--rep", "0,1,2",
                       "--weight", "gevrey:s=1"],
        }[mode]
        h = 0.5
        assert run(["factorize", *argv, "--h", str(h), "--out", str(tmp_path / "o")]) == 0
        bundle = json.loads((tmp_path / "o" / "bundle.json").read_text())
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert bundle["params"]["h_prime"] == manifest["config"]["h_prime"] == 2 * h

    def test_vector_without_rep_exits_2_before_any_grid(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(SU2, "haar_quadrature", refuse)
        code = run(["factorize", "--group", "su2", "--bandlimit", "2", "--vector",
                    "--out", str(tmp_path / "v")])
        assert code == 2
        assert "--rep" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_vector_with_supported_options_exits_2_before_any_grid(self, tmp_path, capsys,
                                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(SU2, "haar_quadrature", refuse)
        # the vector path builds its own function from --rep and --seed
        for i, extra in enumerate((["--supported"], ["--support-delta", "1.0"],
                                   ["--pieces", "3"], ["--bump-order", "3.0"],
                                   ["--builtin", "heat:0.3"], ["--input", "/nonexistent.csv"],
                                   ["--builtin", "heat:0.3", "--input", "/nonexistent.csv"])):
            out = tmp_path / str(i)
            code = run(["factorize", "--group", "su2", "--bandlimit", "2", "--vector",
                        "--rep", "0,1,2", *extra, "--out", str(out)])
            assert code == 2
            assert "--vector cannot be combined" in capsys.readouterr().err
            assert not out.exists()

    def test_unused_mode_options_exit_2_before_any_grid(self, tmp_path, capsys, monkeypatch):
        # global mode reads none of --pieces, --support-delta, --bump-order,
        # --rep, --seed, and supported mode reads neither --rep nor --seed:
        # each is refused, not ignored
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(Torus, "haar_quadrature", refuse)
        cases = [(["--pieces", "3", "--support-delta", "0.5", "--rep", "0"], "--rep needs"),
                 (["--pieces", "3"], "need --supported"),
                 (["--support-delta", "0.5"], "need --supported"),
                 (["--bump-order", "3.0"], "need --supported"),
                 (["--bump-order", "2.0"], "need --supported"),
                 (["--rep", "0"], "--rep needs --vector"),
                 (["--supported", "--rep", "0"], "--rep needs --vector"),
                 (["--seed", "3"], "--seed needs --vector"),
                 (["--seed", "0"], "--seed needs --vector"),
                 (["--supported", "--seed", "3"], "--seed needs --vector")]
        for i, (extra, message) in enumerate(cases):
            out = tmp_path / str(i)
            code = run(["factorize", "--group", "t1", "--bandlimit", "8",
                        "--builtin", "poisson:2.0", *extra, "--out", str(out)])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_piece_count_below_one_exits_2(self, tmp_path, capsys):
        with pytest.raises(ParameterError, match="at least 1"):
            bump_partition_of_unity(2.0, 0, 2.0, Torus(1).haar_quadrature(16))
        for k in ("0", "-3"):
            code = run(["factorize", "--group", "t1", "--bandlimit", "16",
                        "--builtin", "poisson:1.0", "--weight", "gevrey:s=0.5", "--supported",
                        "--pieces", k, "--out", str(tmp_path / k)])
            assert code == 2
            assert "at least 1" in capsys.readouterr().err
            assert not (tmp_path / k).exists()

    def test_vector_rep_above_bandlimit_exits_2_before_any_table(self, tmp_path, capsys,
                                                                 monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rep table or grid was built")

        monkeypatch.setattr(liefact.factorize, "inverse", refuse)
        monkeypatch.setattr(liefact.factorize, "forward", refuse)
        monkeypatch.setattr(SU2, "irrep_matrices", refuse)
        monkeypatch.setattr(SU2, "haar_quadrature", refuse)
        code = run(["factorize", "--group", "su2", "--bandlimit", "2", "--vector",
                    "--rep", "0,1,70", "--out", str(tmp_path / "v")])
        assert code == 2
        assert "--bandlimit 2" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("argv", [
        ["transform", "--builtin", "poisson:nan"],
        ["transform", "--builtin", "poisson:inf"],
        ["transform", "--builtin", "heat:nan"],
        ["transform", "--builtin", "bump:nan:1.0"],
        ["transform", "--builtin", "bump:inf:1.0"],
        ["factorize", "--builtin", "heat:inf"],
        ["factorize", "--builtin", "poisson:1.0", "--h", "nan"],
        ["factorize", "--builtin", "poisson:1.0", "--h", "inf"],
        ["factorize", "--builtin", "poisson:1.0", "--h-prime", "nan"],
        ["factorize", "--builtin", "poisson:1.0", "--h-prime", "inf"],
        ["factorize", "--builtin", "poisson:1.0", "--supported", "--support-delta", "nan"],
        ["factorize", "--builtin", "poisson:1.0", "--supported", "--support-delta", "nan",
         "--pieces", "8"],
        ["factorize", "--builtin", "poisson:1.0", "--supported", "--pieces", "8",
         "--bump-order", "nan"],
    ], ids=" ".join)
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        weight = ["--weight", "gevrey:s=0.5"] if argv[0] == "factorize" else []
        code = run(argv + weight + ["--group", "t1", "--bandlimit", "16", "--out", str(out)])
        assert code == 2
        assert "cannot convert" not in capsys.readouterr().err
        assert not out.exists()

    def test_bad_parameters_exit_2(self, tmp_path):
        code = run(["factorize", "--group", "t1", "--bandlimit", "8",
                    "--builtin", "poisson:1.0", "--weight", "gevrey:s=1",
                    "--h", "1.0", "--h-prime", "0.5", "--out", str(tmp_path / "f")])
        assert code == 2


    def test_conditioning_failure_exits_4_with_no_output(self, tmp_path, capsys):
        out = tmp_path / "f"
        code = run(["factorize", "--group", "t1", "--bandlimit", "256",
                    "--builtin", "poisson:1.0", "--supported", "--support-delta", "2.0",
                    "--pieces", "8", "--weight", "gevrey:s=0.9", "--h", "0.5",
                    "--h-prime", "1.0", "--out", str(out)])
        assert code == 4
        assert "S block at xi = (-256,) is numerically singular" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_formatter_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def refuse(f):
            raise ParameterError("grid CSV formatter failed")

        monkeypatch.setattr(liefact.serialize, "gridfunction_to_csv", refuse)
        out = tmp_path / "f"
        code = run(["factorize", "--group", "t1", "--bandlimit", "64", "--builtin", "poisson:2.0",
                    "--supported", "--pieces", "8", "--weight", "gevrey:s=0.5",
                    "--h", "0.5", "--h-prime", "1.0", "--out", str(out)])
        assert code == 2
        assert "formatter failed" in capsys.readouterr().err
        assert not out.exists()


class TestDeskScale:
    def test_t2_factorize_at_the_desk_limit(self, tmp_path):
        # the README's T^2 desk limit: 16,641 dual indices per coefficient file
        out = tmp_path / "fac"
        assert run(["factorize", "--group", "t2", "--bandlimit", "64", "--builtin",
                    "poisson:2.0", "--weight", "gevrey:s=1", "--h", "0.5", "--h-prime", "1.0",
                    "--out", str(out)]) == 0
        for name in ("g_coefficients.json", "f_prime_coefficients.json"):
            text = (out / name).read_text()
            T = coefficients_from_json(text)
            assert T.bandlimit == 64 and len(T.layout.labels) == 129 ** 2
            assert coefficients_to_json(T) == text


class TestVerify:
    def test_default_passes(self, tmp_path, capsys):
        assert run(["verify", "--out", str(tmp_path / "v")]) == 0
        results = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert all(r["measured"] <= r["bound"] for r in results)
        # the margin is printed, never written: verify.json keeps its three keys
        assert all(set(r) == {"name", "measured", "bound"} for r in results)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verify: all properties pass"
        num = r"(-?[0-9.]+e[+-][0-9]+)"
        for r, line in zip(results, lines[:-1]):
            m = re.fullmatch(rf"{re.escape(r['name'])} +measured +{num} +bound +{num} "
                             rf"+margin +{num} +PASS", line)
            assert m, line
            measured, bound, margin = (float(g) for g in m.groups())
            assert margin >= 0
            assert abs(margin - (bound - measured)) <= 1e-4 * (abs(bound) + abs(measured))

    def test_mutated_convolution_fails(self, monkeypatch, capsys, tmp_path):
        orig = liefact.fourier.convolve

        def flipped(chi, f):
            out = orig(chi, f)
            out.values = -out.values
            return out

        monkeypatch.setattr(liefact.fourier, "convolve", flipped)
        code = run(["verify", "--out", str(tmp_path / "v")])
        printed = capsys.readouterr().out
        assert code == 1
        assert re.search(r"convolution[^\n]*FAIL", printed)

    def test_pass_set_identical_across_seeds(self):
        sets = []
        for seed in (0, 1, 2, 3, 4):
            results = run_verification(seed=seed)
            sets.append(tuple(r.name for r in results if r.ok))
        assert len(set(sets)) == 1
        assert len(sets[0]) == len(run_verification(seed=0))


def readme_commands() -> list[list[str]]:
    """Every ``liefact ...`` command of README's sh blocks, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["liefact"]:
                commands.append(argv[1:])
    return commands


class TestReadme:
    def test_commands_run_and_repeat_byte_identical(self, tmp_path, monkeypatch):
        commands = readme_commands()
        assert {c[0] for c in commands} == {"transform", "classify", "factorize", "verify"}
        outputs = []
        for run_dir in (tmp_path / "first", tmp_path / "second"):
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            for argv in commands:
                assert run(argv) == 0, argv
            outputs.append({p.relative_to(run_dir): p.read_bytes()
                            for p in sorted(run_dir.rglob("*")) if p.is_file()})
        assert len(outputs[0]) >= 2 * len(commands)
        assert outputs[0] == outputs[1]


class TestSinglePath:
    def test_library_never_reads_the_entries_view(self, tmp_path, monkeypatch):
        # the packed blocks are the one coefficient path; ``entries`` is kept
        # for outside callers only, so every command must run with it disabled
        def refuse(*args):
            raise AssertionError("library code went through FourierCoefficients.entries")

        for name in ("__getitem__", "__setitem__", "__iter__"):
            monkeypatch.setattr(liefact.fourier._BlockEntries, name, refuse)
        with pytest.raises(AssertionError):
            next(iter(FourierCoefficients.zeros(Torus(1), 2).entries))
        monkeypatch.chdir(tmp_path)
        for argv in readme_commands():
            assert run(argv) == 0, argv
        assert all(r.ok for r in run_verification())


class TestOptionSets:
    @pytest.mark.parametrize("argv", [
        ["transform", "--builtin", "poisson:1.0", "--seed", "1"],
        ["classify", "--coefficients", "c.json", "--group", "t1"],
        ["classify", "--coefficients", "c.json", "--bandlimit", "8"],
        ["classify", "--coefficients", "c.json", "--seed", "1"],
        ["verify", "--group", "su2"],
        ["verify", "--bandlimit", "4"],
        ["verify", "--fast"],
    ], ids=" ".join)
    def test_dropped_option_exits_2(self, tmp_path, capsys, argv):
        # each subcommand declares only the options its handler reads
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_config_is_the_parsed_options(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in readme_commands():
            assert run(argv) == 0, argv
            out = argv[argv.index("--out") + 1] if "--out" in argv else "liefact-out"
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            config = manifest["config"]
            assert manifest["command"] == config["command"] == argv[0]
            assert set(config) == option_dests(argv[0]), argv
            # resolved: factorize leaves none of its mode defaults at None
            if argv[0] == "factorize":
                assert None not in (config["seed"], config["support_delta"],
                                    config["bump_order"])

    def test_benchmark_cli_commands_parse(self):
        # the benchmark drives the CLI with these argv lists; a narrower CLI
        # must fail here, not in a benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "readme_cli.py"
        spec = importlib.util.spec_from_file_location("perfbench_readme_cli", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parser = build_parser()
        commands = module.commands(7)
        assert {argv[0] for _, argv in commands} == {"transform", "classify", "factorize",
                                                    "verify"}
        for name, argv in commands:
            assert parser.parse_args(argv).command == argv[0], name
