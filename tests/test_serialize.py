import csv
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

import liefact.serialize
from liefact.classify import estimate_critical_h
from liefact.errors import ParameterError
from liefact.fourier import FourierCoefficients, GridFunction, forward
from liefact.groups import dual_layout, haar_quadrature
from liefact.serialize import (
    coefficients_from_json,
    coefficients_to_json,
    decay_report_csv,
    decay_report_json,
    decay_table_csv,
    gridfunction_from_csv,
    gridfunction_to_csv,
    seminorm_report_csv,
)
from liefact.signals import poisson_coefficients, poisson_function, random_bandlimited
from liefact.spectral import iterate_seminorm
from liefact.weights import gevrey_weight


def _dumps_oracle(T):
    """The dict form the writer replaced: nested tolist() entries through json.dumps."""
    layout = T.layout
    entries = [{"xi": list(xi.label) if isinstance(xi.label, tuple) else xi.label,
                "re": T.entries[xi].real.tolist(), "im": T.entries[xi].imag.tolist()}
               for xi in (layout.duals[i] for i in layout.wire.tolist())]
    return json.dumps({"group": T.group.spec_string(), "bandlimit": T.bandlimit,
                       "value_dim": T.value_dim, "entries": entries}, sort_keys=True)


def _csv_oracle(kind, obj):
    """The csv.writer forms the shared ``_csv`` formatter replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if kind == "grid":
        header = [f"x{i}" for i in range(obj.grid.nodes.shape[1])]
        for v in range(obj.value_dim):
            header += [f"re{v}", f"im{v}"]
        writer.writerow(header)
        for node, row in zip(obj.grid.nodes, obj.values):
            out = [repr(float(c)) for c in node]
            for v in range(obj.value_dim):
                out += [repr(float(row[v].real)), repr(float(row[v].imag))]
            writer.writerow(out)
    elif kind == "decay_table":
        writer.writerow(["sqrt_lambda", "hsnorm"])
        wire = obj.layout.wire
        for lam, norm in zip(np.sqrt(obj.layout.casimir)[wire].tolist(),
                             obj.hs_norms()[wire].tolist()):
            writer.writerow([repr(lam), repr(norm)])
    elif kind == "decay_report":
        writer.writerow(["sqrt_lambda", "log_hsnorm", "fitted"])
        for i in np.argsort(obj.sqrt_lambda):
            writer.writerow([repr(float(obj.sqrt_lambda[i])), repr(float(obj.log_hsnorm[i])),
                             repr(float(obj.fitted[i]))])
    else:
        writer.writerow(["j", "supnorm", "weighted_term"])
        for j, sup, term in zip(obj.js, obj.supnorms, obj.weighted_terms):
            writer.writerow([int(j), repr(float(sup)), repr(float(term))])
    return buf.getvalue()


def _report_json_oracle(report):
    """The form ``decay_report_json`` replaced: each infinity spelled "inf" inline."""
    doc = {
        "weight": report.weight.spec_string(),
        "h_star": report.h_star if np.isfinite(report.h_star) else "inf",
        "slope": report.slope,
        "intercept": report.intercept,
        "residual": report.residual,
        "h_star_low": report.h_star_low if np.isfinite(report.h_star_low) else "inf",
        "h_star_high": report.h_star_high if np.isfinite(report.h_star_high) else "inf",
        "super_omega": report.super_omega,
        "h_values": report.h_values.tolist(),
        "seminorm_values": [v if np.isfinite(v) else "inf" for v in report.seminorm_values],
    }
    return json.dumps(doc, sort_keys=True)


def _edited(T, edit):
    """The JSON text of T after ``edit`` changed its parsed document."""
    doc = json.loads(coefficients_to_json(T))
    edit(doc["entries"])
    return json.dumps(doc)


class TestCoefficientJson:
    def test_roundtrip(self, t1, t2, su2, rng):
        for g, L in ((t1, 8), (t2, 4), (su2, 2)):
            grid = haar_quadrature(g, L)
            T = forward(random_bandlimited(g, grid, rng, value_dim=2))
            back = coefficients_from_json(coefficients_to_json(T))
            assert back.bandlimit == T.bandlimit
            assert back.value_dim == T.value_dim
            for xi in T.entries:
                assert np.allclose(back.entries[xi], T.entries[xi])
            assert len(back.blocks) == len(T.blocks)
            assert all(np.array_equal(a, b) for a, b in zip(back.blocks, T.blocks))

    def test_deterministic_bytes(self, t1, rng):
        grid = haar_quadrature(t1, 4)
        T = forward(random_bandlimited(t1, grid, rng))
        assert coefficients_to_json(T) == coefficients_to_json(T)

    def test_out_of_band_label_rejected(self, t1, rng):
        grid = haar_quadrature(t1, 4)
        text = coefficients_to_json(forward(random_bandlimited(t1, grid, rng)))
        bad = text.replace('"bandlimit": 4', '"bandlimit": 2')
        with pytest.raises(ParameterError):
            coefficients_from_json(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_value_rejected(self, su2, bad, part):
        def edit(entries):
            entries[2][part][0][1][2] = bad  # 2l = 2: one 3 x 3 slice
        text = _edited(poisson_coefficients(su2, 2, 1.0), edit)
        assert ("NaN" if bad != bad else "Infinity") in text
        with pytest.raises(ParameterError, match="non-finite"):
            coefficients_from_json(text)

    @pytest.mark.parametrize("value", [0.5, [[0.5]], [[[0.5, 0.5], [0.5, 0.5]]],
                                       [[[0.5]], [[0.5]]]])
    def test_entry_shape_rejected(self, t1, value):
        # a scalar must not broadcast into the (m, 1, 1) slot
        def edit(entries):
            entries[0]["re"] = value
        with pytest.raises(ParameterError, match="shape"):
            coefficients_from_json(_edited(poisson_coefficients(t1, 4, 1.0), edit))

    def test_repeated_label_rejected(self, t2):
        def edit(entries):
            entries.append(dict(entries[5]))
        with pytest.raises(ParameterError, match="twice"):
            coefficients_from_json(_edited(poisson_coefficients(t2, 2, 1.0), edit))

    def test_missing_label_reads_as_zero(self, t1):
        T = poisson_coefficients(t1, 4, 1.0)
        back = coefficients_from_json(_edited(T, lambda entries: entries.pop(0)))
        assert back.hs_norms()[T.layout.wire[0]] == 0.0
        assert np.count_nonzero(back.hs_norms() != T.hs_norms()) == 1

    @pytest.mark.parametrize("text", [
        "[]", "3", '"t1"', "null",
        '{"group": "t1", "bandlimit": 2, "value_dim": 1}',
        '{"group": "t1", "bandlimit": 2, "entries": []}',
        '{"bandlimit": 2, "value_dim": 1, "entries": []}',
    ])
    def test_not_a_coefficient_document_rejected(self, text):
        with pytest.raises(ParameterError, match="object with keys"):
            coefficients_from_json(text)

    @pytest.mark.parametrize("entries", [{}, "x", [3], [[]], [{"xi": [0], "re": [[[1.0]]],
                                                             "im": [[[0.0]]]}, None]])
    def test_entries_not_a_list_of_objects_rejected(self, entries):
        text = json.dumps({"group": "t1", "bandlimit": 2, "value_dim": 1, "entries": entries})
        with pytest.raises(ParameterError, match="list of objects"):
            coefficients_from_json(text)

    @pytest.mark.parametrize("key", ["bandlimit", "value_dim"])
    @pytest.mark.parametrize("value", [4.9, 1.0, "4", True, None, [4]])
    def test_non_integer_header_rejected(self, t1, key, value):
        doc = json.loads(coefficients_to_json(poisson_coefficients(t1, 4, 1.0)))
        doc[key] = value
        with pytest.raises(ParameterError, match="JSON integers"):
            coefficients_from_json(json.dumps(doc))

    @pytest.mark.parametrize("group, xi", [
        ("t1", 3), ("t1", [2.5]), ("t1", [1.0]), ("t1", [True]), ("t1", [1, 2]),
        ("t1", "1"), ("t1", None), ("t2", [1]), ("t2", [1, 2, 3]), ("t2", [1, False]),
        ("su2", 2.0), ("su2", 2.5), ("su2", True), ("su2", [2]), ("su2", "2"), ("su2", None),
    ])
    def test_malformed_label_rejected(self, group, xi, request):
        def edit(entries):
            entries[0]["xi"] = xi
        text = _edited(poisson_coefficients(request.getfixturevalue(group), 2, 1.0), edit)
        with pytest.raises(ParameterError, match="is not (a list of|an integer)"):
            coefficients_from_json(text)


class TestBlockWriter:
    SPECIALS = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.0, 0.1, -2.5])

    @pytest.mark.parametrize("group, L", [("t1", 1), ("t1", 5), ("t1", 33), ("t2", 1),
                                          ("t2", 3), ("t2", 8), ("su2", 1), ("su2", 2),
                                          ("su2", 5)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_the_dict_form(self, group, L, m, request, rng):
        T = FourierCoefficients.zeros(request.getfixturevalue(group), L, m)
        for b in T.blocks:
            b.real[...] = np.resize(np.roll(self.SPECIALS, rng.integers(9)), b.shape)
            b.imag[...] = rng.standard_normal(b.shape) * 10.0 ** rng.integers(-300, 300, b.shape)
        assert coefficients_to_json(T) == _dumps_oracle(T)

    def test_special_values_spelled_as_json_dumps(self, t1):
        T = FourierCoefficients(t1, 4, [np.resize(self.SPECIALS, (9, 1, 1, 1)).astype(complex)])
        text = coefficients_to_json(T)
        assert text == _dumps_oracle(T)
        for word in ("[[[-0.0]]]", "[[[5e-324]]]", "[[[1e+300]]]", "[[[NaN]]]", "[[[Infinity]]]",
                     "[[[-Infinity]]]", "[[[0.1]]]"):
            assert word in text

    def test_read_back_writes_the_same_bytes(self, t1, t2, su2, rng):
        for g, L, m in ((t1, 16, 3), (t2, 6, 2), (su2, 4, 2)):
            T = forward(random_bandlimited(g, haar_quadrature(g, L), rng, value_dim=m))
            text = coefficients_to_json(T)
            assert coefficients_to_json(coefficients_from_json(text)) == text


class TestReaderRejections:
    @pytest.mark.parametrize("key", ["bandlimit", "value_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, t1, key, value):
        doc = json.loads(coefficients_to_json(poisson_coefficients(t1, 2, 1.0)))
        doc[key] = value
        with pytest.raises(ParameterError, match="must be >= 1"):
            coefficients_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["xi", "re", "im"])
    def test_entry_without_key_rejected(self, t2, key):
        def edit(entries):
            del entries[3][key]
        with pytest.raises(ParameterError, match="needs the keys"):
            coefficients_from_json(_edited(poisson_coefficients(t2, 2, 1.0), edit))

    @pytest.mark.parametrize("group", ["t1", "su2"])
    @pytest.mark.parametrize("leaf", ["0.25", True, False, None, {}])
    def test_non_number_leaf_rejected(self, group, leaf, request):
        # a bool among floats: numpy would read it as 1.0 or 0.0
        T = poisson_coefficients(request.getfixturevalue(group), 2, 1.0)
        def edit(entries):
            entries[1]["im"][0][0][0] = leaf
        with pytest.raises(ParameterError, match="is not a number"):
            coefficients_from_json(_edited(T, edit))

    def test_all_bool_entry_rejected(self, t1):
        def edit(entries):
            entries[2]["re"] = [[[True]]]
        with pytest.raises(ParameterError, match=r"entry for \(.*\) holds a value that is not"):
            coefficients_from_json(_edited(poisson_coefficients(t1, 2, 1.0), edit))

    def test_integer_leaves_are_numbers(self, su2):
        T = poisson_coefficients(su2, 2, 1.0)
        def edit(entries):
            entries[1]["re"] = [[[2, 0], [0, 2 ** 70]]]
        back = coefficients_from_json(_edited(T, edit))
        assert np.array_equal(back.blocks[1][0, 0].real, [[2.0, 0.0], [0.0, 2.0 ** 70]])

    def test_int_past_float_range_is_non_finite(self, t1):
        def edit(entries):
            entries[0]["im"] = [[[10 ** 400]]]
        with pytest.raises(ParameterError, match="non-finite"):
            coefficients_from_json(_edited(poisson_coefficients(t1, 2, 1.0), edit))

    def test_label_past_64_bits_outside_the_band(self, t2):
        def edit(entries):
            entries[4]["xi"] = [2 ** 70, 0]
        with pytest.raises(ParameterError, match=r"\(1180591620717411303424, 0\) outside"):
            coefficients_from_json(_edited(poisson_coefficients(t2, 2, 1.0), edit))

    def test_first_fault_in_file_order_is_named(self, t2):
        # a vectorized check fails; the scan names the earliest faulty entry
        def edit(entries):
            entries[6]["xi"] = [9, 9]
            entries[3]["re"] = [[[0.5, 0.5]]]
        with pytest.raises(ParameterError, match=r"entry for \(.*\) must have shape \(1, 1, 1\)"):
            coefficients_from_json(_edited(poisson_coefficients(t2, 2, 1.0), edit))


class TestCsvWriters:
    """Each CSV writer is byte-identical to its csv.writer oracle."""

    SPECIALS = TestBlockWriter.SPECIALS

    @pytest.mark.parametrize("group, L", [("t1", 4), ("t2", 3), ("su2", 2)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_grid_function(self, group, L, m, request, rng):
        g = request.getfixturevalue(group)
        grid = haar_quadrature(g, L)
        f = random_bandlimited(g, grid, rng, value_dim=m)
        values = f.values.copy()
        values.real.flat[:9] = self.SPECIALS
        values.imag.flat[-9:] = self.SPECIALS[::-1]
        for f in (f, GridFunction(g, grid, values)):
            text = gridfunction_to_csv(f)
            assert text == _csv_oracle("grid", f)
        assert "nan" in text and "-inf" in text and "5e-324" in text and "\r\n" in text

    def test_grid_function_with_transposed_values(self, su2, rng):
        grid = haar_quadrature(su2, 2)
        values = (rng.standard_normal((2, grid.size)) + 1j * rng.standard_normal((2, grid.size)))
        values[0, :9] = self.SPECIALS
        f = GridFunction(su2, grid, values.T)
        assert not f.values.flags.c_contiguous
        assert gridfunction_to_csv(f) == _csv_oracle("grid", f)

    def test_decay_table(self, t1, t2, su2, rng):
        tables = [poisson_coefficients(g, L, 1.0) for g, L in ((t1, 16), (t2, 4), (su2, 3))]
        tables.append(FourierCoefficients(t1, 4, [np.resize(self.SPECIALS, (9, 1, 1, 1)) + 0j]))
        tables.append(forward(random_bandlimited(su2, haar_quadrature(su2, 2), rng, value_dim=2)))
        with np.errstate(over="ignore"):  # |1e300|^2 in the HS norm
            for T in tables:
                assert decay_table_csv(T) == _csv_oracle("decay_table", T)

    def test_decay_reports(self, t1, t2):
        for T in (poisson_coefficients(t1, 16, 1.0), poisson_coefficients(t2, 6, 0.5)):
            report = estimate_critical_h(T, gevrey_weight(1.0))
            n = len(report.sqrt_lambda)
            special = dataclasses.replace(
                report, fitted=np.resize(self.SPECIALS, n),
                log_hsnorm=np.resize(self.SPECIALS[::-1], n), h_star=np.inf, h_star_high=-np.inf,
                seminorm_values=np.array([np.inf, -0.0, 5e-324, 1e300, np.nan]))
            for r in (report, special):
                assert decay_report_csv(r) == _csv_oracle("decay_report", r)
                assert decay_report_json(r) == _report_json_oracle(r)
        assert '"h_star": "inf"' in decay_report_json(special)

    def test_seminorm_reports(self, t1):
        report = iterate_seminorm(poisson_function(t1, haar_quadrature(t1, 16), 1.0),
                                  gevrey_weight(1.0), 1.5)
        n = len(report.js)
        special = dataclasses.replace(report, supnorms=np.resize(self.SPECIALS, n),
                                      weighted_terms=np.resize(self.SPECIALS[::-1], n))
        for r in (report, special):
            assert seminorm_report_csv(r) == _csv_oracle("seminorm", r)


class TestDeclaredSize:
    """The reader bounds the family a header declares before building anything."""

    @pytest.mark.parametrize("header", [
        {"group": "t2", "bandlimit": 100000, "value_dim": 1},
        {"group": "t1", "bandlimit": 4, "value_dim": 10**12},
        {"group": "su2", "bandlimit": 10**6, "value_dim": 1},
    ])
    def test_oversized_header_rejected_without_allocating(self, header):
        text = json.dumps({**header, "entries": []})
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="slots"):
                coefficients_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("group, L, m", [("t1", 256, 1), ("t2", 64, 1), ("t2", 5, 3),
                                             ("su2", 16, 2), ("su2", 3, 1)])
    def test_limit_is_the_exact_slot_count(self, group, L, m, request, monkeypatch):
        layout = dual_layout(request.getfixturevalue(group), L)
        slots = m * int(np.sum(layout.dim**2))
        text = json.dumps({"group": group, "bandlimit": L, "value_dim": m, "entries": []})
        assert slots <= liefact.serialize.MAX_COEFFICIENT_SLOTS
        monkeypatch.setattr(liefact.serialize, "MAX_COEFFICIENT_SLOTS", slots)
        T = coefficients_from_json(text)
        assert not any(b.any() for b in T.blocks)
        monkeypatch.setattr(liefact.serialize, "MAX_COEFFICIENT_SLOTS", slots - 1)
        with pytest.raises(ParameterError, match=f"{slots} slots"):
            coefficients_from_json(text)


class TestGridCsv:
    def test_roundtrip(self, t2, rng):
        grid = haar_quadrature(t2, 3)
        f = random_bandlimited(t2, grid, rng, value_dim=2)
        back = gridfunction_from_csv(gridfunction_to_csv(f), t2, grid)
        assert np.allclose(back.values, f.values)

    def test_node_count_mismatch(self, t1, rng):
        grid4 = haar_quadrature(t1, 4)
        grid8 = haar_quadrature(t1, 8)
        f = random_bandlimited(t1, grid4, rng)
        with pytest.raises(ParameterError):
            gridfunction_from_csv(gridfunction_to_csv(f), t1, grid8)

    def test_malformed(self, t1):
        grid = haar_quadrature(t1, 4)
        with pytest.raises(ParameterError):
            gridfunction_from_csv("x0,re0\n", t1, grid)

    @pytest.mark.parametrize("row, message", [
        ("{x!r},1.0\n", "node row 2 has 2 fields"),
        ("{x!r},1.0,0.0,2.0\n", "node row 2 has 4 fields"),
        ("{x!r},abc,0.0\n", "node row 2 holds a non-number"),
    ], ids=["short", "long", "non-numeric"])
    def test_bad_row_named(self, t1, row, message):
        # the second node row is bad; every other row is well formed
        grid = haar_quadrature(t1, 1)
        xs = grid.nodes[:, 0].tolist()
        rows = [f"{x!r},1.0,0.0\n" for x in xs]
        rows[1] = row.format(x=xs[1])
        with pytest.raises(ParameterError, match=message):
            gridfunction_from_csv("x0,re0,im0\n" + "".join(rows), t1, grid)

    def test_row_wider_than_header_rejected(self, t1):
        grid = haar_quadrature(t1, 1)
        rows = "".join(f"{x!r},1.0,0.0,2.0,0.0\n" for x in grid.nodes[:, 0].tolist())
        with pytest.raises(ParameterError, match="column count"):
            gridfunction_from_csv("x0,re0,im0\n" + rows, t1, grid)


class TestDecayTable:
    def test_norms_computed_once(self, t2, monkeypatch):
        calls = []
        orig = FourierCoefficients.hs_norms

        def counted(self):
            calls.append(1)
            return orig(self)

        monkeypatch.setattr(FourierCoefficients, "hs_norms", counted)
        T = poisson_coefficients(t2, 4, 1.0)
        rows = decay_table_csv(T).splitlines()
        assert len(rows) == 1 + len(T.entries)
        assert len(calls) == 1


class TestReportCsv:
    def test_seminorm_report(self, t1):
        from liefact.serialize import seminorm_report_csv
        from liefact.signals import poisson_function
        from liefact.spectral import iterate_seminorm
        from liefact.weights import gevrey_weight

        f = poisson_function(t1, haar_quadrature(t1, 16), 1.0)
        rep = iterate_seminorm(f, gevrey_weight(1.0), 1.5)
        text = seminorm_report_csv(rep)
        lines = text.strip().splitlines()
        assert lines[0] == "j,supnorm,weighted_term"
        assert len(lines) == len(rep.js) + 1

    def test_decay_report(self, t1):
        from liefact.classify import estimate_critical_h
        from liefact.serialize import decay_report_csv, decay_report_json
        from liefact.signals import poisson_coefficients
        from liefact.weights import gevrey_weight

        rep = estimate_critical_h(poisson_coefficients(t1, 16, 1.0), gevrey_weight(1.0))
        csv_text = decay_report_csv(rep)
        assert csv_text.splitlines()[0] == "sqrt_lambda,log_hsnorm,fitted"
        doc = decay_report_json(rep)
        assert '"h_star"' in doc
