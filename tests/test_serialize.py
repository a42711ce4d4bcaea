import json

import numpy as np
import pytest

from liefact.errors import ParameterError
from liefact.fourier import FourierCoefficients, forward
from liefact.groups import haar_quadrature
from liefact.serialize import (
    coefficients_from_json,
    coefficients_to_json,
    decay_table_csv,
    gridfunction_from_csv,
    gridfunction_to_csv,
)
from liefact.signals import poisson_coefficients, random_bandlimited


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
