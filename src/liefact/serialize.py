"""Wire formats: coefficient JSON, grid-function CSV, report CSV/JSON.

Coefficient JSON schema:

    {"group": "t1" | "t2" | "su2", "bandlimit": L, "value_dim": m,
     "entries": [{"xi": label, "re": [...], "im": [...]}, ...]}

where L, m and the label are JSON integers (the label a list of d of them on
T^d, the integer 2l on SU(2); no floats or booleans) and re/im are nested
(m, d, d) lists of finite numbers, each label at most once; the reader
raises ParameterError otherwise.  Entries are written in the layout's wire
order straight from the packed blocks and read back into their block slots;
a label the file omits reads as zero.
Grid-function CSV: one header line, then node coordinates followed by
interleaved re/im columns per value slot.  All float formatting goes through
repr, so identical data serializes byte-identically.
"""

from __future__ import annotations

import csv
import json
import io

import numpy as np

from .classify import DecayReport
from .errors import ParameterError
from .fourier import FourierCoefficients, GridFunction
from .groups import QuadratureGrid, Torus, parse_group_spec
from .spectral import SeminormReport


def label_to_json(group, label):
    return list(label) if isinstance(group, Torus) else int(label)


def _label_from_json(group, obj):
    """The label of a JSON ``xi``: exact ints only (bool and float are not labels)."""
    if isinstance(group, Torus):
        if type(obj) is list and len(obj) == group.d and all(type(v) is int for v in obj):
            return tuple(obj)
        raise ParameterError(f"torus label {obj!r} is not a list of {group.d} integers")
    if type(obj) is not int:
        raise ParameterError(f"SU(2) label {obj!r} is not an integer")
    return obj


def coefficients_to_json(T: FourierCoefficients) -> str:
    layout = T.layout
    re, im = [b.real.tolist() for b in T.blocks], [b.imag.tolist() for b in T.blocks]
    entries = [{"xi": label_to_json(T.group, layout.duals[i].label),
                "re": re[layout.block[i]][layout.slot[i]],
                "im": im[layout.block[i]][layout.slot[i]]} for i in layout.wire.tolist()]
    return json.dumps({"group": T.group.spec_string(), "bandlimit": T.bandlimit,
                       "value_dim": T.value_dim, "entries": entries}, sort_keys=True)


_KEYS = {"group", "bandlimit", "value_dim", "entries"}


def coefficients_from_json(text: str) -> FourierCoefficients:
    doc = json.loads(text)
    if type(doc) is not dict or not _KEYS <= doc.keys():
        raise ParameterError(f"coefficient JSON must be an object with keys {sorted(_KEYS)}")
    group, bandlimit, m = parse_group_spec(doc["group"]), doc["bandlimit"], doc["value_dim"]
    if type(bandlimit) is not int or type(m) is not int:
        raise ParameterError("bandlimit and value_dim must be JSON integers")
    if type(doc["entries"]) is not list or not all(type(e) is dict for e in doc["entries"]):
        raise ParameterError("coefficient JSON entries must be a list of objects")
    T = FourierCoefficients.zeros(group, bandlimit, m)
    layout, seen = T.layout, set()
    for item in doc["entries"]:
        label = _label_from_json(group, item["xi"])
        i = layout.position.get(label)
        if i is None:
            raise ParameterError(f"label {label!r} outside the declared band limit")
        if i in seen:
            raise ParameterError(f"label {label!r} is listed twice")
        seen.add(i)
        shape = (m, int(layout.dim[i]), int(layout.dim[i]))
        re, im = np.asarray(item["re"], dtype=float), np.asarray(item["im"], dtype=float)
        if re.shape != shape or im.shape != shape:
            raise ParameterError(f"entry for {label!r} must have shape {shape}")
        slot = T.blocks[layout.block[i]][layout.slot[i]]
        slot.real, slot.imag = re, im
    if not all(np.isfinite(b).all() for b in T.blocks):
        raise ParameterError("coefficient JSON holds a non-finite value (nan or inf)")
    return T


def gridfunction_to_csv(f: GridFunction) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    cdim = f.grid.nodes.shape[1]
    header = [f"x{i}" for i in range(cdim)]
    for v in range(f.value_dim):
        header += [f"re{v}", f"im{v}"]
    writer.writerow(header)
    for node, row in zip(f.grid.nodes, f.values):
        out = [repr(float(c)) for c in node]
        for v in range(f.value_dim):
            out += [repr(float(row[v].real)), repr(float(row[v].imag))]
        writer.writerow(out)
    return buf.getvalue()


def gridfunction_from_csv(text: str, group, grid: QuadratureGrid) -> GridFunction:
    """Parse a grid-function CSV; the nodes must match ``grid`` exactly."""
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if len(rows) < 2:
        raise ParameterError("grid CSV needs a header and at least one node row")
    header = rows[0]
    cdim = grid.nodes.shape[1]
    ncols = len(header)
    if (ncols - cdim) <= 0 or (ncols - cdim) % 2 != 0:
        raise ParameterError("grid CSV header must be coords plus re/im pairs")
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    if data.shape[1] != ncols:
        raise ParameterError("every grid CSV row must have the header's column count")
    if not np.all(np.isfinite(data)):
        raise ParameterError("grid CSV holds a non-finite value (nan or inf)")
    if data.shape[0] != grid.size:
        raise ParameterError(
            f"node count {data.shape[0]} does not match the grid ({grid.size})"
        )
    if not np.allclose(data[:, :cdim], grid.nodes, atol=1e-9):
        raise ParameterError("node coordinates do not match the quadrature grid")
    values = data[:, cdim::2] + 1j * data[:, cdim + 1::2]
    return GridFunction(group, grid, values)


def decay_table_csv(T: FourierCoefficients) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sqrt_lambda", "hsnorm"])
    wire = T.layout.wire
    for lam, norm in zip(np.sqrt(T.layout.casimir)[wire].tolist(), T.hs_norms()[wire].tolist()):
        writer.writerow([repr(lam), repr(norm)])
    return buf.getvalue()


def decay_report_csv(report: DecayReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sqrt_lambda", "log_hsnorm", "fitted"])
    order = np.argsort(report.sqrt_lambda)
    for i in order:
        writer.writerow(
            [repr(float(report.sqrt_lambda[i])), repr(float(report.log_hsnorm[i])),
             repr(float(report.fitted[i]))]
        )
    return buf.getvalue()


def decay_report_json(report: DecayReport) -> str:
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


def seminorm_report_csv(report: SeminormReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "supnorm", "weighted_term"])
    for j, sup, term in zip(report.js, report.supnorms, report.weighted_terms):
        writer.writerow([int(j), repr(float(sup)), repr(float(term))])
    return buf.getvalue()
