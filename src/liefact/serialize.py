"""Wire formats: coefficient JSON, grid-function CSV, report CSV/JSON.

Coefficient JSON schema:

    {"group": "t1" | "t2" | "su2", "bandlimit": L, "value_dim": m,
     "entries": [{"xi": label, "re": [...], "im": [...]}, ...]}

where L, m >= 1 and the label are JSON integers (the label a list of d of
them on T^d, the integer 2l on SU(2); no floats or booleans), every entry
has all three keys, and re/im are nested (m, d, d) lists of finite JSON
numbers (no strings, booleans or null), each label at most once, and the
slot count m * sum d^2 is at most MAX_COEFFICIENT_SLOTS; the reader raises
ParameterError otherwise.  The text is exactly what
``json.dumps(doc, sort_keys=True)`` gives, with entries in the layout's wire
order, but it is written block by block: one encoder call spells every
number of a block and a %s template per block nests them.  The reader calls
``json.loads`` once, checks labels, shapes and leaf types a whole level at a
time, finds positions by arithmetic (``DualLayout.index``) and fills each
block's re and im from one array; only after one of those checks fails does
it walk the entries, to name the first faulty one.  A label the file omits
reads as zero.

Grid-function CSV: one header line, then node coordinates followed by
interleaved re/im columns per value slot.  Every CSV writer is one call of
``_csv(header, *columns)``, which spells each value with repr, so identical
data serializes byte-identically.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from operator import itemgetter
from typing import NoReturn

import numpy as np

from .classify import DecayReport
from .errors import ParameterError
from .fourier import FourierCoefficients, GridFunction
from .groups import QuadratureGrid, Torus, parse_group_spec
from .spectral import SeminormReport


_ENCODE = json.JSONEncoder().encode  # json.dumps's C encoder: its float and int spelling


def _texts(a: np.ndarray) -> list[str]:
    """The JSON text of each number of ``a`` in C order, from one encoder call."""
    return _ENCODE(a.ravel().tolist())[1:-1].split(", ") if a.size else []


def _nesting(shape) -> str:
    """A %s template of the nested JSON lists of an array of ``shape``."""
    t = "%s"
    for n in reversed(shape):
        t = "[" + ", ".join([t] * n) + "]"
    return t


def coefficients_to_json(T: FourierCoefficients) -> str:
    """The JSON text ``json.dumps(doc, sort_keys=True)`` gives, written per block."""
    layout = T.layout
    label_nest, label_size = _nesting(layout.labels.shape[1:]), layout.labels[0].size
    entries = np.empty(len(layout.labels), dtype=object)
    for idx, b in zip(layout.members, T.blocks):
        nest = _nesting(b.shape[1:])
        template = '{"im": ' + nest + ', "re": ' + nest + ', "xi": ' + label_nest + "}"
        values = iter(_texts(np.stack([b.imag, b.real], axis=1)))  # per entry: im, then re
        labels = iter(_texts(layout.labels[idx]))
        entries[idx] = list(map(template.__mod__,
                                zip(*[values] * (2 * b[0].size), *[labels] * label_size)))
    return '{"bandlimit": %d, "entries": [%s], "group": %s, "value_dim": %d}' % (
        T.bandlimit, ", ".join(entries[layout.wire].tolist()), _ENCODE(T.group.spec_string()),
        T.value_dim)


_KEYS = {"group", "bandlimit", "value_dim", "entries"}
# m * sum d^2 a file may declare: 64 MB of zeros, 167x SU(2) L=16 at m=2 (25,058)
MAX_COEFFICIENT_SLOTS = 1 << 22
_NON_FINITE = "coefficient JSON holds a non-finite value (nan or inf)"


def _leaves(rows: list, shape: tuple, types: set) -> list:
    """The leaves of ``rows``, each lists nested to ``shape``, in one flat list.

    Checked a whole level at a time with C-level passes (no per-leaf Python):
    ValueError if a level is not lists of the right length or a leaf's type
    is not in ``types`` (so a bool is caught where ``float()`` would take it).
    """
    level = rows
    for n in shape:
        if not (set(map(type, level)) <= {list} and set(map(len, level)) <= {n}):
            raise ValueError(f"must have shape {shape}")
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= types:
        raise ValueError("holds a value that is not a number")
    return level


def _raise_first_fault(layout, m: int, entries) -> NoReturn:
    """Raise ParameterError naming the first faulty entry in file order: the
    slow path, taken only once a vectorized check failed.  Each label is
    checked as the fast path checks the batch: its leaves, then ``index``."""
    label_shape, seen = layout.labels.shape[1:], set()
    for item in entries:
        label = item["xi"]
        try:
            _leaves([label], label_shape, {int})
        except ValueError:  # exact ints only: bool and float are not labels
            raise ParameterError(f"label {label!r} is not " + (
                f"a list of {label_shape[0]} integers" if label_shape else "an integer")) from None
        label = tuple(label) if label_shape else label  # as DualIndex holds it
        i = layout.index([label])[0]
        if i < 0:
            raise ParameterError(f"label {label!r} outside the declared band limit")
        if i in seen:
            raise ParameterError(f"label {label!r} is listed twice")
        seen.add(i)
        shape = (m, int(layout.dim[i]), int(layout.dim[i]))
        for part in (item["re"], item["im"]):
            try:
                np.array(_leaves([part], shape, {float, int}), dtype=float)
            except ValueError as exc:
                raise ParameterError(f"entry for {label!r} {exc}") from None
            except OverflowError:  # an int past the float range
                raise ParameterError(_NON_FINITE) from None
    raise ParameterError("coefficient JSON entries are malformed")


def coefficients_from_json(text: str) -> FourierCoefficients:
    """Read coefficient JSON: one ``json.loads``, then one array per block part."""
    doc = json.loads(text)
    if type(doc) is not dict or not _KEYS <= doc.keys():
        raise ParameterError(f"coefficient JSON must be an object with keys {sorted(_KEYS)}")
    group, bandlimit, m = parse_group_spec(doc["group"]), doc["bandlimit"], doc["value_dim"]
    if type(bandlimit) is not int or type(m) is not int:
        raise ParameterError("bandlimit and value_dim must be JSON integers")
    if bandlimit < 1 or m < 1:
        raise ParameterError(f"bandlimit and value_dim must be >= 1, got {bandlimit} and {m}")
    n = 2 * bandlimit + 1  # the slot count by arithmetic, before any array is built
    slots = m * (n**group.d if isinstance(group, Torus) else n * (n + 1) * (2 * n + 1) // 6)
    if slots > MAX_COEFFICIENT_SLOTS:
        raise ParameterError(f"coefficient JSON declares {slots} slots (band limit {bandlimit}, "
                             f"value_dim {m}), above the limit {MAX_COEFFICIENT_SLOTS}")
    entries = doc["entries"]
    if type(entries) is not list or not set(map(type, entries)) <= {dict}:
        raise ParameterError("coefficient JSON entries must be a list of objects")
    try:
        xis, re, im = (list(map(itemgetter(key), entries)) for key in ("xi", "re", "im"))
    except KeyError:
        raise ParameterError("every coefficient JSON entry needs the keys im, re and xi") from None
    T = FourierCoefficients.zeros(group, bandlimit, m)
    layout, label_shape = T.layout, T.layout.labels.shape[1:]
    try:
        labels = np.array(_leaves(xis, label_shape, {int})).reshape(len(xis), *label_shape)
        pos = layout.index(labels)  # -1 off the dual, also for ints past 64 bits
        if np.any(pos < 0) or np.bincount(pos).max(initial=0) > 1:
            raise ValueError("a label outside the dual or listed twice")
        block = layout.block[pos]
        for b, (d, out) in enumerate(zip(layout.dims, T.blocks)):
            sel = np.flatnonzero(block == b)
            slots = layout.slot[pos[sel]]
            for part, view in ((re, out.real), (im, out.imag)):
                rows = [part[k] for k in sel.tolist()]
                view[slots] = np.array(_leaves(rows, (m, d, d), {float, int}),
                                       dtype=float).reshape(len(sel), m, d, d)
    except (ValueError, OverflowError):
        _raise_first_fault(layout, m, entries)
    if not all(np.isfinite(b).all() for b in T.blocks):
        raise ParameterError(_NON_FINITE)
    return T


def _csv(header: list[str], *columns) -> str:
    """CSV text as the csv module's default dialect writes it: ``,`` between
    fields, ``\r\n`` after every row, no quoting (no number's repr needs it).
    The header row, then row i holds entry i of each column, spelled by repr."""
    rows = zip(*(map(repr, np.asarray(c).tolist()) for c in columns))
    return "".join(",".join(row) + "\r\n" for row in [header, *rows])


def gridfunction_to_csv(f: GridFunction) -> str:
    parts = np.stack([f.values.real, f.values.imag], axis=2).reshape(f.grid.size, -1)
    header = [f"x{i}" for i in range(f.grid.nodes.shape[1])]
    header += [f"{p}{v}" for v in range(f.value_dim) for p in ("re", "im")]
    return _csv(header, *f.grid.nodes.T, *parts.T)


def gridfunction_from_csv(text: str, group, grid: QuadratureGrid) -> GridFunction:
    """Parse a grid-function CSV; the nodes must match ``grid`` exactly."""
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if len(rows) < 2:
        raise ParameterError("grid CSV needs a header and at least one node row")
    cdim = grid.nodes.shape[1]
    ncols = len(rows[0])
    if (ncols - cdim) <= 0 or (ncols - cdim) % 2 != 0:
        raise ParameterError("grid CSV header must be coords plus re/im pairs")
    data = np.empty((len(rows) - 1, ncols))
    for i, r in enumerate(rows[1:]):
        if len(r) != ncols:
            raise ParameterError(f"grid CSV node row {i + 1} has {len(r)} fields, not the "
                                 f"header's column count {ncols}")
        try:
            data[i] = [float(v) for v in r]
        except ValueError:
            raise ParameterError(f"grid CSV node row {i + 1} holds a non-number") from None
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
    wire = T.layout.wire
    return _csv(["sqrt_lambda", "hsnorm"], np.sqrt(T.layout.casimir)[wire], T.hs_norms()[wire])


def decay_report_csv(report: DecayReport) -> str:
    columns = np.array([report.sqrt_lambda, report.log_hsnorm, report.fitted], dtype=float)
    return _csv(["sqrt_lambda", "log_hsnorm", "fitted"],
                *columns[:, np.argsort(report.sqrt_lambda)])


def decay_report_json(report: DecayReport) -> str:
    def spelled(v):  # JSON has no infinity
        return v if np.isfinite(v) else "inf"

    doc = {"weight": report.weight.spec_string(), "slope": report.slope,
           "intercept": report.intercept, "residual": report.residual,
           "super_omega": report.super_omega, "h_values": report.h_values.tolist(),
           "h_star": spelled(report.h_star), "h_star_low": spelled(report.h_star_low),
           "h_star_high": spelled(report.h_star_high),
           "seminorm_values": list(map(spelled, report.seminorm_values))}
    return json.dumps(doc, sort_keys=True)


def seminorm_report_csv(report: SeminormReport) -> str:
    return _csv(["j", "supnorm", "weighted_term"], np.asarray(report.js, dtype=int),
                *np.array([report.supnorms, report.weighted_terms], dtype=float))
