"""Plain-text file formats for datasets, states, matrices and grids.

Every file is CSV with LF line endings, '.' decimal separators, and a
single leading metadata line

    # hdtomo-csv v1 kind=<kind> key=value ...

Floats are written with repr(), which round-trips doubles exactly, so
write -> read -> write is byte-identical.  One writer (_write_table) and
one reader (_read_lines, _parse_rows) serve the four CSV kinds; after the
metadata line, blank lines and lines starting with '#' are rows, and so
rejected.  Complex matrices are stored as separate real and imaginary
files.  Reports are small JSON documents.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .errors import DataError

FORMAT_TAG = "hdtomo-csv"
FORMAT_VERSION = "v1"

SAMPLES_HEADER = "phase_index,phase_radians,block,value"

_CHUNK_CELLS = 1 << 16


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if any(ch.isspace() or ch == "," for ch in s):
        raise ValueError(f"metadata value {s!r} may not contain spaces or commas")
    return s


def _metadata_line(kind: str, meta: dict) -> str:
    parts = [f"# {FORMAT_TAG} {FORMAT_VERSION}", f"kind={kind}"]
    for key in sorted(meta):
        parts.append(f"{key}={_fmt(meta[key])}")
    return " ".join(parts)


def _parse_metadata(line: str, path, kind: str) -> dict:
    tokens = line.strip().split()
    if tokens[:3] != ["#", FORMAT_TAG, FORMAT_VERSION]:
        raise DataError(
            f"{path}: line 1 is not a '{FORMAT_TAG} {FORMAT_VERSION}' metadata line"
        )
    meta = {}
    for tok in tokens[3:]:
        if "=" not in tok:
            raise DataError(f"{path}: malformed metadata token {tok!r}")
        key, val = tok.split("=", 1)
        meta[key] = val
    if meta.get("kind") != kind:
        raise DataError(
            f"{path}: expected kind={kind}, found kind={meta.get('kind')!r}"
        )
    meta.pop("kind")
    return meta


def _meta_int(meta: dict, key: str, path) -> int:
    try:
        return int(meta[key])
    except KeyError:
        raise DataError(f"{path}: metadata is missing required key {key!r}") from None
    except ValueError:
        raise DataError(f"{path}: metadata key {key}={meta[key]!r} is not an integer") from None


def _cell(cell: str, path, lineno: int, name):
    """Check one cell as Python reads it: a finite float, or an integer
    when name, the column's name in messages, is given."""
    try:
        v = float(cell) if name is None else int(cell)
    except ValueError:
        what = f"{cell!r} is not a number" if name is None else (
            f"{name} {cell!r} is not an integer")
        raise DataError(f"{path}: line {lineno}: {what}") from None
    if name is None and not math.isfinite(v):
        raise DataError(f"{path}: line {lineno}: non-finite value {cell!r}")


def _write_table(path, kind, meta, header, columns):
    """Write the metadata line, the column header unless None, and a row
    per index of the equal-length columns: repr() of their .tolist()
    entries, in chunks of about 65k cells."""
    lines = [_metadata_line(kind, meta)] + ([] if header is None else [header])
    step = max(1, _CHUNK_CELLS // max(1, len(columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
        for a in range(0, len(columns[0]) if columns else 0, step):
            cells = [map(repr, col[a:a + step].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _read_lines(path, kind, header):
    """(metadata, column header line, row lines) of a CSV of this kind.
    header is the exact column header, None for a file without one
    (matrix), or for a Wigner file 'r', the corner label before its thetas."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if header is None and not lines:
        raise DataError(f"{path}: empty file")
    if header is not None and len(lines) < 2:
        name = "Wigner" if kind == "wigner" else kind
        raise DataError(f"{path}: file is too short to be a {name} CSV")
    meta = _parse_metadata(lines[0], path, kind)
    if header is None:
        return meta, None, lines[1:]
    if kind == "wigner" and lines[1].split(",", 1)[0] != header:
        raise DataError(f"{path}: line 2 must start with the corner label {header!r}")
    if kind != "wigner" and lines[1] != header:
        raise DataError(f"{path}: line 2: expected column header {header!r}")
    return meta, lines[1], lines[2:]


def _parse_rows(path, lines, first_line, ncols, ints):
    """Parse row lines of ncols cells, numbered from first_line in messages.

    ints maps the integer columns to their names.  Without them the result
    is an (n, ncols) float64 array, with them the list of the columns.  One
    loadtxt pass reads all rows; if it fails, a walk names the first bad line.
    """
    dtype = np.dtype([(f"f{k}", np.int64 if k in ints else np.float64)
                      for k in range(ncols)] if ints else np.float64)
    reason = "rows do not parse"
    try:
        # a warning fails the pass too: an older numpy may read 1.7 as int 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = (np.loadtxt(lines, dtype=dtype, comments=None, delimiter=",",
                                ndmin=1 if ints else 2)
                     if lines else np.empty((0,) if ints else (0, ncols), dtype))
    except (ValueError, Warning) as exc:
        reason = str(exc)
    else:
        columns = [table[f] for f in dtype.names] if ints else list(table.T)
        if len(table) == len(lines) and len(columns) == ncols and all(
                np.isfinite(c).all() for c in columns):
            return [np.ascontiguousarray(c) for c in columns] if ints else table
    for i, line in enumerate(lines, start=first_line):
        cells = line.split(",")
        if len(cells) != ncols:
            raise DataError(f"{path}: line {i}: expected {ncols} columns, got {len(cells)}")
        for k, cell in enumerate(cells):
            _cell(cell, path, i, ints.get(k))
    # a cell that Python reads and numpy does not, such as 1_0
    raise DataError(f"{path}: {reason}")


def write_samples(path, ds, meta: dict | None = None):
    """Samples CSV: one row per measurement, gridded phases required."""
    from .reconstruct import _phase_indices

    idx = _phase_indices(ds)
    block = ds.block if ds.block is not None else np.zeros(ds.N, dtype=np.int64)
    header = dict(meta or {})
    header["n_phi"] = ds.n_phi
    header["nblks"] = ds.nblks if ds.nblks is not None else 1
    _write_table(path, "samples", header, SAMPLES_HEADER,
                 [idx, ds.phases, block.astype(np.int64, copy=False), ds.values])


def read_samples(path):
    """Read a samples CSV; returns (QuadratureDataset, metadata dict).

    The metadata counts n_phi and nblks must be at least 1, the
    phase_index column must agree with phase_radians on the grid of n_phi
    phases, and the file must hold at least one sample row.
    """
    from .reconstruct import QuadratureDataset, _phase_indices

    meta, _, rows = _read_lines(path, "samples", SAMPLES_HEADER)
    n_phi = _meta_int(meta, "n_phi", path)
    nblks = _meta_int(meta, "nblks", path)
    for key, count in (("n_phi", n_phi), ("nblks", nblks)):
        if count < 1:
            raise DataError(f"{path}: metadata key {key}={count} must be >= 1")
    if not rows:
        raise DataError(f"{path}: no sample rows after the column header")
    index, phases, block, values = _parse_rows(path, rows, 3, 4, {0: "phase_index", 2: "block"})
    ds = QuadratureDataset(
        phases=phases, values=values, n_phi=n_phi,
        block=block if nblks > 1 else None,
        nblks=nblks if nblks > 1 else None,
    )
    try:
        expected = _phase_indices(ds)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    bad = np.flatnonzero(index != expected)
    if bad.size:
        k = int(bad[0])
        raise DataError(
            f"{path}: line {k + 3}: phase_index {index[k]} does not match "
            f"phase_radians {float(phases[k])!r}, which is grid index {expected[k]} "
            f"of n_phi={n_phi}"
        )
    return ds, meta


def write_state(path, state, meta: dict | None = None):
    """Fock coefficient CSV with columns n, re, im."""
    header = dict(meta or {})
    header["M"] = state.M
    header["deficit"] = float(state.deficit)
    c = state.c
    _write_table(path, "state", header, "n,re,im", [np.arange(c.size), c.real, c.imag])


def read_state(path):
    """Read a state CSV; returns (FockVector, metadata dict).  Each index
    0..M-1 must appear exactly once."""
    from .simulate import FockVector

    meta, _, rows = _read_lines(path, "state", "n,re,im")
    M = _meta_int(meta, "M", path)
    if len(rows) != M:
        raise DataError(f"{path}: expected {M} coefficient rows, found {len(rows)}")
    n, re, im = _parse_rows(path, rows, 3, 3, {0: "index"})
    repeat = np.ones(M, dtype=bool)
    repeat[np.unique(n, return_index=True)[1]] = False
    bad = np.flatnonzero(repeat | (n < 0) | (n >= M))
    if bad.size:
        k = int(bad[0])
        if not 0 <= n[k] < M:
            raise DataError(f"{path}: line {k + 3}: index {n[k]} outside 0..{M - 1}")
        first = int(np.argmax(n == n[k]))
        raise DataError(f"{path}: line {k + 3}: index {n[k]} repeats line {first + 3}")
    c = np.zeros(M, dtype=np.complex128)
    c.real[n] = re
    c.imag[n] = im
    deficit = float(meta.get("deficit", 0.0))
    return FockVector(M=M, c=c, deficit=deficit), meta


def write_matrix(path, matrix, meta: dict | None = None):
    """Real M x M matrix CSV, one row per line."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    header = dict(meta or {})
    header["M"] = matrix.shape[0]
    _write_table(path, "matrix", header, None, list(matrix.T))


def read_matrix(path):
    meta, _, rows = _read_lines(path, "matrix", None)
    M = _meta_int(meta, "M", path)
    if len(rows) != M:
        raise DataError(f"{path}: expected {M} rows, found {len(rows)}")
    return _parse_rows(path, rows, 2, M, {}), meta


def write_wigner(path, r, theta, W, meta: dict | None = None):
    """Wigner grid CSV: header row of theta values, first column r values."""
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (r.size, theta.size):
        raise ValueError(f"W has shape {W.shape}, expected {(r.size, theta.size)}")
    header = ",".join(["r", *map(repr, theta.tolist())])
    _write_table(path, "wigner", dict(meta or {}), header, [r, *W.T])


def read_wigner(path):
    meta, head, rows = _read_lines(path, "wigner", "r")
    _, comma, cells = head.partition(",")
    theta = _parse_rows(path, [cells], 2, cells.count(",") + 1, {})[0] if comma else np.empty(0)
    table = _parse_rows(path, rows, 3, theta.size + 1, {})
    return table[:, 0], theta, table[:, 1:], meta


def write_report(path, report: dict):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def read_report(path) -> dict:
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON report: {exc}") from None
