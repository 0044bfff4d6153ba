"""Plain-text file formats for datasets, states, matrices and grids.

Every file is CSV with LF line endings, '.' decimal separators, and a
single leading metadata line

    # hdtomo-csv v1 kind=<kind> key=value ...

Floats are written with repr(), which round-trips doubles exactly, so
write -> read -> write is byte-identical.  Complex matrices are stored as
separate real and imaginary files.  Reports are small JSON documents.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DataError

FORMAT_TAG = "hdtomo-csv"
FORMAT_VERSION = "v1"

SAMPLES_HEADER = "phase_index,phase_radians,block,value"


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


def _float(cell: str, path, lineno: int) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: {cell!r} is not a number") from None
    if not math.isfinite(v):
        raise DataError(f"{path}: line {lineno}: non-finite value {cell!r}")
    return v


def write_samples(path, ds, meta: dict | None = None):
    """Samples CSV: one row per measurement, gridded phases required."""
    from .reconstruct import _phase_indices

    idx = _phase_indices(ds)
    block = ds.block if ds.block is not None else np.zeros(ds.N, dtype=np.int64)
    header = dict(meta or {})
    header["n_phi"] = ds.n_phi
    header["nblks"] = ds.nblks if ds.nblks is not None else 1
    lines = [_metadata_line("samples", header), SAMPLES_HEADER]
    for j, phi, b, x in zip(idx, ds.phases, block, ds.values):
        lines.append(f"{j},{repr(float(phi))},{int(b)},{repr(float(x))}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_samples(path):
    """Read a samples CSV; returns (QuadratureDataset, metadata dict).

    The metadata counts n_phi and nblks must be at least 1, the
    phase_index column must agree with phase_radians on the grid of n_phi
    phases, and the file must hold at least one sample row.
    """
    from .reconstruct import QuadratureDataset, _phase_indices

    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise DataError(f"{path}: file is too short to be a samples CSV")
    meta = _parse_metadata(lines[0], path, "samples")
    if lines[1] != SAMPLES_HEADER:
        raise DataError(
            f"{path}: line 2: expected column header {SAMPLES_HEADER!r}"
        )
    n_phi = _meta_int(meta, "n_phi", path)
    nblks = _meta_int(meta, "nblks", path)
    for key, count in (("n_phi", n_phi), ("nblks", nblks)):
        if count < 1:
            raise DataError(f"{path}: metadata key {key}={count} must be >= 1")
    if len(lines) == 2:
        raise DataError(f"{path}: no sample rows after the column header")
    n = len(lines) - 2
    index = np.empty(n, dtype=np.int64)
    phases = np.empty(n)
    values = np.empty(n)
    block = np.empty(n, dtype=np.int64)
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != 4:
            raise DataError(f"{path}: line {i}: expected 4 columns, got {len(cells)}")
        phases[i - 3] = _float(cells[1], path, i)
        values[i - 3] = _float(cells[3], path, i)
        try:
            index[i - 3] = int(cells[0])
        except ValueError:
            raise DataError(
                f"{path}: line {i}: phase_index {cells[0]!r} is not an integer"
            ) from None
        try:
            block[i - 3] = int(cells[2])
        except ValueError:
            raise DataError(f"{path}: line {i}: block {cells[2]!r} is not an integer") from None
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
    lines = [_metadata_line("state", header), "n,re,im"]
    for n, c in enumerate(state.c):
        lines.append(f"{n},{repr(float(c.real))},{repr(float(c.imag))}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_state(path):
    """Read a state CSV; returns (FockVector, metadata dict).  Each index
    0..M-1 must appear exactly once."""
    from .simulate import FockVector

    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise DataError(f"{path}: file is too short to be a state CSV")
    meta = _parse_metadata(lines[0], path, "state")
    if lines[1] != "n,re,im":
        raise DataError(f"{path}: line 2: expected column header 'n,re,im'")
    M = _meta_int(meta, "M", path)
    if len(lines) - 2 != M:
        raise DataError(f"{path}: expected {M} coefficient rows, found {len(lines) - 2}")
    c = np.zeros(M, dtype=np.complex128)
    seen = {}
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != 3:
            raise DataError(f"{path}: line {i}: expected 3 columns, got {len(cells)}")
        try:
            n = int(cells[0])
        except ValueError:
            raise DataError(f"{path}: line {i}: index {cells[0]!r} is not an integer") from None
        if not 0 <= n < M:
            raise DataError(f"{path}: line {i}: index {n} outside 0..{M - 1}")
        if n in seen:
            raise DataError(f"{path}: line {i}: index {n} repeats line {seen[n]}")
        seen[n] = i
        c[n] = _float(cells[1], path, i) + 1j * _float(cells[2], path, i)
    deficit = float(meta.get("deficit", 0.0))
    return FockVector(M=M, c=c, deficit=deficit), meta


def write_matrix(path, matrix, meta: dict | None = None):
    """Real M x M matrix CSV, one row per line."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    header = dict(meta or {})
    header["M"] = matrix.shape[0]
    lines = [_metadata_line("matrix", header)]
    for row in matrix:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path):
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    meta = _parse_metadata(lines[0], path, "matrix")
    M = _meta_int(meta, "M", path)
    if len(lines) - 1 != M:
        raise DataError(f"{path}: expected {M} rows, found {len(lines) - 1}")
    out = np.empty((M, M))
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != M:
            raise DataError(f"{path}: line {i}: expected {M} columns, got {len(cells)}")
        out[i - 2] = [_float(c, path, i) for c in cells]
    return out, meta


def write_wigner(path, r, theta, W, meta: dict | None = None):
    """Wigner grid CSV: header row of theta values, first column r values."""
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (r.size, theta.size):
        raise ValueError(f"W has shape {W.shape}, expected {(r.size, theta.size)}")
    lines = [_metadata_line("wigner", dict(meta or {}))]
    lines.append("r," + ",".join(repr(float(t)) for t in theta))
    for ri, row in zip(r, W):
        lines.append(repr(float(ri)) + "," + ",".join(repr(float(v)) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_wigner(path):
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise DataError(f"{path}: file is too short to be a Wigner CSV")
    meta = _parse_metadata(lines[0], path, "wigner")
    head = lines[1].split(",")
    if head[0] != "r":
        raise DataError(f"{path}: line 2 must start with the corner label 'r'")
    theta = np.array([_float(c, path, 2) for c in head[1:]])
    nr = len(lines) - 2
    r = np.empty(nr)
    W = np.empty((nr, theta.size))
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != theta.size + 1:
            raise DataError(
                f"{path}: line {i}: expected {theta.size + 1} columns, got {len(cells)}"
            )
        r[i - 3] = _float(cells[0], path, i)
        W[i - 3] = [_float(c, path, i) for c in cells[1:]]
    return r, theta, W, meta


def write_report(path, report: dict):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def read_report(path) -> dict:
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON report: {exc}") from None
