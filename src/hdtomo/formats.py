"""Plain-text file formats for datasets, states, matrices and grids.

Every file is CSV with LF line endings, '.' decimal separators, and a
single leading metadata line

    # hdtomo-csv v1 kind=<kind> key=value ...

Floats are written with repr(), which round-trips doubles exactly, so
write -> read -> write is byte-identical.  One writer (_write_table) and
one reader (_read_lines, _parse_rows) serve the four CSV kinds; after the
metadata line, blank lines and lines starting with '#' are rows, and so
rejected.  read_samples parses a file of printable ASCII and LF line ends
straight from the file, without holding its text or a list of its lines,
and walks the lines only to name a bad one.  The samples files carry the
phase grid index of each row.  write_samples writes the dataset's
phase_index, and the phase column of a dataset that derives its phases
is derived a chunk of rows at a time.  read_samples hands the file's
index column to the dataset it returns, in place of the phases, when the
phase column is the grid phase of its index bit for bit, as write_samples
writes every gridded dataset: that dataset derives its phases and is never
walked.  Any other phase column is kept as explicit phases, and the index
column is checked against the phase_index walked from them.  The block
labels come back in uint16, as simulate.sample makes them, or wider where
nblks - 1 needs it.  Complex matrices are stored as separate real and
imaginary files.  Reports are small JSON documents.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .errors import DataError

FORMAT_TAG = "hdtomo-csv"
FORMAT_VERSION = "v1"

SAMPLES_HEADER = "phase_index,phase_radians,block,value"

_CHUNK_CELLS = 1 << 16
# read_samples: bytes scanned at a time, and the bytes of a plain file
_READ_BYTES = 1 << 20
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n"


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


def _meta_count(meta: dict, key: str, path) -> int:
    """A metadata count, which must be at least 1."""
    count = _meta_int(meta, key, path)
    if count < 1:
        raise DataError(f"{path}: metadata key {key}={count} must be >= 1")
    return count


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


def _cell_rows(columns):
    """Row strings of a chunk: repr() of the columns' .tolist() entries."""
    return map(",".join, zip(*(map(repr, col.tolist()) for col in columns)))


def _write_table(path, kind, meta, header, columns, rows=_cell_rows):
    """Write the metadata line, the column header unless None, and a row
    per index of the equal-length columns, in chunks of about 65k cells;
    rows maps a chunk's columns to its row strings."""
    lines = [_metadata_line(kind, meta)] + ([] if header is None else [header])
    step = max(1, _CHUNK_CELLS // max(1, len(columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
        for a in range(0, len(columns[0]) if columns else 0, step):
            fh.write("\n".join(rows([col[a:a + step] for col in columns])) + "\n")


def _sample_rows(columns, n_phi=None):
    """Row strings of a samples chunk, as _cell_rows gives them.  Phase
    index, phase and block take few distinct values, so their text is made
    once per distinct (phase, block) pair of the chunk; the phase's bits
    fix its index, and keep -0.0 apart from 0.0.  Where n_phi is given, the
    phase column holds the phase index, and the chunk's phases are derived
    from it as the dataset derives them."""
    index, phases, block, values = columns
    if n_phi is not None:
        from .reconstruct import _grid_phases

        phases = _grid_phases(phases, n_phi)
    block = block.astype(np.int64, copy=False)
    _, phase_key = np.unique(phases.view(np.int64), return_inverse=True)
    _, first, key = np.unique(phase_key * (int(block.max()) + 1) + block,
                              return_index=True, return_inverse=True)
    lead = np.array([f"{j!r},{phi!r},{b!r}," for j, phi, b in zip(
        index[first].tolist(), phases[first].tolist(), block[first].tolist())], dtype=object)
    return map(str.__add__, lead[key].tolist(), map(repr, values.tolist()))


def _plain_line_count(path):
    """The number of lines of a file that holds only printable ASCII and
    LF line ends, as str.splitlines counts them; None if any other byte
    (a CR, a tab, a form feed, non-ASCII text) is in it."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_READ_BYTES):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            count += chunk.count(b"\n")
            last = chunk[-1:]
    return count + (last != b"\n")


def _check_head(path, kind, header, lines, count):
    """(metadata, column header line) of a CSV of this kind from its first
    lines, of count lines in all.  header is the exact column header,
    None for a file without one (matrix), or for a Wigner file 'r', the
    corner label before its thetas."""
    if header is None and not count:
        raise DataError(f"{path}: empty file")
    if header is not None and count < 2:
        name = "Wigner" if kind == "wigner" else kind
        raise DataError(f"{path}: file is too short to be a {name} CSV")
    meta = _parse_metadata(lines[0], path, kind)
    if header is None:
        return meta, None
    if kind == "wigner" and lines[1].split(",", 1)[0] != header:
        raise DataError(f"{path}: line 2 must start with the corner label {header!r}")
    if kind != "wigner" and lines[1] != header:
        raise DataError(f"{path}: line 2: expected column header {header!r}")
    return meta, lines[1]


def _read_lines(path, kind, header):
    """(metadata, column header line, row lines) of a CSV of this kind,
    with header as _check_head takes it."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    meta, head = _check_head(path, kind, header, lines[:2], len(lines))
    return meta, head, lines[1 if header is None else 2:]


@functools.cache
def _loadtxt_rejects_fractions() -> bool:
    """Whether this numpy's loadtxt raises on '1.5' read as an int64, as
    numpy 2 does; an older one may read it as 1 with a warning."""
    try:
        np.loadtxt(["1.5"], dtype=np.int64)
    except ValueError:
        return True
    except Warning:  # that warning, made an error by a filter
        pass
    return False


def _parse_rows(path, rows, first_line, ncols, ints, count=None):
    """Parse row lines of ncols cells, numbered from first_line in messages.

    rows is the list of row lines, or a text file open at its first row
    line, whose count rows numpy reads line by line.  ints maps the
    integer columns to their names.  Without them the result is an
    (n, ncols) float64 array, with them the list of the columns.  One
    loadtxt pass reads all rows, its integer columns through Python's int
    where numpy itself would accept a fraction; if it fails, a walk of the
    lines names the first bad one.
    """
    count = len(rows) if count is None else count
    dtype = np.dtype([(f"f{k}", np.int64 if k in ints else np.float64)
                      for k in range(ncols)] if ints else np.float64)
    # Python's int rejects 1.7 where an older numpy would read it as 1
    converters = None if _loadtxt_rejects_fractions() else dict.fromkeys(ints, int)
    reason = "rows do not parse"
    try:
        table = (np.loadtxt(rows, dtype=dtype, comments=None, delimiter=",",
                            converters=converters, ndmin=1 if ints else 2)
                 if count else np.empty((0,) if ints else (0, ncols), dtype))
    except (ValueError, OverflowError) as exc:
        reason = str(exc)
    else:
        columns = [table[f] for f in dtype.names] if ints else list(table.T)
        if len(table) == count and len(columns) == ncols and all(
                np.isfinite(c).all() for c in columns):
            return [np.ascontiguousarray(c) for c in columns] if ints else table
    if not isinstance(rows, list):
        rows.seek(0)
        rows = rows.read().splitlines()[first_line - 1:]
    for i, line in enumerate(rows, start=first_line):
        cells = line.split(",")
        if len(cells) != ncols:
            raise DataError(f"{path}: line {i}: expected {ncols} columns, got {len(cells)}")
        for k, cell in enumerate(cells):
            _cell(cell, path, i, ints.get(k))
    # a cell that Python reads and numpy does not, such as 1_0
    raise DataError(f"{path}: {reason}")


def write_samples(path, ds, meta: dict | None = None):
    """Samples CSV: one row per measurement, gridded phases required; the
    phase_index column is ds.phase_index.  Derived phases are derived a
    chunk at a time, never for the whole dataset."""
    header = dict(meta or {})
    header["n_phi"] = ds.n_phi
    header["nblks"] = ds.nblks
    # a derived phase column goes as the index, mapped chunk by chunk
    derived = ds.phases_derived
    phases = ds.phase_index if derived else ds.phases
    _write_table(path, "samples", header, SAMPLES_HEADER,
                 [ds.phase_index, phases, ds.block, ds.values],
                 rows=functools.partial(_sample_rows, n_phi=ds.n_phi if derived else None))


def read_samples(path):
    """Read a samples CSV; returns (QuadratureDataset, metadata dict).

    The metadata counts n_phi and nblks must be at least 1, the
    phase_index column must agree with phase_radians on the grid of n_phi
    phases, every block label (kept also for nblks=1) must lie in
    0..nblks-1, and the file must hold at least one sample row.

    When every phase is phase_grid(n_phi)[phase_index] bit for bit, checked
    a chunk at a time, the dataset takes the index column in place of the
    phases and derives them.  Otherwise it keeps the phases, and its
    phase_index is made by the check against the column.  Labels in
    0..nblks-1 are kept in uint16, or wider where nblks - 1 needs it.
    """
    from .reconstruct import QuadratureDataset, _on_grid

    count = _plain_line_count(path)
    with open(path, "r", newline="") as fh:
        if count is None:  # other bytes: the rows as str.splitlines cuts them
            meta, _, rows = _read_lines(path, "samples", SAMPLES_HEADER)
            count = len(rows) + 2
        else:  # the rows straight from the file
            head = [fh.readline().rstrip("\n") for _ in range(min(count, 2))]
            meta, _ = _check_head(path, "samples", SAMPLES_HEADER, head, count)
            rows = fh
        n_phi = _meta_count(meta, "n_phi", path)
        nblks = _meta_count(meta, "nblks", path)
        if count == 2:
            raise DataError(f"{path}: no sample rows after the column header")
        index, phases, block, values = _parse_rows(
            path, rows, 3, 4, {0: "phase_index", 2: "block"}, count - 2)
    if 0 <= block.min() and block.max() < nblks:  # else the dataset's check names them
        block = block.astype(np.promote_types(np.uint16, np.min_scalar_type(nblks - 1)))
    if _on_grid(index, phases, n_phi):
        return QuadratureDataset(None, values, n_phi, block, nblks, phase_index=index), meta
    ds = QuadratureDataset(phases=phases, values=values, n_phi=n_phi,
                           block=block, nblks=nblks)
    try:
        expected = ds.phase_index
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
    """Fock coefficient CSV with columns n, re, im; the state's deficit must
    lie in [0, 1], as read_state requires."""
    header = dict(meta or {})
    header["M"] = state.M
    header["deficit"] = float(state.deficit)
    if not 0.0 <= header["deficit"] <= 1.0:
        raise ValueError(f"state deficit must be a number in [0, 1], got {state.deficit}")
    c = state.c
    _write_table(path, "state", header, "n,re,im", [np.arange(c.size), c.real, c.imag])


def read_state(path):
    """Read a state CSV; returns (FockVector, metadata dict).  M must be at
    least 1, and each index 0..M-1 must appear exactly once."""
    from .simulate import FockVector

    meta, _, rows = _read_lines(path, "state", "n,re,im")
    M = _meta_count(meta, "M", path)
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
    text = meta.get("deficit", "0.0")
    try:
        deficit = float(text)
    except ValueError:
        deficit = math.nan
    if not 0.0 <= deficit <= 1.0:
        raise DataError(f"{path}: metadata key deficit={text!r} is not a number in [0, 1]")
    return FockVector(M=M, c=c, deficit=deficit), meta


def write_matrix(path, matrix, meta: dict | None = None):
    """Real M x M matrix CSV, one row per line, with M >= 1 as read_matrix
    requires."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
        raise ValueError(f"expected a non-empty square matrix, got shape {matrix.shape}")
    header = dict(meta or {})
    header["M"] = matrix.shape[0]
    _write_table(path, "matrix", header, None, list(matrix.T))


def read_matrix(path):
    meta, _, rows = _read_lines(path, "matrix", None)
    M = _meta_count(meta, "M", path)
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
