"""File-format round trips and command-line pipeline tests."""

import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import hdtomo
import oracles
from hdtomo import cli, formats, reconstruct
from hdtomo.errors import DataError
from hdtomo.patterns import PatternConfig, choose_beta
from hdtomo.reconstruct import QuadratureDataset
from hdtomo.simulate import (
    FockVector,
    SimulationPlan,
    draw,
    make_state,
)
from hdtomo.wigner import DiagonalDensityMatrix


def _small_dataset(seed=0, n_phi=4, nsamples=25, nblks=1, M=4):
    plan = SimulationPlan(nsamples=nsamples, nblks=nblks, n_phi=n_phi, seed=seed,
                          grid_points=1024)
    return draw(make_state("coherent", 0.0, M), plan)


def _run(*argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# package


def test_lazy_exports_resolve():
    for name in hdtomo._EXPORTS:
        assert getattr(hdtomo, name) is not None, name


def test_core_modules_import_no_scipy():
    # scipy.special is imported inside the two functions that use it; the
    # Wigner synthesis and its Cartesian resample need no scipy at all
    code = ("import sys\n"
            "import hdtomo.simulate, hdtomo.reconstruct, hdtomo.patterns, "
            "hdtomo.wigner, hdtomo.formats\n"
            "from hdtomo.wigner import DiagonalDensityMatrix as D, polar_grid\n"
            "g = hdtomo.wigner.wigner_polar(D.from_matrix([[0.5, 0.5], [0.5, 0.5]]), "
            "*polar_grid(2, n_r=9, n_theta=8))\n"
            "hdtomo.wigner.cartesian_resample(g, n=11)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(hdtomo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# round trips


def test_samples_roundtrip_byte_identical(tmp_path):
    # one block too: its labels come back as read, not dropped
    for nblks in (2, 1):
        ds = _small_dataset(seed=3, nblks=nblks)
        p1 = tmp_path / f"a{nblks}.csv"
        p2 = tmp_path / f"b{nblks}.csv"
        formats.write_samples(p1, ds, meta={"state": "vacuum", "seed": 3})
        back, meta = formats.read_samples(p1)
        # the file's index column comes back in place of the phases
        assert ds.phases_derived and back.phases_derived
        assert back.block.dtype == np.uint16
        assert back.N == ds.N
        assert np.array_equal(back.phases, ds.phases)
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.block, ds.block)
        assert back.nblks == nblks
        assert meta["state"] == "vacuum"
        formats.write_samples(p2, back, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()


def test_read_samples_streams_a_plain_file(tmp_path):
    # the rows of a plain file go from the file to the table: the read holds
    # the 32-byte table rows and their column copies, not the text and a
    # list of its lines (which took about 5 times the table)
    n_phi, n = 100, 100_000
    j = np.arange(n) % n_phi
    ds = QuadratureDataset(2.0 * math.pi * j / n_phi,
                           np.random.default_rng(2).normal(size=n), n_phi=n_phi)
    p = tmp_path / "s.csv"
    formats.write_samples(p, ds)
    tracemalloc.start()
    try:
        back, _ = formats.read_samples(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, ds.values) and np.array_equal(back.phases, ds.phases)
    assert peak < 3 * 32 * n


def test_read_samples_holds_the_dataset_and_one_chunk(tmp_path):
    # each chunk of _READ_ROWS rows goes straight into the dataset's arrays:
    # float values, uint16 index and uint16 labels, 12 bytes per row, and
    # one chunk's table and checks (about 67 bytes per row of the chunk);
    # the whole-file parse held about 61 bytes per row of the file
    plan = SimulationPlan(nsamples=100, nblks=4, n_phi=500, seed=5, grid_points=256)
    ds = draw(make_state("coherent", 0.5, 12), plan)
    p = tmp_path / "s.csv"
    formats.write_samples(p, ds)
    tracemalloc.start()
    try:
        back, _ = formats.read_samples(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.N == 200_000 and back.phases_derived
    assert back.phase_index.dtype == back.block.dtype == np.uint16
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.phase_index, ds.phase_index)
    assert peak <= 12 * back.N + 100 * formats._READ_ROWS


@pytest.mark.parametrize("nblks", [1, 3])
def test_samples_writer_matches_cell_by_cell_writer(tmp_path, nblks):
    # phases and blocks interleaved over several write chunks; a phase one
    # ulp off its grid point and -0.0 share a phase index with the grid
    # value but keep their own text
    rng = np.random.default_rng(nblks)
    n_phi, N = 6, 40000
    grid = 2.0 * math.pi * np.arange(n_phi) / n_phi
    variants = np.concatenate([grid, np.nextafter(grid, 7.0), [-0.0]])
    ds = QuadratureDataset(phases=rng.choice(variants, N), values=rng.normal(size=N),
                           n_phi=n_phi, block=rng.integers(0, nblks, N), nblks=nblks)
    ours, cells = tmp_path / "ours.csv", tmp_path / "cells.csv"
    formats.write_samples(ours, ds, meta={"seed": 1})
    formats._write_table(cells, "samples", {"seed": 1, "n_phi": n_phi, "nblks": nblks},
                         formats.SAMPLES_HEADER,
                         [ds.phase_index, ds.phases, ds.block, ds.values])
    assert ours.read_bytes() == cells.read_bytes()
    assert b"\n0,-0.0," in ours.read_bytes()


def test_samples_writer_derives_the_phases_of_an_indexed_dataset(tmp_path):
    # 40000 rows are three write chunks; each derives its phases from the
    # index, and the file is the one the dataset's explicit copy gives
    n_phi, N = 7, 40000
    j = np.random.default_rng(5).integers(0, n_phi, N)
    ds = QuadratureDataset(None, np.random.default_rng(6).normal(size=N), n_phi,
                           np.arange(N) % 3, 3, phase_index=j)
    explicit = QuadratureDataset(ds.phases, ds.values, n_phi, ds.block, 3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    formats.write_samples(a, ds)
    formats.write_samples(b, explicit)
    assert a.read_bytes() == b.read_bytes()
    back, _ = formats.read_samples(b)
    assert back.phases_derived and np.array_equal(back.phase_index, j)


def test_read_samples_keeps_phases_that_are_not_grid_bits(tmp_path):
    # a phase one ulp off its grid point, and -0.0, keep their bits as
    # explicit phases; the index column is checked against their walk
    grid = 2.0 * math.pi * np.arange(6) / 6
    for odd in (np.nextafter(grid[4], 7.0), -0.0):
        phases = np.append(np.tile(grid, 3), odd)
        ds = QuadratureDataset(phases, np.linspace(-1.0, 1.0, phases.size), n_phi=6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        formats.write_samples(p1, ds)
        back, meta = formats.read_samples(p1)
        assert not back.phases_derived
        assert np.array_equal(back.phases.view(np.int64), phases.view(np.int64))
        assert np.array_equal(back.phase_index, ds.phase_index)
        formats.write_samples(p2, back, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("nblks, dtype", [(1, np.uint16), (3, np.uint16),
                                          (65536, np.uint16), (65537, np.uint32)])
def test_read_samples_keeps_labels_in_uint16_or_wider(tmp_path, nblks, dtype):
    N = min(nblks, 4) if nblks < 65536 else nblks
    ds = QuadratureDataset(None, np.zeros(N), 2, np.arange(N) % nblks, nblks,
                           phase_index=np.arange(N) % 2)
    formats.write_samples(tmp_path / "s.csv", ds)
    back, _ = formats.read_samples(tmp_path / "s.csv")
    assert back.block.dtype == dtype and np.array_equal(back.block, ds.block)


def test_state_roundtrip_byte_identical(tmp_path):
    state = make_state("cat", 1.5, 14)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    formats.write_state(p1, state)
    back, meta = formats.read_state(p1)
    assert back.M == 14
    assert np.array_equal(back.c, state.c)
    assert back.deficit == state.deficit
    formats.write_state(p2, back, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("index, message", [
    ("1.7", "line 4: index '1.7' is not an integer"),
    ("0", "line 4: index 0 repeats line 3"),
])
def test_read_state_rejects_bad_indices(tmp_path, index, message):
    p = tmp_path / "state.csv"
    p.write_text("# hdtomo-csv v1 kind=state M=3 deficit=0.0\nn,re,im\n"
                 f"0,0.6,0.0\n{index},0.0,0.8\n1,0.0,0.0\n")
    with pytest.raises(DataError, match=re.escape(message)):
        formats.read_state(p)


@pytest.mark.parametrize("deficit", ["abc", "nan", "-3", "inf", "1.5"])
def test_read_state_checks_deficit(tmp_path, deficit):
    p = tmp_path / "state.csv"
    p.write_text(f"# hdtomo-csv v1 kind=state M=2 deficit={deficit}\nn,re,im\n"
                 "0,0.6,0.0\n1,0.0,0.8\n")
    message = f"{p}: metadata key deficit='{deficit}' is not a number in [0, 1]"
    with pytest.raises(DataError, match=re.escape(message)):
        formats.read_state(p)


def test_read_state_rejects_empty_state(tmp_path):
    p = tmp_path / "state.csv"
    p.write_text("# hdtomo-csv v1 kind=state M=0 deficit=0.0\nn,re,im\n")
    with pytest.raises(DataError, match=re.escape(f"{p}: metadata key M=0 must be >= 1")):
        formats.read_state(p)


def test_write_state_checks_deficit(tmp_path):
    for deficit in (math.nan, -3.0, 1.5):
        with pytest.raises(ValueError, match=r"deficit must be a number in \[0, 1\]"):
            formats.write_state(tmp_path / "s.csv", FockVector(1, np.ones(1), deficit))
    assert not (tmp_path / "s.csv").exists()


def test_matrix_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(5, 5)) * np.logspace(-12, 3, 5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    formats.write_matrix(p1, mat, meta={"name": "rho", "part": "re"})
    back, meta = formats.read_matrix(p1)
    assert np.array_equal(back, mat)
    formats.write_matrix(p2, back, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_wigner_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    r = np.linspace(0.0, 3.0, 7)
    theta = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    W = rng.normal(size=(7, 5))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    formats.write_wigner(p1, r, theta, W, meta={"M": 4})
    r2, t2, W2, meta = formats.read_wigner(p1)
    assert np.array_equal(r2, r) and np.array_equal(t2, theta)
    assert np.array_equal(W2, W)
    formats.write_wigner(p2, r2, t2, W2, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_roundtrip_byte_identical(tmp_path):
    rep = {"version": 1, "trace": 0.9987654321, "compatible": True, "M": 8}
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    formats.write_report(p1, rep)
    back = formats.read_report(p1)
    assert back == rep
    formats.write_report(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# format validation


def test_read_rejects_wrong_kind(tmp_path):
    ds = _small_dataset()
    p = tmp_path / "samples.csv"
    formats.write_samples(p, ds)
    with pytest.raises(DataError, match="expected kind=matrix"):
        formats.read_matrix(p)


def test_read_rejects_missing_metadata_line(tmp_path):
    p = tmp_path / "bare.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(DataError, match="metadata line"):
        formats.read_matrix(p)


def test_read_samples_header_and_cell_errors(tmp_path):
    head = "# hdtomo-csv v1 kind=samples n_phi=1 nblks=1"
    p = tmp_path / "bad.csv"

    p.write_text(head + "\nwrong,header\n")
    with pytest.raises(DataError, match="column header"):
        formats.read_samples(p)

    p.write_text(head + "\nphase_index,phase_radians,block,value\n0,0.0,0,nan\n")
    with pytest.raises(DataError, match="line 3: non-finite"):
        formats.read_samples(p)

    p.write_text(head + "\nphase_index,phase_radians,block,value\n0,0.0,0\n")
    with pytest.raises(DataError, match="expected 4 columns"):
        formats.read_samples(p)

    p.write_text(head + "\nphase_index,phase_radians,block,value\n0,0.0,x,1.0\n")
    with pytest.raises(DataError, match="is not an integer"):
        formats.read_samples(p)

    # a one-block file keeps its block column, so its labels are checked
    for label in (7, -2):
        p.write_text(head + f"\nphase_index,phase_radians,block,value\n0,0.0,{label},1.0\n")
        with pytest.raises(DataError, match=r"block labels must lie in 0\.\.0"):
            formats.read_samples(p)


def test_read_samples_checks_phase_index(tmp_path):
    ds = _small_dataset(n_phi=4)
    p = tmp_path / "samples.csv"
    formats.write_samples(p, ds)
    lines = p.read_text().splitlines()
    # row 5 of the file claims the wrong grid index for its phase
    cells = lines[4].split(",")
    cells[0] = str((int(cells[0]) + 1) % 4)
    lines[4] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 5: phase_index .* does not match"):
        formats.read_samples(p)

    head = "# hdtomo-csv v1 kind=samples n_phi=4 nblks=1"
    p.write_text(head + "\nphase_index,phase_radians,block,value\n3,0.0,0,0.5\n")
    with pytest.raises(DataError, match="line 3: phase_index 3 does not match"):
        formats.read_samples(p)
    p.write_text(head + "\nphase_index,phase_radians,block,value\nx,0.0,0,0.5\n")
    with pytest.raises(DataError, match="line 3: phase_index 'x' is not an integer"):
        formats.read_samples(p)


def test_matrix_row_count_mismatch(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# hdtomo-csv v1 kind=matrix M=3\n1.0,0.0,0.0\n0.0,1.0,0.0\n")
    with pytest.raises(DataError, match="expected 3 rows, found 2"):
        formats.read_matrix(p)


def test_matrix_files_hold_at_least_one_row(tmp_path):
    p = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="non-empty square matrix"):
        formats.write_matrix(p, np.zeros((0, 0)))
    assert not p.exists()
    p.write_text("# hdtomo-csv v1 kind=matrix M=0\n")
    with pytest.raises(DataError, match=re.escape(f"{p}: metadata key M=0 must be >= 1")):
        formats.read_matrix(p)


def test_metadata_values_may_not_contain_spaces(tmp_path):
    ds = _small_dataset()
    with pytest.raises(ValueError, match="spaces or commas"):
        formats.write_samples(tmp_path / "x.csv", ds, meta={"note": "two words"})


# Cells a single fault can leave: unreadable, blank, non-finite, a float
# where an integer belongs, padded, signed, or a '#' that is not a comment.
_PYTHON_ONLY = "1_0"
_HUGE = "9" * 20
_BAD_CELLS = ["x", "", " ", "nan", "-inf", "1e400", "1.7", "-0", "+1", " 2 ",
              "#1", "2#", "1e3", "0x1", "4.5e-320", _PYTHON_ONLY, _HUGE]
_HEADER_ROW = "header row"


def _mutations(text):
    """Single-fault variants of a CSV text: one cell replaced; one line
    with a cell too many or too few, commented, blanked, padded, dropped,
    doubled or after a blank line; or the file's line ends changed."""
    lines = text.splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        for k in range(len(cells)):
            for bad in _BAD_CELLS:
                yield bad, lines[:i] + [",".join(cells[:k] + [bad] + cells[k + 1:])] + lines[i + 1:]
        for changed in ([lines[i] + ","], [",".join(cells[1:])], ["#" + lines[i]], [""],
                        [], ["", lines[i]], [lines[i] + " "], [lines[i]] * 2):
            doubled_header = i == 1 and changed == [lines[1]] * 2
            yield _HEADER_ROW if doubled_header else None, lines[:i] + changed + lines[i + 1:]
    yield None, [text.replace("\n", "\r\n")]
    yield None, [text.rstrip("\n")]
    yield None, [text, "#"]
    yield None, [text]


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, QuadratureDataset):
        # what a dataset gives, whether it stores its phases or derives them
        return type(a) is type(b) and all(
            _same(getattr(a, k), getattr(b, k))
            for k in ("phases", "values", "n_phi", "block", "nblks", "phase_index"))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and _same(tuple(vars(a).values()), tuple(vars(b).values()))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    return a == b


def test_readers_match_line_oracles_on_single_faults(tmp_path):
    # Each variant gives the line-by-line reader's values or its DataError
    # text.  The exceptions are cells Python reads and numpy does not: digit
    # grouping (1_0), and integers beyond int64, on which the old samples
    # reader crashed with OverflowError.  Those are DataErrors now.  A
    # header line repeated as a row has several bad cells; the two readers
    # name the same line but may name different cells of it.
    ds = QuadratureDataset(np.array([0.0, math.pi, math.pi, 0.0]),
                           np.array([0.5, -1.25, 3e-300, -0.0]), n_phi=2,
                           block=np.array([0, 0, 1, 1]), nblks=2)
    writers = [
        (lambda p: formats.write_samples(p, ds, meta={"seed": 3}),
         formats.read_samples, oracles.read_samples_by_line),
        (lambda p: formats.write_state(p, FockVector(3, np.array([0.6, 0.8j, -0.0]), 1e-3)),
         formats.read_state, oracles.read_state_by_line),
        (lambda p: formats.write_matrix(p, [[1.0, -2.5e-8], [0.0, 7.0]]),
         formats.read_matrix, oracles.read_matrix_by_line),
        (lambda p: formats.write_wigner(p, [0.0, 1.5], [0.0, 3.0], [[0.25, -1.0], [2.0, 5e-3]]),
         formats.read_wigner, oracles.read_wigner_by_line),
    ]
    p = tmp_path / "t.csv"
    count = 0
    for write, read, oracle in writers:
        write(p)
        for bad, lines in _mutations(p.read_text()):
            p.write_text("\n".join(lines) + "\n", newline="")
            if bad in (_PYTHON_ONLY, _HUGE):
                new = _outcome(read, p)
                assert isinstance(new, str) or _same(new, _outcome(oracle, p)), lines
            elif bad == _HEADER_ROW:
                new, old = _outcome(read, p), _outcome(oracle, p)
                assert new.split(": ")[:2] == old.split(": ")[:2], (new, old)
            else:
                new, old = _outcome(read, p), _outcome(oracle, p)
                assert _same(new, old), (lines, new, old)
            count += 1
    assert count > 500


def test_readers_match_line_oracles_through_int_converters(tmp_path, monkeypatch):
    # the integer columns as a numpy that reads 1.7 as int 1 has them
    # parsed, through Python's int, give the same outcomes
    monkeypatch.setattr(formats, "_loadtxt_rejects_fractions", lambda: False)
    test_readers_match_line_oracles_on_single_faults(tmp_path)


# a chunk of blank lines alone is a chunk of no rows, which numpy warns of
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data:UserWarning")
@pytest.mark.parametrize("rows", [1, 2, 4])
def test_samples_reader_chunks_match_the_line_oracle(tmp_path, monkeypatch, rows):
    # chunks of 1, 2 or 4 rows over 9 rows whose phases leave the grid's
    # bits at row 5 (one ulp off) and row 8 (-0.0), so the phases of the
    # chunks before row 5 are rebuilt from their index.  Single faults, and
    # labels or indices out of range in a later chunk, give the line
    # oracle's values or DataError text.  A cell that only Python reads
    # gives the whole-file read's text, numpy's row number included.
    n_phi = 3
    j = np.array([0, 1, 2, 2, 1, 0, 1, 2, 0])
    phases = reconstruct.phase_grid(n_phi)[j]
    phases[5] = np.nextafter(0.0, 1.0)
    phases[8] = -0.0
    ds = QuadratureDataset(phases, np.linspace(-2.0, 2.0, 9), n_phi,
                           np.arange(9) % 2, 2)
    p = tmp_path / "t.csv"
    formats.write_samples(p, ds)
    text = p.read_text()
    lines = text.splitlines()
    variants = [(None, lines)]
    for k, edit in ((7, "0,{},9,{}"), (7, "0,{},-1,{}"), (6, "7,{},1,{}"), (3, "0,{},0,{}")):
        cells = lines[k].split(",")
        variants.append((None, lines[:k] + [edit.format(cells[1], cells[3])] + lines[k + 1:]))
    variants += list(_mutations(text))

    def whole(path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_READ_ROWS", 1 << 20)
            return _outcome(formats.read_samples, path)

    monkeypatch.setattr(formats, "_READ_ROWS", rows)
    explicit = 0
    for bad, variant in variants:
        p.write_text("\n".join(variant) + "\n", newline="")
        new = _outcome(formats.read_samples, p)
        if bad in (_PYTHON_ONLY, _HUGE):
            assert _same(new, whole(p)), variant
        elif bad == _HEADER_ROW:
            old = _outcome(oracles.read_samples_by_line, p)
            assert new.split(": ")[:2] == old.split(": ")[:2], (new, old)
        else:
            old = _outcome(oracles.read_samples_by_line, p)
            assert _same(new, old), (variant, new, old)
            explicit += not isinstance(new, str) and not new[0].phases_derived
    assert explicit > 100


def test_reading_samples_leaves_other_threads_warnings_alone(tmp_path):
    # another thread warns in a loop under an "ignore" filter while samples
    # are read: no process-wide filter may turn its warnings into errors
    p = tmp_path / "s.csv"
    formats.write_samples(p, _small_dataset(n_phi=8, nsamples=5000))
    stop, seen = threading.Event(), {"warned": 0, "raised": 0}

    def warn():
        while not stop.is_set():
            try:
                warnings.warn("probe", ResourceWarning)
            except ResourceWarning:
                seen["raised"] += 1
            seen["warned"] += 1

    interval = sys.getswitchinterval()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)
        thread = threading.Thread(target=warn)
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            for _ in range(3):
                formats.read_samples(p)
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert seen["warned"] > 0 and seen["raised"] == 0, seen


# ---------------------------------------------------------------------------
# cmd_simulate


def test_cli_simulate_row_count(tmp_path, capsys):
    out = tmp_path / "run"
    rc = _run("simulate", "--state", "vacuum", "-M", "4", "--n-phi", "4",
              "--nsamples", "2", "--nblks", "1", "--seed", "1",
              "--out-dir", out)
    assert rc == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 2 + 8  # metadata + column header + n_phi*nsamples rows
    meta = formats.read_report(out / "metadata.json")
    assert meta["total_samples"] == 8
    assert meta["rng"] == "pcg64"
    state, _ = formats.read_state(out / "state.csv")
    assert state.M == 4 and state.c[0] == 1.0
    assert "wrote 8 samples" in capsys.readouterr().out


def test_cli_simulate_deterministic(tmp_path):
    args = ["simulate", "--state", "coherent", "--alpha", "0.7", "-M", "8",
            "--n-phi", "4", "--nsamples", "30", "--seed", "5"]
    rc1 = _run(*args, "--out-dir", tmp_path / "r1")
    rc2 = _run(*args, "--out-dir", tmp_path / "r2")
    assert rc1 == 0 and rc2 == 0
    for name in ("samples.csv", "state.csv", "metadata.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b


@pytest.mark.parametrize("state, alpha", [("coherent", "nan"), ("cat", "inf"),
                                          ("cat", "nan"), ("coherent", "-inf")])
def test_cli_simulate_rejects_non_finite_alpha(tmp_path, capsys, state, alpha):
    out = tmp_path / "run"
    rc = _run("simulate", "--state", state, f"--alpha={alpha}", "-M", "8",
              "--n-phi", "9", "--nsamples", "10", "--out-dir", out)
    assert rc == 1
    # the value as given on the command line, not its complex() form
    assert capsys.readouterr().err.endswith(f"error: alpha must be finite, got {alpha}\n")
    assert not out.exists()


def test_cli_simulate_block_sizes(tmp_path):
    out = tmp_path / "cat"
    rc = _run("simulate", "--state", "cat", "--alpha", "3", "-M", "64",
              "--n-phi", "4", "--nsamples", "1000", "--nblks", "10",
              "--seed", "2", "--out-dir", out)
    assert rc == 0
    ds, _ = formats.read_samples(out / "samples.csv")
    assert ds.N == 4 * 1000 * 10
    assert ds.nblks == 10
    counts = np.bincount(ds.block, minlength=10)
    assert np.all(counts == 4000)


def test_cli_simulate_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "neg"
    rc = _run("simulate", "--state", "vacuum", "-M", "4", "--n-phi", "4",
              "--nsamples", "2", "--seed", "-1", "--out-dir", out)
    assert rc == 1
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# cmd_reconstruct


def _simulated_dir(tmp_path, name="sim", **kw):
    args = dict(state="vacuum", M=4, n_phi=8, nsamples=400, nblks=1, seed=9)
    args.update(kw)
    out = tmp_path / name
    rc = _run("simulate", "--state", args["state"], "-M", args["M"],
              "--n-phi", args["n_phi"], "--nsamples", args["nsamples"],
              "--nblks", args["nblks"], "--seed", args["seed"],
              "--out-dir", out)
    assert rc == 0
    return out


def test_cli_pipeline_vacuum_compatible(tmp_path):
    sim = _simulated_dir(tmp_path)
    rec = tmp_path / "rec"
    rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
              "--n-bin", "120", "--out-dir", rec)
    assert rc == 0
    report = formats.read_report(rec / "report.json")
    assert report["compatible"] is True
    assert abs(report["trace"] - 1.0) <= 3.0 * report["trace_err"] + 1e-12
    assert report["estimator"] == "binned"
    rho, meta = formats.read_matrix(rec / "rho_re.csv")
    assert rho.shape == (4, 4)
    assert meta["part"] == "re"
    for name in ("rho_im.csv", "err_re.csv", "err_im.csv"):
        assert (rec / name).exists()


def test_cli_reconstruct_estimator_selection(tmp_path):
    sim = _simulated_dir(tmp_path, nblks=5, nsamples=80)
    rec1 = tmp_path / "auto"
    rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
              "--out-dir", rec1)
    assert rc == 0
    rep = formats.read_report(rec1 / "report.json")
    assert rep["estimator"] == "block" and rep["nblks"] == 5
    # the report is the estimate's meta plus the run's own keys
    common = {"version", "command", "M", "estimator", "N", "n_bin", "n_phi", "beta",
              "max_diag", "alias_free_max_diag", "precision", "trace", "trace_err",
              "compatible", "elapsed_seconds"}
    assert set(rep) == common | {"nblks", "bin_correction"}
    assert rep["alias_free_max_diag"] == 3 and rep["bin_correction"] is False

    rec2 = tmp_path / "unb"
    rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
              "--estimator", "unbinned", "--out-dir", rec2)
    assert rc == 0
    rep = formats.read_report(rec2 / "report.json")
    assert rep["estimator"] == "unbinned" and set(rep) == common


def _half_circle_file(path, n_phi):
    """Samples of a coherent state at M = 6 on the grid phases in [0, pi)
    of n_phi, in 2 blocks, written as a samples file declaring n_phi."""
    full = draw(make_state("coherent", 0.4 + 0.3j, 6),
                SimulationPlan(nsamples=40 * n_phi, nblks=2, n_phi=n_phi, seed=3,
                               grid_points=1024))
    half = full.phases < math.pi
    ds = QuadratureDataset(full.phases[half], full.values[half], n_phi=n_phi,
                           block=full.block[half], nblks=2)
    formats.write_samples(path, ds)
    return ds


@pytest.mark.parametrize("estimator", ["auto", "binned", "unbinned", "block"])
def test_cli_symmetrize_fills_the_files_phase_grid(tmp_path, estimator):
    # 8 measured phases on a 16-phase grid: the mirrored samples fill the
    # other 8 rows, and the run keeps the file's n_phi
    ds = _half_circle_file(tmp_path / "half.csv", 16)
    rec = tmp_path / "rec"
    assert _run("reconstruct", "--samples", tmp_path / "half.csv", "-M", "6",
                "--estimator", estimator, "--symmetrize", "--out-dir", rec) == 0
    assert formats.read_report(rec / "report.json")["n_phi"] == 16
    full = reconstruct.double_by_symmetry(dataclasses.replace(ds, n_phi=8))
    cfg = PatternConfig(cutoff=6, beta=choose_beta(full.values))
    ref = reconstruct.estimate(full, cfg, estimator)
    for name, mat in (("rho_re", ref.rho.real), ("rho_im", ref.rho.imag),
                      ("err_re", ref.err_re), ("err_im", ref.err_im)):
        assert np.array_equal(formats.read_matrix(rec / f"{name}.csv")[0], mat), name


def _count_phase_index(monkeypatch):
    """The (n_phi, N) of every dataset whose phase_index gets computed."""
    calls, walk = [], QuadratureDataset.__dict__["phase_index"].func

    def spy(ds):
        calls.append((ds.n_phi, ds.N))
        return walk(ds)

    prop = functools.cached_property(spy)
    prop.__set_name__(QuadratureDataset, "phase_index")
    monkeypatch.setattr(QuadratureDataset, "phase_index", prop)
    return calls


def test_cli_indexes_each_dataset_once(tmp_path, monkeypatch):
    # no dataset of the flow walks its phases: simulate's dataset carries
    # its index from sample into the samples file, and read_samples hands
    # the file's index column to the dataset the estimators read
    calls = _count_phase_index(monkeypatch)
    sim = _simulated_dir(tmp_path, nblks=2, nsamples=100)
    assert calls == []
    for estimator in ("binned", "block", "unbinned"):
        assert _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
                    "--estimator", estimator, "--out-dir", tmp_path / estimator) == 0
        assert calls == [], estimator


def test_cli_symmetrize_never_indexes_the_half_circle_dataset(tmp_path, monkeypatch):
    # the file's dataset comes with its index, and the doubled one, of
    # explicit phases, is indexed; the half-circle one in between has
    # phases off its own grid of 8 phases
    ds = _half_circle_file(tmp_path / "half.csv", 16)
    calls = _count_phase_index(monkeypatch)
    assert _run("reconstruct", "--samples", tmp_path / "half.csv", "-M", "6",
                "--estimator", "binned", "--symmetrize", "--out-dir", tmp_path / "rec") == 0
    assert calls == [(16, 2 * ds.N)]


def test_cli_symmetrize_rejects_other_files(tmp_path, capsys):
    _half_circle_file(tmp_path / "odd.csv", 15)
    assert _run("reconstruct", "--samples", tmp_path / "odd.csv", "-M", "6",
                "--symmetrize", "--out-dir", tmp_path / "rec") == 2
    assert "--symmetrize needs an even n_phi, the samples file has 15" in capsys.readouterr().err
    sim = _simulated_dir(tmp_path, n_phi=16)
    assert _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
                "--symmetrize", "--out-dir", tmp_path / "rec") == 2
    assert "double_by_symmetry needs all phases in [0, pi)" in capsys.readouterr().err


def test_cli_prints_library_warnings_as_one_line(tmp_path, capsys):
    # an even n_phi = M aliases every diagonal above the main one
    showwarning = warnings.showwarning
    sim = _simulated_dir(tmp_path, M=8, n_phi=8, nsamples=200)
    assert capsys.readouterr().err == ""
    rec = tmp_path / "rec"
    assert _run("reconstruct", "--samples", sim / "samples.csv", "-M", "8",
                "--out-dir", rec) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("warning: n_phi=8 phases alias diagonals d=1..7")
    assert ".py:" not in err
    assert formats.read_report(rec / "report.json")["alias_free_max_diag"] == 0
    # the caller's warning state is back
    assert warnings.showwarning is showwarning


def test_cli_missing_samples_file(tmp_path, capsys):
    rc = _run("reconstruct", "--samples", tmp_path / "nope.csv", "-M", "4",
              "--out-dir", tmp_path / "rec")
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


def test_cli_beta_overrides_the_default(tmp_path, capsys):
    sim = _simulated_dir(tmp_path)
    rec = tmp_path / "rec"
    assert _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
                "--beta", "1e-3", "--out-dir", rec) == 0
    assert formats.read_report(rec / "report.json")["beta"] == 1e-3
    capsys.readouterr()
    for bad in ("0", "nan"):
        rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
                  "--beta", bad, "--out-dir", tmp_path / bad)
        assert rc == 1
        assert "beta must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / bad).exists()


def test_cli_beta_policy_is_gone(tmp_path, capsys):
    # the default beta switches rule by itself: no flag and no config key
    sim = _simulated_dir(tmp_path)
    argv = ["reconstruct", "--samples", sim / "samples.csv", "-M", "4"]
    assert _run(*argv, "--beta-policy", "balanced", "--out-dir", tmp_path / "a") == 1
    assert "unrecognized arguments: --beta-policy" in capsys.readouterr().err
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"version": 1, "beta_policy": "balanced"}))
    assert _run(*argv, "--config", cfgp, "--out-dir", tmp_path / "b") == 1
    assert "unknown config keys: beta_policy" in capsys.readouterr().err


def test_cli_refuses_few_phases(tmp_path, capsys):
    sim = _simulated_dir(tmp_path, n_phi=4)
    rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "6",
              "--out-dir", tmp_path / "rec")
    assert rc == 1
    assert "phase count insufficient" in capsys.readouterr().err


def test_cli_config_overrides_flags(tmp_path):
    sim = _simulated_dir(tmp_path)
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"version": 1, "n_bin": 64}))
    rec = tmp_path / "rec"
    rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
              "--n-bin", "200", "--config", cfgp, "--out-dir", rec)
    assert rc == 0
    assert formats.read_report(rec / "report.json")["n_bin"] == 64


def test_cli_config_levels_take_a_list(tmp_path):
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"version": 1, "state": "fock", "levels": [0, 2]}))
    out = tmp_path / "run"
    assert _run("simulate", "-M", "4", "--n-phi", "4", "--nsamples", "2",
                "--config", cfgp, "--out-dir", out) == 0
    state, meta = formats.read_state(out / "state.csv")
    assert meta["levels"] == "0+2"
    assert np.flatnonzero(state.c).tolist() == [0, 2]


@pytest.mark.parametrize("key, value, message", [
    ("n_bin", "40", "config key 'n_bin' must be an integer, got '40'"),
    ("estimator", "bogus", "config key 'estimator' must be one of auto, binned, "
                           "unbinned, block, got 'bogus'"),
    ("bin_correction", "yes", "config key 'bin_correction' must be true or false, "
                              "got 'yes'"),
    ("out_dir", 5, "config key 'out_dir' must be a string, got 5"),
    ("samples", ["a"], "config key 'samples' must be a string, got ['a']"),
    ("out_dir", None, "config key 'out_dir' must be a string, got None"),
])
def test_cli_config_checks_types_and_choices(tmp_path, capsys, key, value, message):
    sim = _simulated_dir(tmp_path)
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"version": 1, key: value}))
    rec = tmp_path / "rec"
    rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
              "--config", cfgp, "--out-dir", rec)
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not rec.exists()


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    sim = _simulated_dir(tmp_path)
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"version": 1, "n_bins": 64}))
    rc = _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
              "--config", cfgp, "--out-dir", tmp_path / "rec")
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config keys: n_bins" in err
    assert "allowed:" in err


def test_cli_config_version_is_mandatory(tmp_path, capsys):
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"n_bin": 64}))
    rc = _run("reconstruct", "--samples", "x.csv", "-M", "4",
              "--config", cfgp, "--out-dir", tmp_path / "rec")
    assert rc == 1
    assert "'version' must be 1" in capsys.readouterr().err

    cfgp.write_text(json.dumps({"version": 2, "n_bin": 64}))
    rc = _run("reconstruct", "--samples", "x.csv", "-M", "4",
              "--config", cfgp, "--out-dir", tmp_path / "rec")
    assert rc == 1


def test_cli_config_invalid_json_diagnostics(tmp_path, capsys):
    cfgp = tmp_path / "run.json"
    cfgp.write_text('{"version": 1,\n  "n_bin": }')
    rc = _run("reconstruct", "--samples", "x.csv", "-M", "4",
              "--config", cfgp, "--out-dir", tmp_path / "rec")
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_cli_single_precision_failure_is_exit_3(tmp_path, capsys):
    out = tmp_path / "hi"
    rc = _run("simulate", "--state", "fock", "--levels", "140", "-M", "150",
              "--n-phi", "4", "--nsamples", "60", "--seed", "4",
              "--out-dir", out)
    assert rc == 0
    rec = tmp_path / "rec"
    rc = _run("reconstruct", "--samples", out / "samples.csv", "-M", "150",
              "--max-diag", "0", "--n-bin", "200", "--out-dir", rec)
    assert rc == 0

    rc = _run("reconstruct", "--samples", out / "samples.csv", "-M", "150",
              "--max-diag", "0", "--n-bin", "200", "--precision", "single",
              "--out-dir", tmp_path / "rec32")
    assert rc == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cmd_wigner and cmd_report


def _write_rho(tmp_path, rho, stem="rho"):
    rho = np.asarray(rho, dtype=np.complex128)
    re = tmp_path / f"{stem}_re.csv"
    im = tmp_path / f"{stem}_im.csv"
    formats.write_matrix(re, rho.real, meta={"name": "rho", "part": "re"})
    formats.write_matrix(im, rho.imag, meta={"name": "rho", "part": "im"})
    return re, im


def test_cli_wigner_vacuum_center(tmp_path):
    re, im = _write_rho(tmp_path, np.diag([1.0, 0.0, 0.0, 0.0]))
    out = tmp_path / "wig.csv"
    rc = _run("wigner", "--rho-re", re, "--rho-im", im, "--n-r", "5",
              "--n-theta", "4", "--out", out)
    assert rc == 0
    r, theta, W, meta = formats.read_wigner(out)
    assert meta["M"] == "4" and meta["coords"] == "polar"
    assert r[0] == 0.0
    assert np.all(W[0] == 2.0 / np.pi)
    assert np.all(np.isfinite(W))


def test_cli_wigner_methods_agree(tmp_path, capsys):
    # one synthesis path: --method is gone, and the grid matches one lambda
    # table per radius from the wavefront builder
    state = make_state("cat", 2.0, 20)
    rho = np.outer(state.c, state.c.conj())
    re, im = _write_rho(tmp_path, rho)
    out = tmp_path / "w.csv"
    flags = ["--n-r", "61", "--n-theta", "16", "--out", out]
    assert _run("wigner", "--rho-re", re, "--rho-im", im,
                "--method", "recurrence2", *flags) == 1
    assert "unrecognized arguments: --method" in capsys.readouterr().err
    assert not out.exists()
    assert _run("wigner", "--rho-re", re, "--rho-im", im, *flags) == 0
    r, theta, W, meta = formats.read_wigner(out)
    assert meta["method"] == "recurrence1"
    ref = oracles.wigner_polar_per_radius(DiagonalDensityMatrix.from_matrix(rho), r, theta,
                                          method="recurrence2").W
    assert np.max(np.abs(W - ref)) < 1e-8 * np.max(np.abs(ref))


def test_cli_wigner_config_rejects_method(tmp_path, capsys):
    re, im = _write_rho(tmp_path, np.diag([1.0, 0.0]))
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"version": 1, "method": "direct"}))
    rc = _run("wigner", "--rho-re", re, "--rho-im", im, "--config", cfgp,
              "--out", tmp_path / "w.csv")
    assert rc == 1
    assert "unknown config keys: method" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def test_cli_wigner_cat_interference_fringes(tmp_path):
    state = make_state("cat", 13.0, 300)
    re, im = _write_rho(tmp_path, np.outer(state.c, state.c.conj()))
    out = tmp_path / "cat13.csv"
    rc = _run("wigner", "--rho-re", re, "--rho-im", im,
              "--n-r", "900", "--n-theta", "4",
              "--out", out)
    assert rc == 0
    r, theta, W, _ = formats.read_wigner(out)
    assert np.all(np.isfinite(W))
    # along the axis between the two coherent blobs the cat oscillates
    # with wavenumber ~4*alpha, so r in [0, 1.2] holds many sign changes
    col = np.argmin(np.abs(theta - math.pi / 2.0))
    cut = W[r <= 1.2, col]
    flips = np.count_nonzero(np.diff(np.sign(cut)) != 0)
    assert flips >= 8


def test_cli_wigner_cartesian_resample(tmp_path):
    re, im = _write_rho(tmp_path, np.diag([1.0, 0.0, 0.0, 0.0]))
    out = tmp_path / "polar.csv"
    cart = tmp_path / "cart.csv"
    rc = _run("wigner", "--rho-re", re, "--rho-im", im, "--n-r", "81",
              "--n-theta", "32", "--out", out, "--cartesian", cart,
              "--n-xy", "21")
    assert rc == 0
    y, x, Wxy, meta = formats.read_wigner(cart)
    assert meta["coords"] == "cartesian"
    assert Wxy.shape == (21, 21)
    assert Wxy[10, 10] == pytest.approx(2.0 / math.pi, rel=1e-3)


@pytest.mark.parametrize("flags", [["--n-r", "0"], ["--n-theta", "0"],
                                   ["--n-r", "1", "--cartesian", "xy.csv"],
                                   ["--cartesian", "xy.csv", "--n-xy", "1"],
                                   ["--r-max", "nan"], ["--r-max", "inf"],
                                   ["--r-max", "-1"]])
def test_cli_wigner_rejects_degenerate_grids(tmp_path, capsys, flags):
    re, im = _write_rho(tmp_path, np.diag([1.0, 0.0]))
    rc = _run("wigner", "--rho-re", re, "--rho-im", im, "--out", tmp_path / "w.csv",
              *[tmp_path / f if f.endswith(".csv") else f for f in flags])
    assert rc == 1
    assert "needs" in capsys.readouterr().err


def test_cli_wigner_mismatched_matrices(tmp_path, capsys):
    re, _ = _write_rho(tmp_path, np.diag([1.0, 0.0]))
    _, im = _write_rho(tmp_path, np.zeros((3, 3)), stem="big")
    rc = _run("wigner", "--rho-re", re, "--rho-im", im,
              "--out", tmp_path / "w.csv")
    assert rc == 2
    assert "disagree on size" in capsys.readouterr().err


def test_cli_report_mismatched_matrices(tmp_path, capsys):
    re, _ = _write_rho(tmp_path, np.diag([1.0, 0.0]))
    _, err = _write_rho(tmp_path, np.zeros((3, 3)), stem="big")
    assert _run("report", "--rho-re", re, "--err-re", err) == 2
    assert "matrix files disagree on size: (2, 2) vs (3, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("command, other", [("wigner", "--rho-im"), ("report", "--err-re")])
def test_cli_rejects_empty_matrix_file(tmp_path, capsys, command, other):
    p = tmp_path / "rho_re.csv"
    p.write_text("# hdtomo-csv v1 kind=matrix M=0\n")
    out = tmp_path / "out.csv"
    rc = _run(command, "--rho-re", p, other, p, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {p}: metadata key M=0 must be >= 1\n"
    assert not out.exists()


def test_cli_report_subcommand(tmp_path, capsys):
    sim = _simulated_dir(tmp_path)
    rec = tmp_path / "rec"
    assert _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
                "--out-dir", rec) == 0
    capsys.readouterr()
    outp = tmp_path / "norm.json"
    rc = _run("report", "--rho-re", rec / "rho_re.csv",
              "--err-re", rec / "err_re.csv", "--out", outp)
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == formats.read_report(outp)
    assert printed["M"] == 4
    assert isinstance(printed["compatible"], bool)


def test_cli_reconstruct_rejects_samples_without_rows(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("# hdtomo-csv v1 kind=samples n_phi=4 nblks=1\n"
                 "phase_index,phase_radians,block,value\n")
    rc = _run("reconstruct", "--samples", p, "-M", "4", "--out-dir", tmp_path / "rec")
    assert rc == 2
    assert "no sample rows" in capsys.readouterr().err


def test_cli_reconstruct_rejects_mismatched_phase_index(tmp_path, capsys):
    sim = _simulated_dir(tmp_path, n_phi=4)
    samples = sim / "samples.csv"
    lines = samples.read_text().splitlines()
    lines[2] = "3," + lines[2].split(",", 1)[1]  # first row has phase 0
    samples.write_text("\n".join(lines) + "\n")
    rc = _run("reconstruct", "--samples", samples, "-M", "4",
              "--out-dir", tmp_path / "rec")
    assert rc == 2
    assert "line 3: phase_index 3 does not match" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("n_phi", 0), ("nblks", 0), ("nblks", -3)])
def test_cli_reconstruct_rejects_nonpositive_counts(tmp_path, capsys, key, value):
    sim = _simulated_dir(tmp_path, n_phi=4)
    samples = sim / "samples.csv"
    lines = samples.read_text().splitlines()
    lines[0] = re.sub(rf"\b{key}=\S+", f"{key}={value}", lines[0])
    samples.write_text("\n".join(lines) + "\n")
    rc = _run("reconstruct", "--samples", samples, "-M", "4",
              "--out-dir", tmp_path / "rec")
    assert rc == 2
    assert f"metadata key {key}={value} must be >= 1" in capsys.readouterr().err


def test_cli_report_matches_reconstruct_normalization(tmp_path, capsys):
    sim = _simulated_dir(tmp_path, nblks=4, nsamples=100)
    rec = tmp_path / "rec"
    assert _run("reconstruct", "--samples", sim / "samples.csv", "-M", "4",
                "--out-dir", rec) == 0
    outp = tmp_path / "norm.json"
    assert _run("report", "--rho-re", rec / "rho_re.csv",
                "--err-re", rec / "err_re.csv", "--out", outp) == 0
    capsys.readouterr()
    rec_report = formats.read_report(rec / "report.json")
    report = formats.read_report(outp)
    assert sorted(report) == ["M", "command", "compatible", "trace", "trace_err", "version"]
    for key in ("trace", "trace_err", "compatible"):
        assert report[key] == rec_report[key]


# ---------------------------------------------------------------------------
# parser-level behavior


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("--version")
    assert exc.value.code == 0
    assert "hdtomo" in capsys.readouterr().out


def test_cli_bad_flag_is_usage_error(capsys):
    rc = _run("reconstruct", "--no-such-flag")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["-M", "2", "--n-phi", "2", "--nsamples", "4", "--out-dir", "s"]),
    ("wigner", ["--rho-re", "re.csv", "--rho-im", "im.csv", "--out", "w.csv"]),
    ("report", ["--rho-re", "re.csv", "--err-re", "err.csv"]),
])
def test_cli_precision_is_a_reconstruct_flag(tmp_path, capsys, monkeypatch,
                                            command, flags):
    # only reconstruct builds pattern tables; elsewhere the flag is unknown
    monkeypatch.chdir(tmp_path)
    rc = _run(command, *flags, "--precision", "single")
    assert rc == 1
    assert "--precision" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_threads_flag_sets_env(tmp_path, monkeypatch):
    # the flag writes os.environ; monkeypatch puts the variables back
    # afterwards, so later tests keep the session's thread settings
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    rc = _run("simulate", "--state", "vacuum", "-M", "2", "--n-phi", "2",
              "--nsamples", "4", "--threads", "1",
              "--out-dir", tmp_path / "t")
    assert rc == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
