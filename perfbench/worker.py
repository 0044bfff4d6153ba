"""One benchmark process: set up a workload's inputs, then run one pass.

run.py starts a fresh worker for every pass, so each pass pays its own
interpreter start and imports (reported as setup) and has its own peak RSS.
The worker imports the package from the checkout's src/ directory and
refuses to run against any other copy.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --t0 MONOTONIC --work-dir DIR

MODE is `setup` (stop after set-up), `pass` (tracing off) or `traced`.
The last line of standard output is one JSON record of the pass.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every span the passes below open, as the per-layer metric "<span>_s".
SPANS = (
    "simulate.marginals", "simulate.sample",
    "reconstruct.bin", "reconstruct.phase_dft",
    "reconstruct.block_statistics", "reconstruct.estimate_binned",
    "reconstruct.estimate_unbinned",
    "patterns.build_table", "patterns.pattern_row_grid",
    "wigner.lambda_table", "wigner.wigner_polar", "wigner.cartesian_resample",
    "formats.write_samples", "formats.read_samples",
    "formats.write_matrix", "formats.read_matrix", "formats.write_wigner",
    "cli.simulate", "cli.reconstruct", "cli.report", "cli.wigner", "cli.startup",
)
ESTIMATORS = ("reconstruct.block_statistics", "reconstruct.estimate_binned",
              "reconstruct.estimate_unbinned")
LAYERS = ("simulate", "reconstruct", "patterns", "wigner", "formats", "cli")


def import_package():
    """Put the checkout's src/ first on the path and import hdtomo from it."""
    if not (SRC / "hdtomo" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}/hdtomo")
    sys.path.insert(0, str(SRC))
    import hdtomo

    if Path(hdtomo.__file__).resolve().parent != (SRC / "hdtomo").resolve():
        raise SystemExit(f"imported hdtomo from {hdtomo.__file__}, not from {SRC}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sigma_devs(rho, err_re, err_im, rho_true):
    """|rho - rho_true| / error over every estimated element part (error > 0),
    the quantity simulate.run_experiment reports the maximum of."""
    import numpy as np

    return np.concatenate([np.abs(part(rho - rho_true))[err > 0] / err[err > 0]
                           for part, err in ((np.real, err_re), (np.imag, err_im))])


def quality(rho, err_re, err_im, rho_true):
    z = sigma_devs(rho, err_re, err_im, rho_true)
    return {"max_sigma_dev": float(z.max()),
            "beyond_5sigma_share": float((z > 5.0).mean())}


# ---------------------------------------------------------------------------
# replayed children: the public calls an estimator makes internally, timed
# on the same inputs after the estimator returns


def _dft_counts(tr, n_phi, n_bin, dmax):
    """Rows of the real phase FFT the estimate reads, against rows computed,
    and the computed bytes the FFT reads and writes."""
    half = n_phi // 2 + 1
    tr.count("dft_rows_useful", min(dmax + 1, half))
    tr.count("dft_rows_computed", half)
    tr.count("dft_bytes", n_phi * n_bin * 8 + half * n_bin * 16)


def _replay_rows(tr, parent, table, dmax):
    from hdtomo.patterns import pattern_row_grid

    for d in range(dmax + 1):
        with tr.span("patterns.pattern_row_grid", parent):
            f = pattern_row_grid(table, d)
        tr.count("kernel_values", f.size)


def _replay_table(tr, parent, x, cfg):
    from hdtomo.patterns import build_table

    with tr.span("patterns.build_table", parent):
        table = build_table(x, cfg)
    tr.count("table_columns", table.x.size)
    tr.count("backward_columns", int(table.backward.sum()))
    return table


def replay_block_statistics(tr, parent, ds, cfg, n_bin, dmax):
    """Per block, on the shared default bin range, as block_statistics does:
    bin, real FFT along the phase axis (rows 0..dmax kept); one pattern
    table on the bin centres; one pattern row per diagonal."""
    import numpy as np

    from hdtomo.reconstruct import QuadratureDataset, bin

    amax = float(np.max(np.abs(ds.values)))
    half_bin = amax / (n_bin - 1)
    bin_range = (-amax - half_bin, amax + half_bin)
    table = None
    for b in range(ds.nblks):
        pick = np.flatnonzero(ds.block == b)
        sub = QuadratureDataset(phases=ds.phases[pick], values=ds.values[pick],
                                n_phi=ds.n_phi)
        with tr.span("reconstruct.bin", parent):
            sino = bin(sub, n_bin, bin_range=bin_range)
        with tr.span("reconstruct.phase_dft", parent):
            (np.fft.rfft(sino.freq, axis=0) / ds.n_phi)[:dmax + 1]
        _dft_counts(tr, ds.n_phi, n_bin, dmax)
        if table is None:
            table = _replay_table(tr, parent, sino.bin_centers, cfg)
    _replay_rows(tr, parent, table, dmax)


def replay_estimate_binned(tr, parent, spec, cfg, dmax):
    """One pattern table on the bin centres, one pattern row per diagonal."""
    table = _replay_table(tr, parent, spec.bin_centers, cfg)
    _replay_rows(tr, parent, table, dmax)


def replay_estimate_unbinned(tr, parent, ds, cfg, dmax):
    """Pattern tables on sample slabs of the size _moment_sums uses, and one
    pattern row per diagonal per slab."""
    M = cfg.cutoff
    slab = max(256, int(4.0e6) // (M + 2))
    for start in range(0, ds.N, slab):
        table = _replay_table(tr, parent, ds.values[start:start + slab], cfg)
        _replay_rows(tr, parent, table, dmax)


# ---------------------------------------------------------------------------
# workloads


class DiagM800:
    """|600> + |700> at M = 800: criterion-4 scale, diagonal only."""

    seed, holdout_seed = 101, 202
    M, n_phi, grid_points, nsamples, nblks, n_bin = 800, 1600, 2 ** 17, 1000, 10, 8000
    levels = (600, 700)
    max_devs = 5.0  # acceptance criterion 4

    def setup(self, seed, work_dir):
        from hdtomo.simulate import (SimulationPlan, make_state, phase_grid,
                                     quadrature_grid)

        return {
            "state": make_state("fock_superposition", self.levels, self.M),
            "phases": phase_grid(self.n_phi),
            "x": quadrature_grid(self.M, self.grid_points),
            "plan": SimulationPlan(nsamples=self.nsamples, nblks=self.nblks,
                                   n_phi=self.n_phi, seed=seed,
                                   grid_points=self.grid_points),
        }

    def run(self, inp, tr):
        from hdtomo.patterns import PatternConfig, choose_beta
        from hdtomo.reconstruct import block_statistics
        from hdtomo.simulate import marginals, sample

        t0 = time.perf_counter()
        with tr.span("simulate.marginals"):
            table = marginals(inp["state"], inp["phases"], inp["x"])
        tr.count("marginal_table_bytes", table.p.nbytes)
        with tr.span("simulate.sample"):
            ds = sample(table, inp["plan"])
        del table  # as in the acceptance test: the table dies before estimation
        cfg = PatternConfig(cutoff=self.M, beta=choose_beta(ds.values))
        r0 = time.perf_counter()
        with tr.span("reconstruct.block_statistics") as sp:
            est = block_statistics(ds, cfg, n_bin=self.n_bin, max_diag=0,
                                   bin_correction=True)
        reconstruct_s = time.perf_counter() - r0
        rss = peak_rss_mb()
        if tr.enabled:
            replay_block_statistics(tr, sp, ds, cfg, self.n_bin, dmax=0)
        e2e_s = time.perf_counter() - t0

        devs = [abs(est.rho[n, n].real - 0.5) / est.err_re[n, n] for n in self.levels]
        ok = max(devs) < self.max_devs
        return {
            "ok": bool(ok), "e2e_s": e2e_s, "reconstruct_s": reconstruct_s,
            "N": ds.N, "peak_rss_mb": rss,
            "check": {f"dev_{n}_sigma": v for n, v in zip(self.levels, devs)},
            **quality(est.rho, est.err_re, est.err_im, inp["state"].density_matrix()),
        }


class UnbinnedM128:
    """Coherent state at M = n_phi = 128, one block: per-sample estimator plus
    its fine-binned cross-check (acceptance criterion 7)."""

    seed, holdout_seed = 29, 58
    M, n_phi, nsamples, n_bin = 128, 128, 500, 20000
    alpha = 3.0 + 0.5j
    max_gap = 0.2  # criterion 7, in units of the unbinned error bar

    def setup(self, seed, work_dir):
        from hdtomo.simulate import (SimulationPlan, make_state, phase_grid,
                                     quadrature_grid)

        plan = SimulationPlan(nsamples=self.nsamples, nblks=1, n_phi=self.n_phi,
                              seed=seed)
        return {
            "state": make_state("coherent", self.alpha, self.M),
            "phases": phase_grid(self.n_phi),
            "x": quadrature_grid(self.M, plan.grid_points),
            "plan": plan,
        }

    def run(self, inp, tr):
        import numpy as np

        from hdtomo.patterns import PatternConfig, choose_beta
        from hdtomo.reconstruct import (bin, check_normalization, estimate_binned,
                                        estimate_unbinned, phase_dft)
        from hdtomo.simulate import marginals, sample

        t0 = time.perf_counter()
        with tr.span("simulate.marginals"):
            table = marginals(inp["state"], inp["phases"], inp["x"])
        tr.count("marginal_table_bytes", table.p.nbytes)
        with tr.span("simulate.sample"):
            ds = sample(table, inp["plan"])
        cfg = PatternConfig(cutoff=self.M, beta=choose_beta(ds.values))
        r0 = time.perf_counter()
        with tr.span("reconstruct.estimate_unbinned") as sp_u:
            ref = estimate_unbinned(ds, cfg)
        with tr.span("reconstruct.bin"):
            sino = bin(ds, self.n_bin)
        with tr.span("reconstruct.phase_dft"):
            spec = phase_dft(sino)
        _dft_counts(tr, self.n_phi, self.n_bin, self.M - 1)
        with tr.span("reconstruct.estimate_binned") as sp_b:
            est = estimate_binned(spec, cfg)
        reconstruct_s = time.perf_counter() - r0
        rss = peak_rss_mb()
        if tr.enabled:
            replay_estimate_unbinned(tr, sp_u, ds, cfg, self.M - 1)
            replay_estimate_binned(tr, sp_b, spec, cfg, self.M - 1)
        e2e_s = time.perf_counter() - t0

        worst, exact = 0.0, True
        for delta, err in ((np.abs(est.rho.real - ref.rho.real), ref.err_re),
                           (np.abs(est.rho.imag - ref.rho.imag), ref.err_im)):
            mask = err > 1e-9
            worst = max(worst, float(np.max(delta[mask] / err[mask])))
            exact = exact and bool(np.all(delta[~mask] < 1e-12))
        traces = [check_normalization(e)["compatible"] for e in (ref, est)]
        ok = worst < self.max_gap and exact and all(traces)
        return {
            "ok": bool(ok), "e2e_s": e2e_s, "reconstruct_s": reconstruct_s,
            "N": ds.N, "peak_rss_mb": rss,
            "check": {"gap_sigma": worst, "zero_error_elements_equal": exact,
                      "trace_compatible": traces},
            **quality(ref.rho, ref.err_re, ref.err_im, inp["state"].density_matrix()),
        }


class DenseM400Cli:
    """The documented CLI flow on CSV files: simulate -> reconstruct ->
    report -> wigner, one subprocess after another."""

    seed, holdout_seed = 7, 14
    M, n_phi, nsamples, nblks, n_bin = 400, 800, 125, 10, 4000
    alpha = 8.0
    n_r, n_theta, n_xy = 121, 64, 201
    grid_points = 4096  # the CLI's --grid-points default

    def setup(self, seed, work_dir):
        threads = str(len(os.sched_getaffinity(0)))
        w = Path(work_dir)
        sim, rec = w / "sim", w / "rec"
        common = ["--threads", threads]
        cmds = [
            ("simulate", ["simulate", "--state", "cat", "--alpha", str(self.alpha),
                          "-M", str(self.M), "--n-phi", str(self.n_phi),
                          "--nsamples", str(self.nsamples), "--nblks", str(self.nblks),
                          "--seed", str(seed), "--out-dir", str(sim), *common]),
            ("reconstruct", ["reconstruct", "--samples", str(sim / "samples.csv"),
                             "-M", str(self.M), "--n-bin", str(self.n_bin),
                             "--out-dir", str(rec), *common]),
            ("report", ["report", "--rho-re", str(rec / "rho_re.csv"),
                        "--err-re", str(rec / "err_re.csv"),
                        "--out", str(w / "report.json"), *common]),
            ("wigner", ["wigner", "--rho-re", str(rec / "rho_re.csv"),
                        "--rho-im", str(rec / "rho_im.csv"),
                        "--n-r", str(self.n_r), "--n-theta", str(self.n_theta),
                        "--out", str(w / "wigner_polar.csv"),
                        "--cartesian", str(w / "wigner_xy.csv"),
                        "--n-xy", str(self.n_xy), *common]),
        ]
        # a CLI that cannot start fails here, before any pass
        rc, _ = run_cli(["--version"], w)
        if rc != 0:
            raise RuntimeError(f"hdtomo --version exited {rc}")
        return {"cmds": cmds, "work": w, "seed": seed}

    def run(self, inp, tr):
        w = inp["work"]
        t0 = time.perf_counter()
        rcs, rss, times, sp = {}, [], {}, {}
        for name, argv in inp["cmds"]:
            c0 = time.perf_counter()
            with tr.span(f"cli.{name}") as sp[name]:
                rcs[name], r = run_cli(argv, w)
            times[name] = time.perf_counter() - c0
            rss.append(r)
        ran = all(rc == 0 for rc in rcs.values())
        if tr.enabled and ran:
            self.replay(inp, tr, sp)
        e2e_s = time.perf_counter() - t0
        check, ok, q = self.check(w) if ran else ({}, False, {})
        check["exit_codes"] = rcs
        return {
            "ok": bool(ok), "e2e_s": e2e_s, "reconstruct_s": times["reconstruct"],
            "N": self.n_phi * self.nsamples * self.nblks, "peak_rss_mb": max(rss),
            "check": check, "cli_s": times, **q,
        }

    def check(self, w):
        """Both reports say the trace is compatible with 1; every output
        matrix and grid is finite."""
        import numpy as np

        from hdtomo import formats
        from hdtomo.simulate import make_state

        rec = w / "rec"
        compatible = [formats.read_report(p)["compatible"]
                      for p in (rec / "report.json", w / "report.json")]
        mats = {n: formats.read_matrix(rec / f"{n}.csv")[0]
                for n in ("rho_re", "rho_im", "err_re", "err_im")}
        grids = [formats.read_wigner(w / n)[2] for n in ("wigner_polar.csv", "wigner_xy.csv")]
        finite = all(np.all(np.isfinite(a)) for a in (*mats.values(), *grids))
        q = quality(mats["rho_re"] + 1j * mats["rho_im"], mats["err_re"], mats["err_im"],
                    make_state("cat", self.alpha, self.M).density_matrix())
        return {"compatible": compatible, "finite": bool(finite)}, all(compatible) and finite, q

    def replay(self, inp, tr, sp):
        """Time the library calls behind each command on the same inputs."""
        from hdtomo import formats
        from hdtomo.patterns import PatternConfig, choose_beta
        from hdtomo.reconstruct import block_statistics
        from hdtomo.simulate import (SimulationPlan, make_state, marginals, phase_grid,
                                     quadrature_grid, sample)
        from hdtomo.wigner import (DiagonalDensityMatrix, cartesian_resample,
                                   lambda_method1, polar_grid, wigner_polar)

        w, scratch = inp["work"], inp["work"] / "replay"
        scratch.mkdir()
        rec = w / "rec"
        with tr.span("cli.startup"):
            run_cli(["--version"], w)

        parent = sp["simulate"]
        state = make_state("cat", self.alpha, self.M)
        plan = SimulationPlan(nsamples=self.nsamples, nblks=self.nblks, n_phi=self.n_phi,
                              seed=inp["seed"], grid_points=self.grid_points)
        with tr.span("simulate.marginals", parent):
            table = marginals(state, phase_grid(self.n_phi),
                              quadrature_grid(self.M, self.grid_points))
        tr.count("marginal_table_bytes", table.p.nbytes)
        with tr.span("simulate.sample", parent):
            sample(table, plan)
        del table

        parent = sp["reconstruct"]
        samples = w / "sim" / "samples.csv"
        with tr.span("formats.read_samples", parent):
            ds, meta = formats.read_samples(samples)
        tr.count("read_bytes", samples.stat().st_size)
        with tr.span("formats.write_samples", sp["simulate"]):
            formats.write_samples(scratch / "samples.csv", ds, meta=meta)
        tr.count("write_bytes", (scratch / "samples.csv").stat().st_size)
        cfg = PatternConfig(cutoff=self.M, beta=choose_beta(ds.values))
        with tr.span("reconstruct.block_statistics", parent) as bs:
            est = block_statistics(ds, cfg, n_bin=self.n_bin)
        replay_block_statistics(tr, bs, ds, cfg, self.n_bin, dmax=self.M - 1)
        for name, mat in (("rho_re", est.rho.real), ("rho_im", est.rho.imag),
                          ("err_re", est.err_re), ("err_im", est.err_im)):
            path = scratch / f"{name}.csv"
            with tr.span("formats.write_matrix", parent):
                formats.write_matrix(path, mat, meta={"name": name})
            tr.count("write_bytes", path.stat().st_size)

        def read_matrix(name, parent):
            path = rec / f"{name}.csv"
            with tr.span("formats.read_matrix", parent):
                mat, _ = formats.read_matrix(path)
            tr.count("read_bytes", path.stat().st_size)
            return mat

        read_matrix("rho_re", sp["report"])
        read_matrix("err_re", sp["report"])
        parent = sp["wigner"]
        rho = read_matrix("rho_re", parent) + 1j * read_matrix("rho_im", parent)
        dm = DiagonalDensityMatrix.from_matrix(rho)
        r, theta = polar_grid(dm.M, n_r=self.n_r, n_theta=self.n_theta)
        with tr.span("wigner.lambda_table", parent):
            for rv in r:
                lambda_method1(4.0 * rv * rv, dm.M)
        with tr.span("wigner.wigner_polar", parent):
            grid = wigner_polar(dm, r, theta)
        with tr.span("wigner.cartesian_resample", parent):
            x, y, W_xy = cartesian_resample(grid, n=self.n_xy)
        for fname, args in (("polar.csv", (grid.r, grid.theta, grid.W)),
                            ("xy.csv", (y, x, W_xy.T))):
            with tr.span("formats.write_wigner", parent):
                formats.write_wigner(scratch / fname, *args, meta={"M": dm.M})
            tr.count("write_bytes", (scratch / fname).stat().st_size)


WORKLOADS = {
    "diag-m800": DiagM800,
    "dense-m400-cli": DenseM400Cli,
    "unbinned-m128": UnbinnedM128,
}


def run_cli(argv, work_dir):
    """Run `hdtomo ARGV` (as `python -m hdtomo.cli`) to completion; return
    its exit code and peak RSS in MB, from the child's own resource usage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(Path(work_dir) / "cli.log", "ab") as log:
        proc = subprocess.Popen([sys.executable, "-m", "hdtomo.cli", *argv],
                                stdout=log, stderr=log, env=env, cwd=work_dir)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def layer_metrics(tr, rec):
    """Per-layer metrics of one traced pass; layers the workload does not
    call read 0."""
    c = tr.counts
    m = {f"{name}_s": tr.total(name) for name in SPANS}
    own = list(zip((s["name"] for s in tr.spans), tr.self_times()))
    for est in ESTIMATORS:
        m[f"{est}_self_s"] = sum(t for name, t in own if name == est)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in own if name.split(".")[0] == layer)
    m["simulate.marginal_table_mb"] = c["marginal_table_bytes"] / 1e6
    m["reconstruct.dft_rows_useful_ratio"] = (
        c["dft_rows_useful"] / c["dft_rows_computed"] if c["dft_rows_computed"] else 0.0)
    m["reconstruct.dft_bytes"] = c["dft_bytes"]
    m["patterns.kernel_values"] = c["kernel_values"]
    m["patterns.table_columns"] = c["table_columns"]
    m["patterns.backward_column_share"] = (
        c["backward_columns"] / c["table_columns"] if c["table_columns"] else 0.0)
    read_s = m["formats.read_samples_s"] + m["formats.read_matrix_s"]
    write_s = (m["formats.write_samples_s"] + m["formats.write_matrix_s"]
               + m["formats.write_wigner_s"])
    m["formats.read_mb_per_s"] = c["read_bytes"] / 1e6 / read_s if read_s else 0.0
    m["formats.write_mb_per_s"] = c["write_bytes"] / 1e6 / write_s if write_s else 0.0
    m["max_sigma_dev"] = rec["max_sigma_dev"]
    m["beyond_5sigma_share"] = rec["beyond_5sigma_share"]
    m["trace.e2e_s"] = rec["e2e_s"]
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out", default=None, help="write spans and counts here")
    args = ap.parse_args(argv)

    import_package()
    workload = WORKLOADS[args.workload]()
    inp = workload.setup(args.seed, args.work_dir)
    rec = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        tr = Tracer() if args.mode == "traced" else NullTracer()
        try:
            rec.update(workload.run(inp, tr))
        except Exception:
            rec.update(ok=False, error=traceback.format_exc())
        if tr.enabled and rec.get("ok"):
            rec["layers"] = layer_metrics(tr, rec)
            if args.trace_out:
                with open(args.trace_out, "w") as fh:
                    json.dump(tr.dump(), fh)
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
