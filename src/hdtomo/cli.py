"""Command-line front end: simulate, reconstruct, wigner, report.

Each subcommand mirrors a library pipeline and reads/writes the CSV and
JSON formats from the formats module.  A JSON run configuration (with a
mandatory "version": 1 field) can override any flag; unknown keys, and
values of the wrong type or outside a flag's choices, are rejected so
typos fail loudly instead of being ignored.

Exit codes are a stable contract for scripting: 0 success, 1 usage error,
2 data or I/O error, 3 numerical failure.

Heavy imports happen inside the command handlers, after --threads has been
applied, so the BLAS worker cap set through the standard environment
variables actually takes effect; the simulator's chunk workers read
OMP_NUM_THREADS when they start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

from .errors import DataError, NumericalError, UsageError


def _apply_config(path, args: argparse.Namespace):
    """Override args with a flat JSON object from path ("version": 1 plus
    one key per flag, each checked by _config_value)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    version = doc.pop("version", None)
    if version != 1:
        raise UsageError(f"{path}: config 'version' must be 1, got {version!r}")
    flags = args._flags
    unknown = sorted(set(doc) - set(flags))
    if unknown:
        raise UsageError(
            f"unknown config keys: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(flags))})"
        )
    for key, val in doc.items():
        setattr(args, key, _config_value(key, val, flags[key]))


def _config_value(key: str, val, action: argparse.Action):
    """A config value checked as its flag is on the command line: against
    the flag's type (int, float, a true/false switch, or a string for a
    flag without one; levels also takes a list of integers) and its
    choices.  null is allowed where an optional flag defaults to None."""
    if val is None and action.default is None and not action.required:
        return val
    levels = key == "levels" and isinstance(val, list) and all(type(v) is int for v in val)
    if action.type is None and action.nargs != 0 and not (isinstance(val, str) or levels):
        raise UsageError(f"config key {key!r} must be a string, got {val!r}")
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if action.nargs == 0 and not isinstance(val, bool):
        raise UsageError(f"config key {key!r} must be true or false, got {val!r}")
    if action.type is int and not (number and isinstance(val, int)):
        raise UsageError(f"config key {key!r} must be an integer, got {val!r}")
    if action.type is float and not number:
        raise UsageError(f"config key {key!r} must be a number, got {val!r}")
    if action.choices is not None and val not in action.choices:
        raise UsageError(
            f"config key {key!r} must be one of {', '.join(action.choices)}, got {val!r}"
        )
    return float(val) if action.type is float else val


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems are exit 1 here
    def error(self, message):
        raise UsageError(message)


def _set_thread_env(n: int):
    if n < 1:
        raise UsageError(f"--threads must be >= 1, got {n}")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON run configuration; overrides flags")
    sub.add_argument("--threads", type=int, default=None,
                     help="cap numeric threads: BLAS and the simulator's chunk "
                          "workers (default: one per CPU)")


def _collect_flags(sub: argparse.ArgumentParser):
    flags = {
        a.dest: a for a in sub._actions
        if a.dest not in ("help", "config") and not a.dest.startswith("_")
    }
    sub.set_defaults(_flags=flags)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hdtomo",
                     description="homodyne tomography: simulate, reconstruct, "
                                 "and render Wigner functions")
    from . import __version__
    parser.add_argument("--version", action="version", version=f"hdtomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="generate a synthetic homodyne dataset")
    p.add_argument("--state", default="vacuum",
                   choices=("vacuum", "coherent", "cat", "fock"),
                   help="pure state family")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="amplitude for coherent and cat states")
    p.add_argument("--levels", default="0",
                   help="comma-separated Fock levels for --state fock")
    p.add_argument("--cutoff", "-M", dest="cutoff", type=int, required=True)
    p.add_argument("--n-phi", type=int, required=True,
                   help="number of phases; odd is recommended: an odd n_phi >= M "
                        "is alias-free for every diagonal, an even one only for "
                        "d <= n_phi - M")
    p.add_argument("--nsamples", type=int, required=True, help="samples per block")
    p.add_argument("--nblks", type=int, default=1, help="statistical blocks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=4096,
                   help="x-grid resolution for the inverse-CDF sampler")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)
    _collect_flags(p)

    p = sub.add_parser("reconstruct", help="estimate a density matrix from samples")
    p.add_argument("--samples", required=True, help="samples CSV path")
    p.add_argument("--cutoff", "-M", dest="cutoff", type=int, required=True)
    p.add_argument("--n-bin", type=int, default=400)
    p.add_argument("--max-diag", type=int, default=None,
                   help="estimate only diagonals 0..max_diag")
    p.add_argument("--beta", type=float, default=None,
                   help="scaling parameter; default chosen from the data")
    p.add_argument("--beta-policy", choices=("auto", "balanced"), default="auto",
                   help="rule for the default beta")
    p.add_argument("--estimator", choices=("auto", "binned", "unbinned", "block"),
                   default="auto")
    p.add_argument("--bin-correction", action="store_true",
                   help="remove the midpoint-rule bias of wide bins")
    p.add_argument("--symmetrize", action="store_true",
                   help="double half-circle data via X_{phi+pi} = -X_phi; the "
                        "file declares an even n_phi and holds phases in [0, pi)")
    p.add_argument("--precision", choices=("single", "double"), default="double",
                   help="floating-point precision for pattern recursions")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)
    _collect_flags(p)

    p = sub.add_parser("wigner", help="synthesize a Wigner function grid")
    p.add_argument("--rho-re", required=True, help="real-part matrix CSV")
    p.add_argument("--rho-im", required=True, help="imaginary-part matrix CSV")
    p.add_argument("--n-r", type=int, default=121)
    p.add_argument("--n-theta", type=int, default=64)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--out", required=True, help="output Wigner CSV")
    p.add_argument("--cartesian", default=None,
                   help="also write a Cartesian-resampled grid to this path")
    p.add_argument("--n-xy", type=int, default=201,
                   help="side length of the Cartesian grid")
    _add_common(p)
    p.set_defaults(func=cmd_wigner)
    _collect_flags(p)

    p = sub.add_parser("report", help="normalization report from matrix files")
    p.add_argument("--rho-re", required=True)
    p.add_argument("--err-re", required=True)
    p.add_argument("--out", default=None, help="write JSON here as well as stdout")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    _collect_flags(p)
    return parser


def _parse_levels(text) -> list:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"--levels must be comma-separated integers, got {text!r}") from None


def _build_state(args):
    from . import simulate

    if args.state == "vacuum":
        return simulate.make_state("fock_superposition", [0], args.cutoff), {"state": "vacuum"}
    if args.state in ("coherent", "cat"):
        return (simulate.make_state(args.state, args.alpha, args.cutoff),
                {"state": args.state, "alpha": float(args.alpha)})
    levels = _parse_levels(args.levels)
    return (simulate.make_state("fock_superposition", levels, args.cutoff),
            {"state": "fock", "levels": "+".join(str(v) for v in levels)})


def cmd_simulate(args) -> int:
    from dataclasses import asdict

    from . import formats, simulate

    state, desc = _build_state(args)
    plan = simulate.SimulationPlan(
        nsamples=args.nsamples, nblks=args.nblks, n_phi=args.n_phi,
        seed=args.seed, grid_points=args.grid_points,
    )
    ds = simulate.draw(state, plan)
    os.makedirs(args.out_dir, exist_ok=True)
    samples_path = os.path.join(args.out_dir, "samples.csv")
    formats.write_samples(samples_path, ds, meta={**desc, "rng": "pcg64", "seed": args.seed})
    formats.write_state(os.path.join(args.out_dir, "state.csv"), state, meta=desc)
    run_meta = {
        "version": 1, "command": "simulate", "rng": "pcg64",
        "format": f"{formats.FORMAT_TAG} {formats.FORMAT_VERSION}",
        "M": args.cutoff, **asdict(plan),
        "total_samples": plan.total_samples, "truncation_deficit": state.deficit,
        **desc,
    }
    formats.write_report(os.path.join(args.out_dir, "metadata.json"), run_meta)
    print(f"wrote {plan.total_samples} samples to {samples_path}")
    return 0


def cmd_reconstruct(args) -> int:
    from dataclasses import replace

    from . import formats, patterns, reconstruct

    t0 = time.perf_counter()
    ds, _ = formats.read_samples(args.samples)
    if args.symmetrize:
        # the file's phases lie in [0, pi) on its own grid of n_phi phases,
        # half of which double_by_symmetry fills by X_{phi+pi} = -X_phi
        if ds.n_phi % 2:
            raise DataError(f"--symmetrize needs an even n_phi, the samples file has {ds.n_phi}")
        ds = reconstruct.double_by_symmetry(replace(ds, n_phi=ds.n_phi // 2))
    if args.beta is not None:
        beta = float(args.beta)
    elif args.beta_policy == "balanced":
        beta = patterns.balanced_beta(ds.values)
    else:
        beta = patterns.choose_beta(ds.values)
    cfg = patterns.PatternConfig(cutoff=args.cutoff, beta=beta,
                                 precision=args.precision)
    est = reconstruct.estimate(ds, cfg, args.estimator, n_bin=args.n_bin,
                               max_diag=args.max_diag,
                               bin_correction=args.bin_correction)
    norm = reconstruct.check_normalization(est)
    os.makedirs(args.out_dir, exist_ok=True)
    for fname, mat, part in (
        ("rho_re.csv", est.rho.real, "re"),
        ("rho_im.csv", est.rho.imag, "im"),
        ("err_re.csv", est.err_re, "re"),
        ("err_im.csv", est.err_im, "im"),
    ):
        name = fname.split("_")[0]
        formats.write_matrix(os.path.join(args.out_dir, fname), mat,
                             meta={"name": name, "part": part})
    report = {
        "version": 1, "command": "reconstruct", "M": args.cutoff, **est.meta,
        "precision": args.precision, **norm,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }
    formats.write_report(os.path.join(args.out_dir, "report.json"), report)
    print(f"trace = {norm['trace']:.6f} +- {norm['trace_err']:.6f} "
          f"(compatible with 1: {norm['compatible']})")
    return 0


def _read_matrix_pair(first, second):
    """The matrices of two matrix files, which must have the same size."""
    from . import formats

    a, b = (formats.read_matrix(path)[0] for path in (first, second))
    if a.shape != b.shape:
        raise DataError(f"matrix files disagree on size: {a.shape} vs {b.shape}")
    return a, b


def cmd_wigner(args) -> int:
    from . import formats, wigner

    re_mat, im_mat = _read_matrix_pair(args.rho_re, args.rho_im)
    dm = wigner.DiagonalDensityMatrix.from_matrix(re_mat + 1j * im_mat)
    r, theta = wigner.polar_grid(dm.M, n_r=args.n_r, n_theta=args.n_theta,
                                 r_max=args.r_max)
    grid = wigner.wigner_polar(dm, r, theta)
    # the method key names the lambda recurrence wigner_polar runs
    meta = {"M": dm.M, "method": "recurrence1"}
    formats.write_wigner(args.out, grid.r, grid.theta, grid.W,
                         meta={**meta, "coords": "polar"})
    if args.cartesian:
        x, y, W_xy = wigner.cartesian_resample(grid, n=args.n_xy)
        formats.write_wigner(args.cartesian, y, x, W_xy.T,
                             meta={**meta, "coords": "cartesian"})
    print(f"wrote Wigner grid ({grid.r.size} x {grid.theta.size}) to {args.out}")
    return 0


def cmd_report(args) -> int:
    import numpy as np

    from . import formats, reconstruct

    rho_re, err_re = _read_matrix_pair(args.rho_re, args.err_re)
    est = reconstruct.DensityMatrixEstimate.from_matrices(
        rho_re, err_re, np.zeros_like(err_re), meta={}
    )
    report = {"version": 1, "command": "report", "M": est.M}
    report.update(reconstruct.check_normalization(est))
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        formats.write_report(args.out, report)
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    # one "warning: ..." line per library warning; the caller's state comes back
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            if getattr(args, "config", None):
                _apply_config(args.config, args)
            if getattr(args, "threads", None) is not None:
                _set_thread_env(int(args.threads))
            return args.func(args)
        except (UsageError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except NumericalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (DataError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
