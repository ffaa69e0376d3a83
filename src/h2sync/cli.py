"""Command-line front end.

Subcommands: check, synth, analyze, simulate, reproduce-case1,
reproduce-case2.  Exit codes: 0 success, 1 solvability failure,
2 input error (including unreadable files), 3 numerical failure or any
other error.

`simulate` and `reproduce-*` design once and pass their rho values
through one ordered map of runs that each realize and simulate one rho:
the builtin `map` in process, or a pool's `map` over forked workers,
one per usable core up to the number of rho values.  Output files,
stdout and failures are those of the serial order: the first failure
in rho order is reported, the runs before it keep their files and
lines, and no later run leaves a file.
"""

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import cases
from .closedloop import probe_to_csv, rho_scaling_probe
from .conditions import full_report, parse_model
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    H2SyncError,
    ParseError,
    PreconditionFailed,
    RhoOutOfRange,
)
from .graph import parse_graph
from .linalg import require_rho
from .protocol import design, realization_to_text
from .sim import SimConfig, _max_pair_error, rms, trajectory_blocks

EXIT_OK = 0
EXIT_SOLVABILITY = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (ParseError, ConfigInvalid, DimensionMismatch, OSError)
_SOLVABILITY_ERRORS = (PreconditionFailed, RhoOutOfRange)


def _rho_list(text):
    """The --rho list: numbers >= 1, no two alike under %g (which names their outputs)."""
    try:
        rhos = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rho list {text!r}")
    if not rhos:
        raise argparse.ArgumentTypeError("rho list must be nonempty")
    try:
        for r in rhos:
            require_rho(r)
    except RhoOutOfRange as exc:
        raise argparse.ArgumentTypeError(str(exc))
    for i, r in enumerate(rhos):
        for q in rhos[:i]:
            if f"{q:g}" == f"{r:g}":
                raise argparse.ArgumentTypeError(
                    f"rho values {q!r} and {r!r} both print as {r:g} and would share output files")
    return rhos


def build_parser():
    ap = argparse.ArgumentParser(
        prog="h2sync",
        description=(
            "Protocol synthesis and analysis for scale-free H2 almost state "
            "synchronization of linear multi-agent networks."
        ),
        epilog=(
            "Output files (UTF-8): analysis.csv has columns "
            "rho,h2,rho_times_h2,spectral_abscissa; trajectory CSVs have "
            "t, x_1[1..n], ..., x_N[1..n], sync_error; summary.csv has "
            "case,rho,delta,seed,rms_sync_error."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True):
        p.add_argument("--model", required=True, help="model file (n m p w header, then A B C E)")
        if graph:
            p.add_argument("--graph", required=True, help="graph file (N, then edges `i j w` or dense rows)")
        p.add_argument("--out", default=".", help="output directory")

    def add_protocol(p):
        p.add_argument("--protocol", choices=("p1", "p2"), required=True)
        p.add_argument("--rho", type=_rho_list, required=True,
                       help="comma-separated list, each >= 1")
        p.add_argument("--delta", type=float, default=None,
                       help="fixed low-gain parameter (p2); default: halving search")

    def add_sim(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--t-final", type=float, default=50.0)
        p.add_argument("--noise", choices=("off", "white"), default="off")
        p.add_argument("--integrator", choices=("rk4", "zoh"), default="rk4")

    p = sub.add_parser("check", help="run the solvability conditions")
    add_common(p)
    p.add_argument("--protocol", choices=("p1", "p2"), default=None,
                   help="which protocol's conditions to check; default inferred from C")

    p = sub.add_parser("synth", help="synthesize protocol realizations")
    add_common(p, graph=False)
    add_protocol(p)

    p = sub.add_parser("analyze", help="H2 scaling probe over rho")
    add_common(p)
    add_protocol(p)

    p = sub.add_parser("simulate", help="simulate and write trajectory CSVs")
    add_common(p)
    add_protocol(p)
    add_sim(p)

    for case in ("reproduce-case1", "reproduce-case2"):
        p = sub.add_parser(case, help=f"run the built-in {case[-5:]} benchmark")
        p.add_argument("--out", default=".")
        add_sim(p)
    return ap


def _load_model(args):
    return parse_model(Path(args.model).read_text())


def _load_graph(args):
    return parse_graph(Path(args.graph).read_text())


def _outdir(args):
    """The --out directory, made if need be, with run_config.txt in it
    recording every argument of the run."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = "\n".join(f"{k}={v}" for k, v in sorted(vars(args).items())) + "\n"
    (out / "run_config.txt").write_text(text)
    return out


def cmd_check(args):
    report = full_report(_load_model(args), _load_graph(args), args.protocol)
    text = report.to_text()
    sys.stdout.write(text)
    out = _outdir(args)
    (out / "report.txt").write_text(text)
    report.require()
    return EXIT_OK


def cmd_synth(args):
    des = design(_load_model(args), args.protocol)
    out = _outdir(args)
    for rho in args.rho:
        real = des.realize(rho, args.delta)
        path = out / f"protocol_{args.protocol}_rho{rho:g}.txt"
        path.write_text(realization_to_text(real))
        print(f"rho={rho:g}: wrote {path}" + (
            f" (delta={real.delta:g})" if real.kind == "p2" else ""))
    return EXIT_OK


def cmd_analyze(args):
    model, g = _load_model(args), _load_graph(args)
    rows = rho_scaling_probe(model, g, args.protocol, args.rho, delta=args.delta)
    csv = probe_to_csv(rows)
    out = _outdir(args)
    (out / "analysis.csv").write_text(csv)
    sys.stdout.write(csv)
    return EXIT_OK


def _trajectory_csv(t, states, sync):
    """Trajectory CSV rows t, x_1[1..n], ..., x_N[1..n], sync_error for
    a block of steps, every value formatted as %.10g."""
    block = np.column_stack([t, states.reshape(len(t), -1), sync])
    row = ",".join(["%.10g"] * block.shape[1]) + "\n"
    return row * len(block) % tuple(block.ravel().tolist())


def _simulate_one(des, g, args, delta, rho, path):
    """One rho's run, the same call in a worker or in process: realize
    rho, stream its trajectory CSV to `path` block by block and return
    the realization's delta and the tail RMS of its sync error.  A run
    that fails leaves no file."""
    cfg = SimConfig(
        model=des.model, graph=g, protocol=des.realize(rho, delta),
        t_final=args.t_final, dt=args.dt, noise=args.noise,
        seed=args.seed, integrator=args.integrator,
    )
    N, n = cfg.graph.n_agents, cfg.model.n
    cols = [f"x_{i}[{k}]" for i in range(1, N + 1) for k in range(1, n + 1)]
    sync = []
    try:
        with path.open("w") as fh:
            fh.write(",".join(["t", *cols, "sync_error"]) + "\n")
            for i, states in trajectory_blocks(cfg):
                se = _max_pair_error(states)
                fh.write(_trajectory_csv(np.arange(i, i + len(se)) * cfg.dt, states, se))
                sync.append(se)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return cfg.protocol.delta, rms(np.concatenate(sync))


def _pool(runs):
    """A pool of forked workers, one per usable core up to `runs`, or a
    null context (None) when that is one worker or fork is unavailable.

    Fork, not spawn: a spawned worker would import numpy and scipy again,
    which costs about as much as a run.  The executor forks its workers
    before it starts its own threads, and the CLI runs no other thread."""
    import multiprocessing

    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    workers = min(runs, cores)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return contextlib.nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _run_simulations(des, g, rhos, delta, args, out, case_name):
    """Map `_simulate_one` over the rho values, in process or in forked
    workers, and report the runs in rho order.  Output and failures are
    those of a serial loop: the first failure in rho order, realizing or
    running, is raised, the runs before it are printed and keep their
    files, and no later run leaves a file or a summary."""
    paths = [out / f"trajectory_{case_name}_rho{rho:g}.csv" for rho in rhos]
    summary = ["case,rho,delta,seed,rms_sync_error"]
    run = functools.partial(_simulate_one, des, g, args, delta)
    try:
        # a failed result makes the pool's map cancel the runs not yet
        # started, and leaving the pool awaits the running ones
        with _pool(len(rhos)) as pool:
            results = (map if pool is None else pool.map)(run, rhos, paths)
            for rho, traj, (d, rms_sync) in zip(rhos, paths, results):
                d = "" if d is None else f"{d:.10g}"
                summary.append(f"{case_name},{rho:g},{d},{args.seed},{rms_sync:.10g}")
                print(f"rho={rho:g}: rms_sync_error={rms_sync:.6g} -> {traj}")
    except BaseException as exc:
        # the runs after the failed one may have finished in workers, and
        # a worker killed mid-run cannot remove its own file
        failed = len(summary) - 1
        for traj in paths[failed:]:
            traj.unlink(missing_ok=True)
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(exc, BrokenProcessPool):
            raise H2SyncError(f"the run for rho={rhos[failed]:g} was lost: {exc}") from None
        raise
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    return EXIT_OK


def cmd_simulate(args):
    model, g = _load_model(args), _load_graph(args)
    des = design(model, args.protocol, g)
    out = _outdir(args)
    return _run_simulations(des, g, args.rho, args.delta, args, out, "custom")


def cmd_reproduce(args, which):
    g = cases.case1_graph() if which == 1 else cases.case2_graph()
    out = _outdir(args)
    return _run_simulations(design(cases.triple_integrator(), "p2", g), g, cases.CASE_RHOS,
                            cases.CASE_DELTA, args, out, f"case{which}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "delta", None) is not None and args.protocol == "p1":
        parser.error("argument --delta: applies to --protocol p2 only")
    handlers = {
        "check": cmd_check,
        "synth": cmd_synth,
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "reproduce-case1": lambda a: cmd_reproduce(a, 1),
        "reproduce-case2": lambda a: cmd_reproduce(a, 2),
    }
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _SOLVABILITY_ERRORS as exc:
        print(f"solvability error: {exc}", file=sys.stderr)
        return EXIT_SOLVABILITY
    except H2SyncError as exc:  # every other toolkit error is numerical
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # a defect; exit 1 stays for solvability
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
