"""Run one h2sync benchmark workload and print its metrics.

    python3 bench/run.py --workload n_sweep --seed 3 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/` of
the same checkout, never from an installed copy.  Human-readable lines
(environment, checks, workload figures) come first; the last line of
standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit code 0 means every check
passed, 1 that an operation or check failed, 2 that the package could
not be loaded.
"""

import os

# one BLAS thread, set before numpy loads: with two threads the same H2
# solve was slower and far less repeatable (figures in README.md)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("reproduce", "mc_rms", "n_sweep", "design")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import h2sync
    except ImportError as exc:
        print(f"cannot import h2sync from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(h2sync.__file__).resolve().is_relative_to(SRC):
        print(f"h2sync was loaded from {h2sync.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness

    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed)
        return 0
    print("env " + json.dumps(harness.environment()), flush=True)
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             setup_repeats=harness.SETUP_REPEATS, script=Path(__file__))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
