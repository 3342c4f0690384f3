"""beamsign benchmark: one seeded workload, timed, with every output checked.

    python3 bench/run.py --workload corpus|kernels|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see BENCHMARK.json).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "kernels", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "beamsign" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'beamsign'}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, here and in every child (set before numpy is
    # first imported): on a small shared host a multi-threaded BLAS call waits
    # for its slowest thread, which makes kernel timings swing run to run.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    import beamsign

    if Path(beamsign.__file__).resolve().parent != (SRC / "beamsign").resolve():
        print(f"error: imported beamsign from {beamsign.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
