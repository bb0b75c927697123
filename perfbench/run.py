"""Benchmark runner for spectroid.

Run from the root of a checkout:

    python3 perfbench/run.py --workload category-roundtrip --seed 1 \
        --seconds 10 --trace 0

It imports the package from ``./src``, generates the workload's inputs
from the seed, and runs them in a closed loop on one BLAS thread, in
passes for about ``--seconds``; times are scaled to the speed of a
reference kernel (``speed.py``).  The last line of standard output is
the result object; the line before it is the run record (versions,
thread settings, seed, case count, passes, host slowdown, deadline,
failed cases).  With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones from a traced
pass.  Workloads are defined in ``workloads.py`` and listed with their
metrics in ``BENCHMARK.json``.
"""

import time

# setup_s counts from here, before numpy or spectroid is imported
_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Must be set before numpy loads its BLAS.
PINNED_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in PINNED_THREADS:
    os.environ[_var] = "1"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the set-up time in seconds",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "spectroid" / "__init__.py").is_file():
        print(f"no spectroid sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spectroid

    if Path(spectroid.__file__).resolve().parent != (src / "spectroid").resolve():
        print(f"imported spectroid from {spectroid.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = harness.WORKLOADS[args.workload]
        _, setup_s = harness.set_up(workload, args.seed, _T_START)
        print(setup_s)
        return 0
    record, result = harness.run(args, _T_START, PINNED_THREADS)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
