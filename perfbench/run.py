"""fracmoment benchmark: three CLI workloads, checked results, layer traces.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload many_small_q --seed 1 --seconds 25 --trace 0

The program is imported from `src/` of the checkout; nothing is installed.
The run pins FRACMOMENT_THREADS=1 and single-threaded BLAS/OpenMP (the plain
single-threaded baseline), then:

* --trace 0: runs passes of the workload for --seconds and reports setup_s,
  run_s, peak_rss_mb, accuracy_digits and pass_ratio.  setup_s is the median
  time of `import numpy, scipy, fracmoment` in fresh processes, sampled
  SETUP_SAMPLES times before the first pass and once after every pass, so
  the samples see the same host conditions as the passes;
* --trace 1: runs untraced passes for half the time and traced passes for the
  rest, reports the per-layer metrics, and writes the spans as JSON lines to
  .perfbench-out/spans-<workload>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the environment.
Exit code 2, with no result, when the checkout has no `src/fracmoment`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 2
PINNED_ENV = {
    "FRACMOMENT_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, scipy, fracmoment\n"
    "sys.stdout.write(repr(time.perf_counter() - t0))\n"
)


def measure_setup(samples: int) -> list[float]:
    """Seconds to import numpy, scipy and fracmoment, once per fresh process."""
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120, cwd=ROOT)
        out.append(float(proc.stdout))
    return out


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in PINNED_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("many_small_q", "few_large_q", "long_series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fracmoment" / "__init__.py").is_file():
        print(f"perfbench: no fracmoment sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy is imported anywhere in this process or its children
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)

    import fracmoment
    import harness

    if Path(fracmoment.__file__).resolve().parent != SRC / "fracmoment":
        print(f"perfbench: imported fracmoment from {fracmoment.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    res = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT,
                               after_pass=None if args.trace else lambda: setup.extend(measure_setup(1)))
    metrics = dict(res["metrics"])
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    env = environment(args.workload, args.seed)
    env.update({k: v for k, v in res.items() if k != "metrics"}, setup_samples=setup)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
