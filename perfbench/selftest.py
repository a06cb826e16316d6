"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, with a value, for
every workload with and without tracing; that the seed reaches only the
generated argv and keeps q = 5, 7, 11 in `verify afe`; that a forced wrong
result and a report that changes between passes both lower pass_ratio; and
that a directory holding only the benchmark's own files exits non-zero
without a result.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

os.environ.update(run.PINNED_ENV)
sys.path.insert(0, str(run.SRC))

import fracmoment.lvalues as lvalues  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = run.OUT / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_metrics(bench: dict) -> None:
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    expect(layer == set(tracing.metric_names(workloads.all_slugs())),
           "BENCHMARK.json per_layer matches the metrics the tracer computes")
    setup = run.measure_setup(1)
    expect(len(setup) == 1 and setup[0] > 0, "setup is measured in a fresh process")
    for w in workloads.WORKLOADS:
        res = harness.run_workload(w, 1, 0, False, OUT, tiny=True)
        names = set(res["metrics"]) | {"setup_s"}
        expect(names == e2e, f"{w}: untraced run emits every end-to-end metric")
        expect(all(v > 0 for v, _ in res["metrics"].values()), f"{w}: no end-to-end metric is 0")
        expect(res["failed"] == 0 and res["metrics"]["pass_ratio"][0] == 1.0, f"{w}: tiny run passes")
        res = harness.run_workload(w, 1, 0, True, OUT, tiny=True)
        expect(set(res["metrics"]) == layer, f"{w}: traced run emits every per-layer metric")
        cov = res["metrics"]["trace.coverage"][0]
        expect(0.9 < cov <= 1.0, f"{w}: trace coverage {cov:.4f} in (0.9, 1]")
        expect(res["failed"] == 0, f"{w}: traced run passes")


def check_seeds() -> None:
    for w in workloads.WORKLOADS:
        a = [c.argv for c in workloads.commands(w, 7, OUT)]
        expect(a == [c.argv for c in workloads.commands(w, 7, OUT)], f"{w}: same seed, same argv")
        expect(a != [c.argv for c in workloads.commands(w, 8, OUT)], f"{w}: seed changes the argv")
    for seed in range(5):
        afe = workloads.commands("many_small_q", seed, OUT)[0].argv
        qmin, qmax = int(afe[afe.index("--qmin") + 1]), int(afe[afe.index("--qmax") + 1])
        expect(qmin <= 5 and qmax >= 11, f"seed {seed}: verify afe keeps q = 5, 7, 11")


def check_faults() -> None:
    true_afe = lvalues.afe_squares
    calls = []

    def wrong(table, xmin=1e-3):
        return true_afe(table, xmin) + 1e-3

    def drifting(table, xmin=1e-3):
        calls.append(1)
        return true_afe(table, xmin) + 1e-12 * len(calls)

    for fake, what in ((wrong, "a wrong AFE result"), (drifting, "a report that changes between passes")):
        print(f"injecting {what}; the failures the harness reports next are expected")
        lvalues.afe_squares = fake
        try:
            res = harness.run_workload("many_small_q", 1, 0, False, OUT, tiny=True)
        finally:
            lvalues.afe_squares = true_afe
        expect(res["failed"] > 0 and res["metrics"]["pass_ratio"][0] < 1.0, f"{what} lowers pass_ratio")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    bench = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run(bench["command"] + ["--workload", "few_large_q", "--seed", "1", "--seconds", "1",
                                              "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "a bare directory exits non-zero without a result")
    shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the harness workloads")
    harness.MIN_PASSES = 2
    OUT.mkdir(parents=True, exist_ok=True)
    check_seeds()
    check_bare_directory()
    check_metrics(bench)
    check_faults()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
