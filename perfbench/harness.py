"""Closed-loop runner: passes over a workload's command list, with checks.

One client runs the commands of a workload back to back through
`fracmoment.cli.main(argv)` in this process, one pass after another.  The
L-value caches are cleared before each command, so every command pays what a
separate CLI invocation pays.  Each command run is gated on:

* exit code 0 (argparse exits and exceptions count as failures),
* every output file present, CSV exports with the expected row count,
* the JSON report's `pass` and every entry of its `checks`,
* byte-identical outputs (sha256) across all passes of the run.

Any miss counts toward `failed`; `attempted` counts command runs plus report
checks.  `accuracy_digits` is the minimum over the tolerance-gated checks of
log10(tol / value); checks labeled as a sanity band are not accuracy
statements and are left out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import fracmoment.cli as cli
import fracmoment.lvalues as lvalues

import tracing
import workloads

MIN_PASSES = 3
MIN_TRACED_PASSES = 1
# no pass starts once the run has used this long, beyond the minimum of two
# passes that the reproducibility check needs
DEADLINE_S = 120.0
DIGITS_CAP = 17.0


class Gate:
    """Correctness bookkeeping over all command runs of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, list[str]] = {}
        self.digits: list[float] = []

    def miss(self, slug: str, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {slug}: {why}", file=sys.stderr)

    def check(self, cmd: workloads.Command, code, first_pass: bool) -> None:
        self.attempted += 1
        if code != 0:
            return self.miss(cmd.slug, f"exit code {code}")
        missing = [p for p in cmd.outputs if not p.is_file()]
        if missing:
            return self.miss(cmd.slug, f"missing output {missing[0].name}")
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in cmd.outputs]
        if cmd.slug not in self.digests:
            self.digests[cmd.slug] = digests
        elif digests != self.digests[cmd.slug]:
            return self.miss(cmd.slug, "outputs differ from the first pass")
        for path, rows in cmd.csv_rows:
            got = len(path.read_text().splitlines()) - 1
            if got != rows:
                return self.miss(cmd.slug, f"{path.name} has {got} rows, expected {rows}")
        if cmd.outputs[0].suffix != ".json":
            return None
        report = json.loads(cmd.outputs[0].read_text())
        if report.get("pass") is not True:
            self.miss(cmd.slug, "report pass is not true")
        for c in report.get("checks", []):
            self.attempted += 1
            if c.get("pass") is not True:
                self.miss(cmd.slug, f"check failed: {c.get('name')}")
            elif first_pass:
                self._digits(c)
        return None

    def _digits(self, c: dict) -> None:
        tol, value = c.get("tol"), c.get("value")
        if tol is None or tol <= 0 or "band" in c.get("name", ""):
            return
        if value <= 0:
            self.digits.append(DIGITS_CAP)
        else:
            self.digits.append(min(DIGITS_CAP, math.log10(tol / value)))


def run_pass(cmds, gate: Gate, first_pass: bool, tracer=None, cmd_base: int = 0) -> list[float]:
    """Run every command once; return the wall time of each command."""
    times = []
    for k, cmd in enumerate(cmds):
        for p in cmd.outputs:
            p.unlink(missing_ok=True)
        if tracer is not None:
            tracer.command = cmd_base + k
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                lvalues.clear_caches()
                code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing command is a failed command, not a crashed benchmark
            code = "exception"
            sink.write(traceback.format_exc())
        times.append(time.perf_counter() - t0)
        if code != 0:
            sys.stderr.write(sink.getvalue()[-2000:])
        gate.check(cmd, code, first_pass)
    return times


def pass_time(passes: list[list[float]]) -> float:
    """Sum over commands of each command's median time across passes.

    Contention on a shared host comes in phases of seconds to minutes and
    only ever adds time.  Over five sets of five to ten runs on a 2-vCPU VM,
    the run-to-run spread (IQR / median) of this statistic was at most 0.10,
    against up to 0.12 for the median pass and up to 0.17 for the fastest.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, outdir: Path,
                 tiny: bool = False, after_pass=None) -> dict:
    """Run passes of `workload` for `seconds`; return the result fields.

    Untraced: run_s, peak_rss_mb, accuracy_digits, pass_ratio.  run_s is the
    time of one pass with each command at its median over the run's passes
    (see pass_time).
    Traced: untraced passes for the first half of the time, then traced
    passes, and the per-layer metrics as medians over the traced passes.
    after_pass, when given, is called after each untraced pass.
    """
    workdir = outdir / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmds = workloads.commands(workload, seed, workdir, tiny=tiny)
    gate = Gate()
    untraced: list[list[float]] = []
    t_start = time.perf_counter()

    def more(done: int, minimum: int, budget: float) -> bool:
        elapsed = time.perf_counter() - t_start
        return done < 2 or (done < minimum and elapsed < DEADLINE_S) or elapsed < budget

    while more(len(untraced), 2 if trace else MIN_PASSES, seconds / 2 if trace else seconds):
        untraced.append(run_pass(cmds, gate, first_pass=not untraced))
        if after_pass is not None:
            after_pass()
    run_s = pass_time(untraced)

    if not trace:
        metrics = {
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (min(gate.digits, default=0.0), "digits"),
            "pass_ratio": (1.0 - gate.failed / gate.attempted, "ratio"),
        }
        return {"attempted": gate.attempted, "failed": gate.failed, "cmd_s": untraced, "metrics": metrics}

    tracer = tracing.Tracer()
    tracer.install()
    traced: list[list[float]] = []
    pass_ids: list[dict[int, str]] = []
    try:
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - t_start < seconds:
            base = len(traced) * len(cmds)
            pass_ids.append({base + k: c.slug for k, c in enumerate(cmds)})
            traced.append(run_pass(cmds, gate, first_pass=False, tracer=tracer, cmd_base=base))
    finally:
        tracer.uninstall()
    per_pass = [tracer.layer_metrics(ids, sum(s)) for ids, s in zip(pass_ids, traced)]
    metrics = {name: (statistics.median(m.get(name, 0.0) for m in per_pass), _unit(name))
               for name in tracing.metric_names(workloads.all_slugs())}
    metrics["trace.overhead"] = (pass_time(traced) / run_s, "ratio")
    tracer.write_jsonl(outdir / f"spans-{workload}.jsonl", {k: v for ids in pass_ids for k, v in ids.items()})
    return {"attempted": gate.attempted, "failed": gate.failed, "cmd_s": untraced,
            "traced_cmd_s": traced, "spans": len(tracer.start), "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "reporting.bytes":
        return "B"
    if name.endswith(("_ratio", ".coverage", ".overhead")):
        return "ratio"
    return "count"
