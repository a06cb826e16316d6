"""Outside-in layer tracing for the benchmark's traced run.

`Tracer.install()` wraps every public function of the layer modules (and the
public class methods of their classes, such as `FactorSieve.build`) at every
binding site: the defining module and each `fracmoment` module that imported
the name, e.g. `moments.oracle_values` or `contours.zeta_values`.  Nothing
under `src/` is edited; `uninstall()` puts the originals back.

Each call becomes a span (name, start, end, parent, command id) kept in
memory in flat arrays, plus optional work counters computed from the call's
arguments or result.  `layer_metrics()` turns the spans of one pass into the
per-layer metrics; `write_jsonl()` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from array import array
from collections import defaultdict

from fracmoment.lvalues import WWeightSpec

LAYERS = ("sieve", "characters", "lvalues", "moments", "contours", "cli", "reporting")
# modules that may hold a binding of a layer function
BINDING_MODULES = ("fracmoment",) + tuple(f"fracmoment.{m}" for m in LAYERS + ("util",))

# L-value batch routes memoized per modulus: a call that does no traced work
# below it was answered from the cache
BATCH = ("lvalues.oracle_values", "lvalues.smoothed_values", "lvalues.afe_squares")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _afe_pairs(q: int, xmin: float) -> int:
    """#{(m, n) : m n <= Dmax} with Dmax = q/(pi xmin), by the hyperbola method."""
    dmax = int(q / (math.pi * xmin))
    r = math.isqrt(dmax)
    return 2 * sum(dmax // n for n in range(1, r + 1)) - r * r


def _w_counters(args, kwargs, _):
    points = int(getattr(_arg(args, kwargs, 0, "x"), "size", 1))
    nodes = (_arg(args, kwargs, 2, "spec") or WWeightSpec()).nodes
    return {"lvalues.w_points": points, "lvalues.w_kernel_bytes": points * nodes * 16}


def _size(arg_pos, arg_name, metric, fn=lambda v: v):
    def counters(args, kwargs, _):
        return {metric: fn(_arg(args, kwargs, arg_pos, arg_name))}
    return counters


def _order(arg_pos, metric, extra=0):
    return _size(arg_pos, "table", metric, lambda t: t.order + extra)


def _naive_products(args, kwargs, _):
    table = _arg(args, kwargs, 0, "table")
    idx = _arg(args, kwargs, 2, "indices")
    return {"characters.naive_products": table.order * (table.order if idx is None else len(idx))}


def _oracle_terms(args, kwargs, _):
    y = float(_arg(args, kwargs, 3, "y"))
    return {"contours.oracle_n": math.ceil(y) - 1 if y.is_integer() else math.floor(y)}


# span name -> counters(args, kwargs, result) -> {metric: amount}
COUNTERS = {
    "sieve.divisor_series": _size(1, "cutoff", "sieve.coeffs"),
    "sieve.mobius_series": _size(0, "cutoff", "sieve.coeffs"),
    "sieve.dirichlet_convolve": _size(2, "cutoff", "sieve.convolve_n"),
    "characters.dft_all_characters": _order(0, "characters.dft_points"),
    "characters.inverse_dft_all_characters": _order(0, "characters.dft_points"),
    "characters.naive_character_sums": _naive_products,
    "lvalues.w_weight_many": _w_counters,
    "lvalues.afe_squares": lambda a, k, _: {
        "lvalues.afe_pairs": _afe_pairs(_arg(a, k, 0, "table").q, float(_arg(a, k, 1, "xmin", 1e-3)))},
    "lvalues.smoothed_values": lambda a, k, _: {
        "lvalues.smoothed_terms": int(float(_arg(a, k, 1, "tail_multiplier", 40.0))
                                      * _arg(a, k, 0, "table").q ** 1.25)},
    "lvalues.hurwitz_zeta_over_a": _size(1, "a", "lvalues.hurwitz_points", lambda a: int(getattr(a, "size", 1))),
    "lvalues.zeta_values": _size(0, "s", "lvalues.zeta_points", lambda s: int(getattr(s, "size", 1))),
    "contours.paired_shift_oracle": _oracle_terms,
    "moments.moment_sum": _order(0, "moments.char_terms", -1),
    "moments.s_lower": _order(1, "moments.char_terms", -1),
    "moments.s_upper": _order(1, "moments.char_terms", -1),
    "moments.p_fourth_sum": _order(1, "moments.char_terms", -1),
    "reporting.emit": lambda a, k, text: {"reporting.bytes": len(text.encode())},
}

# metric -> span names whose outermost calls it times
TIMED = {
    "sieve.build_s": ("sieve.FactorSieve.build",),
    "sieve.generate_s": ("sieve.divisor_series", "sieve.mobius_series"),
    "sieve.convolve_s": ("sieve.dirichlet_convolve",),
    "sieve.shifted_s": ("sieve.shifted_series",),
    "characters.table_s": ("characters.build_table",),
    "characters.dft_s": ("characters.dft_all_characters", "characters.inverse_dft_all_characters"),
    "characters.naive_s": ("characters.naive_character_sums",),
    "characters.sums_s": ("characters.character_sum", "characters.parity_restricted_sum",
                          "characters.parity_sum_expected"),
    "characters.fold_s": ("characters.fold_residues",),
    "lvalues.w_s": ("lvalues.w_weight_many",),
    "lvalues.afe_s": ("lvalues.afe_squares",),
    "lvalues.smoothed_s": ("lvalues.smoothed_values",),
    "lvalues.oracle_s": ("lvalues.oracle_values",),
    "lvalues.zeta_s": ("lvalues.zeta_values",),
    "contours.oracle_s": ("contours.paired_shift_oracle",),
    "contours.eta_s": ("contours.eta_stability",),
    "contours.zetapow_s": ("contours.zeta_frac_power", "contours.zeta_power_line"),
    "contours.weights_s": ("contours.perron_weight", "contours.perron_weight_closed_form",
                           "contours.hankel_recip_gamma"),
}
# metric -> span names it counts
CALLS = {
    "sieve.builds": ("sieve.FactorSieve.build",),
    "characters.tables": ("characters.build_table",),
    "lvalues.w_calls": ("lvalues.w_weight_many",),
}
COUNTED = ("sieve.coeffs", "sieve.convolve_n", "characters.dft_points", "characters.naive_products",
           "lvalues.w_points", "lvalues.w_kernel_bytes", "lvalues.afe_pairs", "lvalues.smoothed_terms",
           "lvalues.hurwitz_points", "lvalues.zeta_points", "contours.oracle_n", "moments.char_terms",
           "reporting.bytes")


def metric_names(slugs) -> list[str]:
    """Every per-layer metric the traced run reports, given all command slugs."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += ["sieve.calls", "moments.calls", "lvalues.batch_reuse_ratio", "contours.numeric_s"]
    names += list(TIMED) + list(CALLS) + list(COUNTED)
    names += [f"cli.{slug}_s" for slug in slugs]
    names += ["trace.coverage", "trace.overhead"]
    return names


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.counters: dict[int, dict] = {}
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        counters = COUNTERS.get(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.cmd.append(self.command)
            self.end.append(math.nan)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if counters is not None:
                self.counters[i] = counters(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function at each of its binding sites."""
        modules = [importlib.import_module(m) for m in BINDING_MODULES]
        wrapped: dict[int, object] = {}  # id(original) -> wrapper; modules keep the originals alive
        for layer in LAYERS:
            mod = importlib.import_module(f"fracmoment.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for mname, member in vars(obj).items():
                        if not mname.startswith("_") and isinstance(member, (classmethod, staticmethod)):
                            inner = self._wrap(member.__func__, f"{layer}.{attr}.{mname}")
                            self._patch(obj, mname, type(member)(inner))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, cmd_ids: dict[int, str], pass_s: float) -> dict:
        """Per-layer metrics of the spans whose command id is in cmd_ids (one pass).

        cmd_ids maps each command id of the pass to its slug; pass_s is the
        traced pass time.  trace.overhead needs the untraced run and is left
        to the caller.
        """
        spans = [i for i in range(len(self.start)) if self.cmd[i] in cmd_ids]
        dur = {i: self.end[i] - self.start[i] for i in spans}
        name = {i: self.names[self.name[i]] for i in spans}
        by_name = defaultdict(list)
        children = defaultdict(list)
        for i in spans:
            by_name[name[i]].append(i)
            if self.parent[i] >= 0:
                children[self.parent[i]].append(i)

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for i in spans:
            out[name[i].split(".", 1)[0] + ".self_s"] += dur[i] - sum(dur[c] for c in children[i])
        for metric, names in TIMED.items():
            out[metric] = sum(dur[i] for n in names for i in by_name[n] if not self._inside(i, names, name))
        for metric, names in CALLS.items():
            out[metric] = sum(len(by_name[n]) for n in names)
        for layer in ("sieve", "moments"):
            out[f"{layer}.calls"] = sum(len(v) for n, v in by_name.items() if n.startswith(layer + "."))

        batch = [i for n in BATCH for i in by_name[n]]
        reused = {i for i in batch if not children[i]}
        out["lvalues.batch_reuse_ratio"] = len(reused) / len(batch) if batch else 0.0
        for metric in COUNTED:
            out[metric] = 0
        for i in spans:
            if i in self.counters and i not in reused:
                for metric, amount in self.counters[i].items():
                    out[metric] += amount
        out["contours.numeric_s"] = sum(
            dur[i] - sum(dur[c] for c in children[i] if name[c] == "contours.paired_shift_oracle")
            for i in by_name["contours.paired_shift_check"])

        for slug in cmd_ids.values():
            out[f"cli.{slug}_s"] = 0.0
        for i in by_name["cli.main"]:
            if self.parent[i] < 0:
                out[f"cli.{cmd_ids[self.cmd[i]]}_s"] += dur[i]
        out["trace.coverage"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / pass_s
        return out

    def _inside(self, i: int, names, name: dict) -> bool:
        """Whether span i runs below another span of `names`."""
        p = self.parent[i]
        while p >= 0:
            if name[p] in names:
                return True
            p = self.parent[p]
        return False

    def write_jsonl(self, path, slugs: dict[int, str]) -> None:
        """One JSON object per span: name, start, end, parent, cmd, slug, counters."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                rec = {"span": i, "name": self.names[self.name[i]], "start": self.start[i],
                       "end": self.end[i], "parent": self.parent[i], "cmd": self.cmd[i],
                       "slug": slugs.get(self.cmd[i])}
                if i in self.counters:
                    rec["counters"] = self.counters[i]
                fh.write(json.dumps(rec) + "\n")
