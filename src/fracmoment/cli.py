"""Command-line front door: verifications, moment computations, surveys,
contour checks, coefficient dumps.

Exit codes are a stable contract: 0 all asserted tolerances pass, 1 a
tolerance failed, 2 invalid parameters or usage, 3 output could not be
written.  Reports echo their full resolved configuration and are emitted
deterministically (fixed field order, 17-significant-digit floats), so the
same invocation produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import characters, contours, lvalues, moments, sieve
from .errors import ConvergenceError, DomainError
from .reporting import emit

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _rational(text: str, kind=float):
    """An 'r/s' literal as an exact reduced Fraction, anything else as kind(text)."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse a number from {text!r}") from exc


def parse_k(text: str) -> Fraction:
    """Rational k from an 'r/s' literal, reduced, with 0 < k <= 1."""
    k = _rational(text, Fraction)
    if not (0 < k <= 1):
        raise DomainError(f"k must lie in (0, 1], got {k}")
    return k


def _numbers(text: str, kind) -> list:
    try:
        out = [kind(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise DomainError(f"cannot parse a comma list of {kind.__name__}s from {text!r}") from exc
    if not out:
        raise DomainError(f"empty comma list {text!r}")
    return out


def _floats(text: str) -> list[float]:
    return _numbers(text, float)


def _ints(text: str) -> list[int]:
    return _numbers(text, int)


def _shifts(text: str) -> sieve.ShiftVector:
    return sieve.ShiftVector(tuple(complex(v) for v in _floats(text)))


def _check(name: str, value, tol=None, ok=None) -> dict:
    entry = {"name": name, "value": value}
    if tol is not None:
        entry["tol"] = tol
        ok = ok if ok is not None else (value < tol)
    entry["pass"] = bool(ok)
    return entry


def _write(content, path, what: str = "report") -> bool:
    """Emit content (a report dict, or CSV header and columns) to path (then
    say so) or to stdout; False once a write error is reported."""
    try:
        text = emit(content, path)
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    if path:
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return True


def _finish(report: dict, out) -> int:
    checks = report.get("checks", [])
    passed = all(c.get("pass", True) for c in checks)
    report["pass"] = passed
    if not _write(report, out):
        return EXIT_IO
    for c in checks:
        print(f"[{'PASS' if c.get('pass', True) else 'FAIL'}] {c['name']}")
    return EXIT_PASS if passed else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# verify targets: each takes its flags as keywords and returns the report
# fields that follow "command" and "params"
# ---------------------------------------------------------------------------


def _verify_convolution(s, nmax, tol) -> dict:
    checks = []
    ss = _ints(s)
    if min(ss) < 1:
        raise DomainError(f"--s values must be positive integers, got {s!r}")
    if nmax < 1:
        raise DomainError(f"--nmax must be at least 1, got {nmax}")
    for si in ss:
        d = sieve.divisor_series(Fraction(1, si), nmax)
        acc = d
        for _ in range(si - 1):
            acc = sieve.dirichlet_convolve(acc, d, nmax)
        dev = float(np.max(np.abs(acc[1:] - 1.0)))
        checks.append(_check(f"s={si} s-fold self-convolution of d_1/s is all-ones", dev, tol))
    return {"checks": checks}


def _verify_exponents(trials, seed) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    for _ in range(trials):
        s = int(rng.integers(2, 60))
        r = int(rng.integers(1, s))
        e1, e2, e3 = moments.holder_exponents(Fraction(r, s))
        total = e1 + e2 + e3
        checks.append(_check(f"exponent identity at k={r}/{s}", 0 if total == 1 else 1, ok=total == 1))
    return {"checks": checks}


def _verify_orthogonality(qmax, tol) -> dict:
    if not 3 <= qmax <= characters.QMAX:
        raise DomainError(f"--qmax must lie in [3, {characters.QMAX}], got {qmax}")
    worst_full = 0.0
    worst_parity = 0.0
    for q in range(3, qmax + 1):
        if not characters.is_prime(q):
            continue
        table = characters.build_table(q)
        # chi_j(g^k) = chi_k(g^j): the sum over the characters j that c selects, at a = g^k, is entry k of
        # the naive sums of the coefficients c(dlog a); the parity bits are read at the exponent j = dlog a
        k, a = table.dlog[1:], table.powers
        full = characters.naive_character_sums(table, np.ones(q - 1))
        worst_full = max(worst_full, float(np.abs(full - np.where(a == 1, q - 1, 0)).max()))
        for parity, sel in (("even", (table.parity[k] == 0) & (k != 0)), ("odd", table.parity[k] == 1)):
            got = characters.naive_character_sums(table, sel)
            worst_parity = max(worst_parity, float(np.abs(got - characters.parity_sum_expected(q, parity, a)).max()))
    return {"checks": [
        _check(f"full-group orthogonality, primes q <= {qmax}", worst_full, tol),
        _check(f"even/odd primitive case table, primes q <= {qmax}", worst_parity, tol),
    ]}


def _verify_afe(qmin, qmax, tol) -> dict:
    if qmax > lvalues.AFE_QMAX:
        raise DomainError(f"--qmax must be at most {lvalues.AFE_QMAX}, the AFE's limit, got {qmax}")
    checks = []
    for q in range(max(qmin, 5), qmax + 1):
        if not characters.is_prime(q):
            continue
        table = characters.build_table(q)
        sq = np.abs(lvalues.oracle_values(table)) ** 2
        afe = lvalues.afe_squares(table)
        dev = float(np.max(np.abs(afe[1:] - sq[1:])))
        checks.append(_check(f"q={q} AFE vs oracle squares", dev, tol))
    return {"checks": checks}


def _verify_smoothed(primes) -> dict:
    checks = []
    maxima = {}
    for q in _ints(primes):
        table = characters.build_table(q)
        d = np.abs(lvalues.smoothed_values(table)[1:] - lvalues.oracle_values(table)[1:])
        bound = lvalues.smoothed_band(q)
        maxima[q] = float(d.max())
        checks.append(_check(f"q={q} smoothed-sum error under 10 q^-1/8 log q = {bound:.3f}", maxima[q], bound))
    qs = sorted(maxima)
    if len(qs) >= 2:
        checks.append(
            _check(
                f"max discrepancy decreases from q={qs[0]} ({maxima[qs[0]]:.4g}) to q={qs[-1]} ({maxima[qs[-1]]:.4g})",
                maxima[qs[-1]],
                ok=maxima[qs[-1]] < maxima[qs[0]],
            )
        )
    return {"checks": checks}


def _verify_diagonal(primes, pairs, seed, tol) -> dict:
    if pairs < 1:
        raise DomainError(f"--pairs must be at least 1, got {pairs}")
    rng = np.random.default_rng(seed)
    checks = []
    for q in _ints(primes):
        table = characters.build_table(q)
        worst = 0.0
        for _ in range(pairs):
            c = rng.standard_normal(q - 1)
            e = rng.standard_normal(q - 1)
            rep = characters.diagonal_decomposition_check(table, c, e)
            worst = max(worst, rep.diff / rep.scale)
        checks.append(_check(f"q={q} diagonal decomposition over {pairs} random pairs", worst, tol))
    return {"checks": checks}


def _verify_perron(tol) -> dict:
    checks = []
    for order in (2, 3):
        for x in (2.0, math.e, 10.0, 100.0):
            got = contours.perron_weight(order, x)
            want = contours.perron_weight_closed_form(order, x)
            checks.append(_check(f"order {order} weight at x={x:g}", abs(got - want), tol))
        for x in (1 / math.e, 0.5):
            got = contours.perron_weight(order, x)
            checks.append(_check(f"order {order} vanishing at x={x:g}", abs(got), tol))
    return {"checks": checks}


def _verify_hankel(alphas, tol) -> dict:
    checks = []
    for alpha in _floats(alphas):
        got = contours.hankel_recip_gamma(alpha)
        want = 1.0 / math.gamma(alpha)
        checks.append(_check(f"alpha={alpha:g} Hankel integral vs 1/Gamma", abs(got - want), tol))
    return {"checks": checks}


def _verify_zetapow(tol) -> dict:
    checks = []
    for a, b in ((0.5, 0.5), (1 / 3, 2 / 3), (0.25, 0.25)):
        for s in (2.0, 1.1, 1 + 0.01j):
            lhs = contours.zeta_frac_power(a, s) * contours.zeta_frac_power(b, s)
            rhs = contours.zeta_frac_power(a + b, s)
            checks.append(_check(f"zeta^{a:g} * zeta^{b:g} = zeta^{a+b:g} at s={s}", abs(lhs - rhs), tol))
    z = 1e-3
    val = contours.zeta_frac_power(0.25, 1 + z)
    checks.append(
        _check("zeta^1/4(1+z) ~ z^-1/4 near the pole", abs(val * z**0.25 - 1), 1e-2)
    )
    return {"checks": checks}


def _paired_shift(triple, y, sweep, tol):
    """paired_shift_check at (m, alpha, beta) = triple over the sweep.

    Returns the report, the fields both targets write (their checks start with
    numeric vs oracle when there is a numeric value) and the ratio band.
    """
    rep = contours.paired_shift_check(*triple, y, sweep=_floats(sweep))
    ratios = [r for _, _, r in rep.sweep_rows]
    return rep, {
        "numeric": rep.numeric,
        "oracle": rep.oracle,
        "sweep_rows": [{"y": v, "oracle": o, "ratio": r} for v, o, r in rep.sweep_rows],
        "checks": [] if rep.numeric is None else [_check(f"numeric vs oracle at y={y:g}", rep.rel_err, tol)],
    }, max(ratios) / min(ratios)


def _verify_pairshift(m, alpha, beta, y, sweep, tol) -> dict:
    rep, fields, band = _paired_shift((m, alpha, beta), y, sweep, tol)
    fields["checks"].append(_check("oracle ratio stays in a factor-3 band over the sweep", band, 3.0))
    return {"gamma": rep.gamma, **fields}


def _verify_quarter(y, sweep, tol) -> dict:
    rep, fields, band = _paired_shift(contours.QUARTER, y, sweep, tol)
    low = min(o for _, o, _ in rep.sweep_rows)
    fields["checks"].append(_check("oracle positive over sweep", low, ok=low > 0))
    fields["checks"].append(_check("ratio to (log y)^13/4 in a factor-3 band", band, 3.0))
    return fields


def _verify_eta(s, w0, shifts, levels, tol) -> dict:
    rep = contours.eta_stability(s, complex(w0), _shifts(shifts), _ints(levels))
    return {
        "estimates": [complex(e) for e in rep.estimates],
        "checks": [_check("drift between successive cutoffs", rep.drift, tol)],
    }


def _verify_dft(q, seed, tol) -> dict:
    rng = np.random.default_rng(seed)
    table = characters.build_table(q)
    coeffs = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
    fast = characters.dft_all_characters(table, coeffs)
    naive = characters.naive_character_sums(table, coeffs)
    dev = float(np.max(np.abs(fast - naive)))
    back = characters.inverse_dft_all_characters(table, fast)
    rt = float(np.max(np.abs(back - coeffs)))
    return {"checks": [
        _check(f"q={q} DFT vs naive", dev, tol),
        _check("DFT round trip", rt, 1e-9),
    ]}


_SEED = 20240901
_SWEEP = "1e3,1e4,1e5,1e6"

# The check registry: target -> (function, {flag: default} for every flag the
# function reads, "tol" included when it gates on one).  The parser registers
# exactly these flags, typed by their defaults, for `verify TARGET` and
# `contour --check pairshift|quarter`; verify_report fills in the defaults.
VERIFY_TARGETS = {
    "convolution": (_verify_convolution, {"s": "2,3,5", "nmax": 10000, "tol": 1e-10}),
    "exponents": (_verify_exponents, {"trials": 10, "seed": _SEED}),
    "orthogonality": (_verify_orthogonality, {"qmax": 101, "tol": 1e-9}),
    "afe": (_verify_afe, {"qmin": 5, "qmax": 101, "tol": 1e-6}),
    "smoothed": (_verify_smoothed, {"primes": "101,1009,10007"}),
    "diagonal": (_verify_diagonal, {"primes": "101,1009,10007", "pairs": 20, "seed": _SEED, "tol": 1e-8}),
    "perron": (_verify_perron, {"tol": 1e-6}),
    "hankel": (_verify_hankel, {"alphas": "1,2,2.25,2.5", "tol": 1e-5}),
    "zetapow": (_verify_zetapow, {"tol": 1e-9}),
    "pairshift": (_verify_pairshift, {"m": 1, "alpha": 3.0, "beta": 1.0, "y": 1e4, "sweep": _SWEEP, "tol": 1e-3}),
    "quarter": (_verify_quarter, {"y": 1e4, "sweep": _SWEEP, "tol": 1e-2}),
    "eta": (_verify_eta, {"s": 2, "w0": 0.5, "shifts": "0.3", "levels": "100000,1000000", "tol": 1e-3}),
    "dft": (_verify_dft, {"q": 10007, "seed": _SEED, "tol": 1e-8}),
}


# The series registry: name -> (function, {flag: default} for every flag the
# function reads, in the order it takes them).  `dump-coeffs --series NAME`
# takes exactly these flags.  Each function looks its generator up in `sieve`
# when called, so a wrapper installed there (the benchmark's tracer) sees it.
SERIES = {
    "dalpha": (lambda a, n: sieve.divisor_series(_rational(a), n), {"alpha": "1/2", "nmax": 100}),
    "mobius": (lambda n: sieve.mobius_series(n), {"nmax": 100}),
    "weighted": (lambda A, B, x, n: sieve.weighted_poly_coeffs(A, B, x, n), {"A": 1, "B": 2, "x": 10.0, "nmax": 100}),
    "mollifier": (lambda A, B, y, n: sieve.mollifier_coeffs(A, B, y, n), {"A": 1, "B": 2, "y": 10.0, "nmax": 100}),
    "sigma": (lambda s, w, n: sieve.shifted_series("sigma", _shifts(w), s, n), {"s": 1, "shifts": "0", "nmax": 100}),
    "rho": (lambda s, w, n: sieve.shifted_series("rho", _shifts(w), s, n), {"s": 1, "shifts": "0", "nmax": 100}),
    "psi": (lambda s, w, z, n: sieve.shifted_series("psi", (_shifts(w), _shifts(z)), s, n),
            {"s": 1, "shifts": "0", "zshifts": "0", "nmax": 100}),
}


def verify_report(target: str, **params) -> dict:
    """Run one verify target on its registry defaults overridden by params.

    Returns the report: command, echoed params, the target's own fields and
    its checks.  Raises DomainError for a tol that is not finite and
    positive, a negative seed, or parameters that select no check.
    """
    func, defaults = VERIFY_TARGETS[target]
    kw = {**defaults, **params}
    if "tol" in kw and not (math.isfinite(kw["tol"]) and kw["tol"] > 0):
        raise DomainError(f"--tol must be finite and positive, got {kw['tol']}")
    if kw.get("seed", 0) < 0:  # np.random.default_rng would raise a ValueError
        raise DomainError(f"--seed must be nonnegative, got {kw['seed']}")
    report = {"command": f"verify {target}", "params": kw, **func(**kw)}
    if not report["checks"]:
        raise DomainError(f"verify {target}: these parameters select no check")
    return report


def _report_from_args(target: str, args) -> dict:
    _, flags = VERIFY_TARGETS[target]
    return verify_report(target, **{flag: getattr(args, flag) for flag in flags})


# ---------------------------------------------------------------------------
# moments / holder / survey / contour / dump-coeffs
# ---------------------------------------------------------------------------


def _params_from_args(args) -> moments.MomentParams:
    k = parse_k(args.k)
    return moments.MomentParams.make(args.q, r=k.numerator, s=k.denominator, a=args.a, y=args.y)


def _moment_report(command: str, params: moments.MomentParams, method: str, **fields) -> dict:
    """The command and its resolved parameter bundle, then the command's own fields."""
    echo = {"q": params.q, "r": params.r, "s": params.s, "x": params.x, "y": params.y, "a": params.a, "method": method}
    return {"command": command, "params": echo, **fields}


def _write_lvalues(args, table, values, squares, err) -> bool:
    """Write --lvalues-out, if given, as the per-character CSV of one lvalue_table
    result (q, j, parity, ReL, ImL, Lsq, method, err); False once a write error is reported."""
    if not args.lvalues_out:
        return True
    if values is None:
        values = np.full(table.order, complex(math.nan, math.nan))
    n = table.order - 1
    return _write((["q", "j", "parity", "ReL", "ImL", "Lsq", "method", "err"],
                   [np.full(n, table.q), np.arange(1, table.order), table.parity[1:], values[1:].real,
                    values[1:].imag, squares[1:], np.full(n, args.method), np.full(n, err)]),
                  args.lvalues_out, "L-value table")


def cmd_moments(args) -> int:
    params = _params_from_args(args)
    table = characters.build_table(params.q)
    values, squares, err = lvalues.lvalue_table(table, args.method)
    value, _, floored = moments.power_sum(squares, params.k)
    if not _write_lvalues(args, table, values, squares, err):
        return EXIT_IO
    report = _moment_report(
        "moments", params, args.method,
        moment=value,
        moment_over_phi=value / (params.q - 1),
        floored_characters=floored,
        regime_flag=params.regime_ok,
        checks=[],
    )
    return _finish(report, args.out)


def cmd_holder(args) -> int:
    params = _params_from_args(args)
    params.diagonal_length()  # refuses x^{2r} >= q, so nothing is built outside the P4 check's regime
    table = characters.build_table(params.q)
    values = moments.character_values(params, table, args.method)
    if not _write_lvalues(args, table, values.L, values.sq, values.err):
        return EXIT_IO
    rep = moments.holder_chain_check(values)
    p4 = moments.p4_bound_check(values)
    report = _moment_report(
        "holder", params, args.method,
        moment=rep.moment,
        s_lower={"re": rep.s_l.real, "im": rep.s_l.imag},
        s_upper=rep.s_u,
        p4={"lhs": p4.lhs, "rhs": p4.rhs},
        holder={"f1": rep.f1, "f2": rep.f2, "f3": rep.f3, "slack": rep.slack, "pass": rep.holds},
        regime_flag=params.regime_ok,
        checks=[
            _check("holder chain slack nonnegative", rep.slack, ok=rep.holds),
            _check("diagonal p4 bound", p4.ratio, ok=p4.holds),
        ],
    )
    return _finish(report, args.out)


def cmd_survey(args) -> int:
    k = parse_k(args.k)
    rows = moments.scaling_survey(k, _ints(args.primes), args.method)
    all_ok = all(r.band_ok for r in rows)
    if args.format == "csv":
        header = ["q", "moment_over_phi", "logq_pow_k2", "ratio"]
        content = header, [np.array([getattr(r, f) for r in rows]) for f in header]
    else:
        content = {
            "command": "survey",
            "params": {"k": k, "primes": args.primes, "method": args.method},
            "rows": [dataclasses.asdict(r) for r in rows],
            "pass": all_ok,
        }
    if not _write(content, args.out):
        return EXIT_IO
    for r in rows:
        print(f"[{'PASS' if r.band_ok else 'FAIL'}] q={r.q} ratio={r.ratio:.4f}")
    return EXIT_PASS if all_ok else EXIT_TOLERANCE


def cmd_contour(args) -> int:
    report = _report_from_args(args.check, args)
    if args.sweep_out:
        m, alpha, beta = (args.m, args.alpha, args.beta) if args.check == "pairshift" else contours.QUARTER
        ys, oracle, ratio = (np.array([r[f] for r in report["sweep_rows"]]) for f in ("y", "oracle", "ratio"))
        # the y row reuses the report's numeric
        value = np.array([math.nan if m == 2 else report["numeric"] if v == args.y
                          else contours.paired_shift_numeric(alpha, beta, v).real for v in ys.tolist()])
        if not _write((["y", "value", "oracle", "ratio"], [ys, value, oracle, ratio]), args.sweep_out, "sweep table"):
            return EXIT_IO
    return _finish(report, args.out)


def cmd_dump_coeffs(args) -> int:
    if not 1 <= args.nmax <= sieve.SIEVE_CAP:
        raise DomainError(f"--nmax must be in [1, {sieve.SIEVE_CAP}], got {args.nmax}")
    func, flags = SERIES[args.series]
    ser = func(*(getattr(args, flag) for flag in flags))
    n, vals = np.arange(1, ser.size), ser[1:]
    if np.iscomplexobj(vals):
        content = ["n", "re", "im"], [n, vals.real, vals.imag]
    else:
        content = ["n", "value"], [n, vals]
    return EXIT_PASS if _write(content, args.out) else EXIT_IO


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmoment",
        description="Verification lab for fractional moments of Dirichlet L-functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a gated verification target")
    targets = pv.add_subparsers(dest="target", required=True)
    for name in sorted(VERIFY_TARGETS):
        _target_parser(targets, name, VERIFY_TARGETS[name][1])
    pv.set_defaults(func=lambda a: _finish(_report_from_args(a.target, a), a.out))

    pm = sub.add_parser("moments", help="compute the fractional moment M_k(q)")
    _moment_args(pm)
    pm.set_defaults(func=cmd_moments)

    ph = sub.add_parser("holder", help="evaluate the Holder chain report")
    _moment_args(ph)
    ph.set_defaults(func=cmd_holder)

    ps = sub.add_parser("survey", help="scaling survey of M_k(q)/phi(q) over primes")
    ps.add_argument("--k", default="1/2")
    ps.add_argument("--primes", default="1009,10007")
    ps.add_argument("--method", default="oracle", choices=("oracle", "afe", "smoothed"))
    ps.add_argument("--format", default="csv", choices=("csv", "json"))
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_survey)

    pc = sub.add_parser("contour", help="run a paired-shift check with its sweep table")
    checks = _named_choice(pc, "--check")
    for name in ("pairshift", "quarter"):
        _target_parser(checks, name, VERIFY_TARGETS[name][1]).add_argument(
            "--sweep-out", default=None, help="CSV of (y, value, oracle, ratio) sweep rows")
    pc.set_defaults(func=cmd_contour)

    pd = sub.add_parser("dump-coeffs", help="dump a coefficient series as CSV")
    series = _named_choice(pd, "--series")
    for name, (_, flags) in SERIES.items():
        _target_parser(series, name, flags)
    pd.set_defaults(func=cmd_dump_coeffs)

    return parser


def _named_choice(parser: argparse.ArgumentParser, option: str):
    """`option NAME` hands the rest of the line to NAME's own parser, as a
    subcommand would, so a flag before it is a usage error."""
    return parser.add_argument(option, action="parsers", required=True,
                               prog=f"{parser.prog} {option}", parser_class=argparse.ArgumentParser)


def _target_parser(subparsers, name: str, flags: dict) -> argparse.ArgumentParser:
    """Register `name` with exactly these flags, typed by their defaults, and --out."""
    p = subparsers.add_parser(name)
    for flag, default in flags.items():
        p.add_argument(f"--{flag}", type=type(default), default=default)
    p.add_argument("--out", default=None)
    return p


def _moment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", default="1/2")
    p.add_argument("--a", type=float, default=4.0)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--method", default="oracle", choices=("oracle", "smoothed", "afe"))
    p.add_argument("--lvalues-out", default=None,
                   help="CSV of per-character L-values (q, j, parity, ReL, ImL, Lsq, method, err)")
    p.add_argument("--out", default=None)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: a value too large for a double: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    print(f"done in {time.perf_counter() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
