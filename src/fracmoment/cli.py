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


def parse_k(text: str) -> Fraction:
    """Rational k from an 'r/s' literal, reduced, with 0 < k <= 1."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            k = Fraction(int(num), int(den))
        else:
            k = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse k from {text!r}") from exc
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


def _check(name: str, value, tol=None, ok=None) -> dict:
    entry = {"name": name, "value": value}
    if tol is not None:
        entry["tol"] = tol
        ok = ok if ok is not None else (value < tol)
    entry["pass"] = bool(ok)
    return entry


def _finish(report: dict, args) -> int:
    checks = report.get("checks", [])
    passed = all(c.get("pass", True) for c in checks)
    report["pass"] = passed
    try:
        text = emit(report, "json", args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    for c in checks:
        print(f"[{'PASS' if c.get('pass', True) else 'FAIL'}] {c['name']}")
    return EXIT_PASS if passed else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# verify targets
# ---------------------------------------------------------------------------


def _verify_convolution(args) -> dict:
    checks = []
    ss = _ints(args.s)
    if min(ss) < 1:
        raise DomainError(f"--s values must be positive integers, got {args.s!r}")
    fs = sieve.FactorSieve.build(args.nmax)
    for s in ss:
        d = sieve.divisor_series(Fraction(1, s), args.nmax, fs)
        acc = d
        for _ in range(s - 1):
            acc = sieve.dirichlet_convolve(acc, d, args.nmax)
        dev = float(np.max(np.abs(acc[1:] - 1.0)))
        checks.append(_check(f"s={s} s-fold self-convolution of d_1/s is all-ones", dev, args.tol))
    return {"command": "verify convolution", "params": {"s": args.s, "nmax": args.nmax, "tol": args.tol}, "checks": checks}


def _verify_exponents(args) -> dict:
    rng = np.random.default_rng(args.seed)
    checks = []
    for _ in range(args.trials):
        s = int(rng.integers(2, 60))
        r = int(rng.integers(1, s))
        e1, e2, e3 = moments.holder_exponents(Fraction(r, s))
        total = e1 + e2 + e3
        checks.append(_check(f"exponent identity at k={r}/{s}", 0 if total == 1 else 1, ok=total == 1))
    return {"command": "verify exponents", "params": {"trials": args.trials, "seed": args.seed}, "checks": checks}


def _verify_orthogonality(args) -> dict:
    checks = []
    worst_full = 0.0
    worst_parity = 0.0
    for q in range(3, args.qmax + 1):
        if not characters.is_prime(q):
            continue
        table = characters.build_table(q)
        for a in range(1, q):
            got = characters.character_sum(table, a)
            want = complex(q - 1) if a % q == 1 else 0j
            worst_full = max(worst_full, abs(got - want))
            for parity in ("even", "odd"):
                got_p = characters.parity_restricted_sum(table, parity, a)
                want_p = characters.parity_sum_expected(q, parity, a)
                worst_parity = max(worst_parity, abs(got_p - want_p))
    checks.append(_check(f"full-group orthogonality, primes q <= {args.qmax}", worst_full, args.tol))
    checks.append(_check(f"even/odd primitive case table, primes q <= {args.qmax}", worst_parity, args.tol))
    return {"command": "verify orthogonality", "params": {"qmax": args.qmax, "tol": args.tol}, "checks": checks}


def _verify_afe(args) -> dict:
    checks = []
    for q in range(max(args.qmin, 5), args.qmax + 1):
        if not characters.is_prime(q):
            continue
        table = characters.build_table(q)
        sq = np.abs(lvalues.oracle_values(table)) ** 2
        afe = lvalues.afe_squares(table)
        dev = float(np.max(np.abs(afe[1:] - sq[1:])))
        checks.append(_check(f"q={q} AFE vs oracle squares", dev, args.tol))
    return {"command": "verify afe", "params": {"qmin": args.qmin, "qmax": args.qmax, "tol": args.tol}, "checks": checks}


def _verify_smoothed(args) -> dict:
    checks = []
    maxima = {}
    for q in _ints(args.primes):
        table = characters.build_table(q)
        d = np.abs(lvalues.smoothed_values(table)[1:] - lvalues.oracle_values(table)[1:])
        bound = 10.0 * q ** (-0.125) * math.log(q)
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
    return {"command": "verify smoothed", "params": {"primes": args.primes}, "checks": checks}


def _verify_diagonal(args) -> dict:
    rng = np.random.default_rng(args.seed)
    checks = []
    for q in _ints(args.primes):
        table = characters.build_table(q)
        worst = 0.0
        for _ in range(args.pairs):
            c = rng.standard_normal(q - 1)
            e = rng.standard_normal(q - 1)
            rep = characters.diagonal_decomposition_check(table, c, e)
            worst = max(worst, rep.diff / rep.scale)
        checks.append(_check(f"q={q} diagonal decomposition over {args.pairs} random pairs", worst, args.tol))
    return {
        "command": "verify diagonal",
        "params": {"primes": args.primes, "pairs": args.pairs, "seed": args.seed, "tol": args.tol},
        "checks": checks,
    }


def _verify_perron(args) -> dict:
    checks = []
    for order in (2, 3):
        for x in (2.0, math.e, 10.0, 100.0):
            got = contours.perron_weight(order, x)
            want = contours.perron_weight_closed_form(order, x)
            checks.append(_check(f"order {order} weight at x={x:g}", abs(got - want), args.tol))
        for x in (1 / math.e, 0.5):
            got = contours.perron_weight(order, x)
            checks.append(_check(f"order {order} vanishing at x={x:g}", abs(got), args.tol))
    return {"command": "verify perron", "params": {"tol": args.tol}, "checks": checks}


def _verify_hankel(args) -> dict:
    checks = []
    for alpha in _floats(args.alphas):
        got = contours.hankel_recip_gamma(alpha, arm=args.arm)
        want = 1.0 / math.gamma(alpha)
        checks.append(_check(f"alpha={alpha:g} loop vs 1/Gamma", abs(got - want), args.tol + math.exp(-args.arm)))
    return {"command": "verify hankel", "params": {"alphas": args.alphas, "arm": args.arm, "tol": args.tol}, "checks": checks}


def _verify_zetapow(args) -> dict:
    checks = []
    for a, b in ((0.5, 0.5), (1 / 3, 2 / 3), (0.25, 0.25)):
        for s in (2.0, 1.1, 1 + 0.01j):
            lhs = contours.zeta_frac_power(a, s) * contours.zeta_frac_power(b, s)
            rhs = contours.zeta_frac_power(a + b, s)
            checks.append(_check(f"zeta^{a:g} * zeta^{b:g} = zeta^{a+b:g} at s={s}", abs(lhs - rhs), args.tol))
    z = 1e-3
    val = contours.zeta_frac_power(0.25, 1 + z)
    checks.append(
        _check("zeta^1/4(1+z) ~ z^-1/4 near the pole", abs(val * z**0.25 - 1), 1e-2)
    )
    return {"command": "verify zetapow", "params": {"tol": args.tol}, "checks": checks}


def _verify_pairshift(args) -> dict:
    checks = []
    ys = _floats(args.sweep)
    rep = contours.paired_shift_check(args.m, args.alpha, args.beta, args.y)
    if rep.numeric is not None:
        checks.append(_check(f"numeric vs oracle at y={args.y:g}", rep.rel_err, args.tol))
    sweep = contours.paired_shift_ratio_sweep(args.m, args.alpha, args.beta, ys)
    ratios = [row[2] for row in sweep]
    band = max(ratios) / min(ratios) if ratios else 1.0
    checks.append(_check("oracle ratio stays in a factor-3 band over the sweep", band, 3.0))
    return {
        "command": "verify pairshift",
        "params": {"m": args.m, "alpha": args.alpha, "beta": args.beta, "y": args.y, "sweep": args.sweep, "tol": args.tol},
        "gamma": rep.gamma,
        "numeric": rep.numeric,
        "oracle": rep.oracle,
        "sweep_rows": [{"y": r[0], "oracle": r[1], "ratio": r[2]} for r in sweep],
        "checks": checks,
    }


def _verify_quarter(args) -> dict:
    checks = []
    ys = _floats(args.sweep)
    rep = contours.quarter_power_final_check(args.y)
    checks.append(_check(f"numeric vs oracle at y={args.y:g}", rep.rel_err, args.tol))
    sweep = contours.paired_shift_ratio_sweep(1, 2.5, 0.25, ys)
    ratios = [row[2] for row in sweep]
    checks.append(_check("oracle positive over sweep", min(r[1] for r in sweep), ok=min(r[1] for r in sweep) > 0))
    band = max(ratios) / min(ratios) if ratios else 1.0
    checks.append(_check("ratio to (log y)^13/4 in a factor-3 band", band, 3.0))
    return {
        "command": "verify quarter",
        "params": {"y": args.y, "sweep": args.sweep, "tol": args.tol},
        "numeric": rep.numeric,
        "oracle": rep.oracle,
        "sweep_rows": [{"y": r[0], "oracle": r[1], "ratio": r[2]} for r in sweep],
        "checks": checks,
    }


def _verify_eta(args) -> dict:
    s_param = _ints(args.s)[0]  # --s is a comma list for other targets
    shifts = sieve.ShiftVector(tuple(complex(v) for v in _floats(args.shifts)))
    rep = contours.eta_stability(s_param, complex(args.w0), shifts, _ints(args.levels))
    checks = [_check("drift between successive cutoffs", rep.drift, args.tol)]
    return {
        "command": "verify eta",
        "params": {"s": s_param, "w0": args.w0, "shifts": args.shifts, "levels": args.levels, "tol": args.tol},
        "estimates": [complex(e) for e in rep.estimates],
        "checks": checks,
    }


def _verify_dft(args) -> dict:
    rng = np.random.default_rng(args.seed)
    table = characters.build_table(args.q)
    coeffs = rng.standard_normal(args.q - 1) + 1j * rng.standard_normal(args.q - 1)
    fast = characters.dft_all_characters(table, coeffs)
    naive = characters.naive_character_sums(table, coeffs)
    dev = float(np.max(np.abs(fast - naive)))
    back = characters.inverse_dft_all_characters(table, fast)
    rt = float(np.max(np.abs(back - coeffs)))
    checks = [
        _check(f"q={args.q} DFT vs naive", dev, args.tol),
        _check("DFT round trip", rt, 1e-9),
    ]
    return {"command": "verify dft", "params": {"q": args.q, "seed": args.seed, "tol": args.tol}, "checks": checks}


def _run_verify(target: str, args) -> int:
    report = VERIFY_TARGETS[target](args)
    if not report["checks"]:
        raise DomainError(f"verify {target}: these parameters select no check")
    return _finish(report, args)


VERIFY_TARGETS = {
    "convolution": _verify_convolution,
    "exponents": _verify_exponents,
    "orthogonality": _verify_orthogonality,
    "afe": _verify_afe,
    "smoothed": _verify_smoothed,
    "diagonal": _verify_diagonal,
    "perron": _verify_perron,
    "hankel": _verify_hankel,
    "zetapow": _verify_zetapow,
    "pairshift": _verify_pairshift,
    "quarter": _verify_quarter,
    "eta": _verify_eta,
    "dft": _verify_dft,
}


# ---------------------------------------------------------------------------
# moments / holder / survey / contour / dump-coeffs
# ---------------------------------------------------------------------------


def _params_from_args(args) -> moments.MomentParams:
    k = parse_k(args.k)
    if k == 1:
        raise DomainError("moment parameter bundles require k = r/s with r < s")
    return moments.MomentParams.make(args.q, r=k.numerator, s=k.denominator, a=args.a, y=args.y)


def cmd_moments(args) -> int:
    params = _params_from_args(args)
    table = characters.build_table(params.q)
    rep = moments.moment_k(params, table, args.method)
    if args.lvalues_out:
        try:
            emit(_lvalue_rows(table, args.method), "csv", args.lvalues_out)
        except OSError as exc:
            print(f"error: cannot write L-value table: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.lvalues_out}")
    report = {
        "command": "moments",
        "params": {
            "q": params.q, "r": params.r, "s": params.s,
            "x": params.x, "y": params.y, "a": params.a, "method": args.method,
        },
        "moment": rep.value,
        "moment_over_phi": rep.per_phi,
        "floored_characters": rep.floored_characters,
        "regime_flag": params.regime_ok,
        "checks": [],
    }
    return _finish(report, args)


def _lvalue_rows(table, method: str):
    """Per-character L-value export: q, j, parity, ReL, ImL, Lsq, method, err."""
    header = ["q", "j", "parity", "ReL", "ImL", "Lsq", "method", "err"]
    values, squares, err = lvalues.lvalue_table(table, method)
    if values is None:
        values = np.full(table.order, complex(math.nan, math.nan))
    rows = [
        [table.q, j, int(table.parity[j]), L.real, L.imag, sq, method, err]
        for j, L, sq in zip(range(1, table.order), values[1:].tolist(), squares[1:].tolist())
    ]
    return header, rows


def cmd_holder(args) -> int:
    params = _params_from_args(args)
    table = characters.build_table(params.q)
    fs = sieve.FactorSieve.build(max(int(params.x ** (2 * params.r)), int(params.x), 2))
    rep = moments.holder_chain_check(params, table, fs, args.method)
    p4 = moments.p4_bound_check(params, table, fs)
    report = {
        "command": "holder",
        "params": {
            "q": params.q, "r": params.r, "s": params.s,
            "x": params.x, "y": params.y, "a": params.a, "method": args.method,
        },
        "moment": rep.moment,
        "s_lower": {"re": rep.s_l.real, "im": rep.s_l.imag},
        "s_upper": rep.s_u,
        "p4": {"lhs": p4.lhs, "rhs": p4.rhs},
        "holder": {"f1": rep.f1, "f2": rep.f2, "f3": rep.f3, "slack": rep.slack, "pass": rep.holds},
        "regime_flag": params.regime_ok,
        "checks": [
            _check("holder chain slack nonnegative", rep.slack, ok=rep.holds),
            _check("diagonal p4 bound", p4.ratio, ok=p4.holds),
        ],
    }
    return _finish(report, args)


def cmd_survey(args) -> int:
    k = parse_k(args.k)
    rows = moments.scaling_survey(k, _ints(args.primes), args.method)
    header = ["q", "moment_over_phi", "logq_pow_k2", "ratio"]
    table_rows = [[r.q, r.moment_over_phi, r.logq_pow_k2, r.ratio] for r in rows]
    all_ok = all(r.band_ok for r in rows)
    try:
        if args.format == "csv":
            text = emit((header, table_rows), "csv", args.out)
            if not args.out:
                sys.stdout.write(text)
            else:
                print(f"wrote {args.out}")
        else:
            report = {
                "command": "survey",
                "params": {"k": k, "primes": args.primes, "method": args.method},
                "rows": [
                    {"q": r.q, "moment_over_phi": r.moment_over_phi,
                     "logq_pow_k2": r.logq_pow_k2, "ratio": r.ratio, "band_ok": r.band_ok}
                    for r in rows
                ],
                "pass": all_ok,
            }
            text = emit(report, "json", args.out)
            if not args.out:
                sys.stdout.write(text)
            else:
                print(f"wrote {args.out}")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    for r in rows:
        print(f"[{'PASS' if r.band_ok else 'FAIL'}] q={r.q} ratio={r.ratio:.4f}")
    return EXIT_PASS if all_ok else EXIT_TOLERANCE


def cmd_contour(args) -> int:
    if args.check not in ("pairshift", "quarter", "perron", "hankel"):
        raise DomainError(f"unknown contour check {args.check!r}")
    if args.sweep_out and args.check in ("pairshift", "quarter"):
        alpha, beta = (args.alpha, args.beta) if args.check == "pairshift" else (2.5, 0.25)
        rows = []
        for y in _floats(args.sweep):
            rep = contours.paired_shift_check(args.m, alpha, beta, y, refine=False)
            rows.append([y, rep.numeric if rep.numeric is not None else math.nan,
                         rep.oracle, rep.ratio])
        try:
            emit((["y", "value", "oracle", "ratio"], rows), "csv", args.sweep_out)
        except OSError as exc:
            print(f"error: cannot write sweep table: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.sweep_out}")
    return _run_verify(args.check, args)


def cmd_dump_coeffs(args) -> int:
    if args.nmax < 1:
        raise DomainError(f"--nmax must be at least 1, got {args.nmax}")
    fs = sieve.FactorSieve.build(max(args.nmax, 2))
    kind = args.series
    if kind == "dalpha":
        ser = sieve.divisor_series(parse_alpha(args.alpha), args.nmax, fs)
    elif kind == "mobius":
        ser = sieve.mobius_series(args.nmax, fs)
    elif kind == "weighted":
        ser = sieve.weighted_poly_coeffs(args.A, args.B, args.x, args.nmax, fs)
    elif kind == "mollifier":
        ser = sieve.mollifier_coeffs(args.A, args.B, args.y, args.nmax, fs)
    elif kind in ("sigma", "rho"):
        shifts = sieve.ShiftVector(tuple(complex(v) for v in _floats(args.shifts)))
        ser = sieve.shifted_series(kind, shifts, args.s, args.nmax, fs)
    elif kind == "psi":
        w = sieve.ShiftVector(tuple(complex(v) for v in _floats(args.shifts)))
        z = sieve.ShiftVector(tuple(complex(v) for v in _floats(args.zshifts)))
        ser = sieve.shifted_series("psi", (w, z), args.s, args.nmax, fs)
    else:
        raise DomainError(f"unknown series {kind!r}")
    vals = ser[1:]
    if np.iscomplexobj(vals):
        header = ["n", "re", "im"]
        rows = [[n + 1, float(v.real), float(v.imag)] for n, v in enumerate(vals)]
    else:
        header = ["n", "value"]
        rows = [[n + 1, float(v)] for n, v in enumerate(vals)]
    try:
        text = emit((header, rows), "csv", args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return EXIT_PASS


def parse_alpha(text: str):
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return float(text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmoment",
        description="Verification lab for fractional moments of Dirichlet L-functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a gated verification target")
    pv.add_argument("target", choices=sorted(VERIFY_TARGETS))
    _common_verify_args(pv)
    pv.set_defaults(func=lambda a: _run_verify(a.target, a))

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

    pc = sub.add_parser("contour", help="run one contour computation with its oracle")
    pc.add_argument("--check", required=True, choices=("pairshift", "quarter", "perron", "hankel"))
    _common_verify_args(pc)
    pc.set_defaults(func=cmd_contour)

    pd = sub.add_parser("dump-coeffs", help="dump a coefficient series as CSV")
    pd.add_argument("--series", required=True,
                    choices=("dalpha", "mobius", "weighted", "mollifier", "sigma", "rho", "psi"))
    pd.add_argument("--alpha", default="1/2")
    pd.add_argument("--A", type=int, default=1)
    pd.add_argument("--B", type=int, default=2)
    pd.add_argument("--x", type=float, default=10.0)
    pd.add_argument("--y", type=float, default=10.0)
    pd.add_argument("--s", type=int, default=1)
    pd.add_argument("--shifts", default="0")
    pd.add_argument("--zshifts", default="0")
    pd.add_argument("--nmax", type=int, default=100)
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=cmd_dump_coeffs)

    return parser


def _common_verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", default="2,3,5", help="comma list of s values (convolution)")
    p.add_argument("--nmax", type=int, default=10000)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--qmin", type=int, default=5)
    p.add_argument("--qmax", type=int, default=101)
    p.add_argument("--q", type=int, default=10007)
    p.add_argument("--primes", default="101,1009,10007")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--alphas", default="1,2,2.25,2.5")
    p.add_argument("--arm", type=float, default=25.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--y", type=float, default=1e4)
    p.add_argument("--sweep", default="1e3,1e4,1e5,1e6")
    p.add_argument("--w0", type=float, default=0.5)
    p.add_argument("--shifts", default="0.3")
    p.add_argument("--levels", default="100000,1000000")
    p.add_argument("--sweep-out", default=None, help="CSV of (y, value, oracle, ratio) sweep rows")
    p.add_argument("--out", default=None)


_DEFAULT_TOLS = {
    "convolution": 1e-10,
    "exponents": 0.0,
    "orthogonality": 1e-9,
    "afe": 1e-6,
    "smoothed": 0.0,
    "diagonal": 1e-8,
    "perron": 1e-6,
    "hankel": 1e-5,
    "zetapow": 1e-9,
    "pairshift": 1e-3,
    "quarter": 1e-2,
    "eta": 1e-3,
    "dft": 1e-8,
}


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None) is None and hasattr(args, "tol"):
        target = getattr(args, "target", getattr(args, "check", None))
        args.tol = _DEFAULT_TOLS.get(target, 1e-9)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    print(f"done in {time.perf_counter() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
