import argparse
import dataclasses
import json
import re
import shlex
import signal
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import peak_rise_kib, run_python

from fracmoment import characters, contours, lvalues, moments, sieve
from fracmoment.cli import _DOMAINS, SERIES, VERIFY_TARGETS, build_parser, main, parse_k
from fracmoment.errors import DomainError

README_EXAMPLES = [
    shlex.split(line)[1:]
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("fracmoment ")
]


def run(args):
    return main(args)


def _help_flags(command: list, capsys) -> set:
    """The option strings `command --help` lists, once it exits 0."""
    with pytest.raises(SystemExit) as exc:
        run([*command, "--help"])
    assert exc.value.code == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("-")]
    return {tok.rstrip(",") for line in lines for tok in line if tok.startswith("-")}


class TestParseK:
    def test_literal(self):
        from fractions import Fraction

        assert parse_k("1/2") == Fraction(1, 2)
        assert parse_k("2/4") == Fraction(1, 2)
        assert parse_k("1") == Fraction(1)

    def test_rejects(self):
        with pytest.raises(DomainError):
            parse_k("3/2")
        with pytest.raises(DomainError):
            parse_k("0/5")
        with pytest.raises(DomainError):
            parse_k("x")


class TestVerifyCommands:
    def test_convolution_gate(self):
        assert run(["verify", "convolution", "--s", "3", "--nmax", "10000"]) == 0

    def test_orthogonality_gate(self):
        assert run(["verify", "orthogonality", "--qmax", "31"]) == 0

    def test_a_control_character_in_a_flag_writes_a_report_that_parses(self, tmp_path):
        # int() takes "101\t", and the report echoes the flag as given
        out = tmp_path / "d.json"
        assert run(["verify", "diagonal", "--primes", "101\t", "--pairs", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["primes"] == "101\t"

    def test_diagonal_catches_a_scaled_dft(self, monkeypatch, tmp_path):
        # each transform off by 1 + 1e-6 moves lhs by 2e-6 of itself; the gate's scale
        # phi(q) ||c||_2 ||e||_2 bounds |lhs| and |rhs|, so every prime's check reads the fault
        dft = characters.dft_all_characters
        monkeypatch.setattr(characters, "dft_all_characters", lambda t, c: dft(t, c) * (1 + 1e-6))
        out = tmp_path / "d.json"
        assert run(["verify", "diagonal", "--out", str(out)]) == 1
        assert [c["pass"] for c in json.loads(out.read_text())["checks"]] == [False] * 3

    @pytest.mark.parametrize("fault, failing", [
        ("parity", [False, True]),  # chi_1 counted as even: both parity sums move by |chi_1(a)| = 1
        ("root", [True, True]),  # roots[1] off the unit circle by 1e-6
    ])
    def test_orthogonality_catches_a_corrupted_table(self, fault, failing, monkeypatch, tmp_path):
        build = characters.build_table

        def corrupted(q):
            t = build(q)
            one = np.arange(t.order) == 1
            if fault == "parity":
                return dataclasses.replace(t, parity=t.parity ^ one)
            vars(t)["roots"] = t.roots * np.where(one, 1 + 1e-6, 1)  # over the cached property's value
            return t

        monkeypatch.setattr(characters, "build_table", corrupted)
        out = tmp_path / "o.json"
        assert run(["verify", "orthogonality", "--qmax", "31", "--out", str(out)]) == 1
        assert [not c["pass"] for c in json.loads(out.read_text())["checks"]] == failing

    def test_afe_checks_the_smallest_modulus(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["verify", "afe", "--qmin", "3", "--qmax", "3", "--out", str(out)]) == 0
        assert [c["name"] for c in json.loads(out.read_text())["checks"]] == ["q=3 AFE vs oracle squares"]

    def test_exponents_gate(self):
        assert run(["verify", "exponents", "--trials", "5"]) == 0

    def test_perron_gate(self):
        assert run(["verify", "perron"]) == 0

    def test_hankel(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["verify", "hankel", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True

    @pytest.mark.parametrize("alphas", ["200", "1e-320", "171.5,172", "1e300", "1e306"])
    def test_hankel_where_gamma_overflows(self, alphas):
        # math.gamma overflows past 171.6 and below 5.6e-309, where 1/Gamma is
        # subnormal or 0; the reference there is exp(-lgamma(alpha)), and 0.0
        # past about 2.6e305, where lgamma overflows too
        assert run(["verify", "hankel", "--alphas", alphas]) == 0

    def test_cached_parser_keeps_no_flag_between_calls(self, tmp_path):
        assert build_parser() is build_parser()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "perron", "--tol", "1e-3", "--out", str(first)]) == 0
        assert run(["verify", "perron", "--out", str(second)]) == 0
        assert json.loads(first.read_text())["params"]["tol"] == 1e-3
        assert json.loads(second.read_text())["params"]["tol"] == 1e-6

    def test_dft_gate(self):
        assert run(["verify", "dft", "--q", "101"]) == 0

    def test_eta_gate(self):
        assert run(["verify", "eta", "--s", "1", "--levels", "10000,100000"]) == 0

    @pytest.mark.parametrize("w0", ["1e4", "1e30"])
    def test_eta_far_right_needs_no_branch_walk(self, w0, monkeypatch):
        # on Re s >= 2 the principal log of zeta is the continued branch, so
        # each shift's zeta power is one point, however large w0 is
        counts = []
        fn = contours.zeta_progression
        monkeypatch.setattr(contours, "zeta_progression", lambda *a: counts.append(a[2]) or fn(*a))
        assert run(["verify", "eta", "--w0", w0, "--shifts", "0.3,0.4"]) == 0
        assert counts == [1, 1]


class TestPairShiftCommand:
    def test_zeta_line_is_not_evaluated_point_by_point(self, monkeypatch):
        counts = []
        fn = contours.zeta_progression
        monkeypatch.setattr(contours, "zeta_progression", lambda *a: counts.append(a[2]) or fn(*a))
        assert run(["verify", "pairshift", "--sweep", "1e3,1e4"]) == 0
        assert counts == [2 * 1017 - 1]  # t1 + t2 over the 1,017 nodes of the Perron axis

    def test_numeric_takes_any_alpha(self):
        assert run(["verify", "pairshift", "--alpha", "26"]) == 0


    @pytest.mark.parametrize("argv", [
        ["pairshift", "--m", "2", "--y", "3001"], ["pairshift", "--m", "2", "--y", "100", "--sweep", "5000"],
        ["quarter", "--y", "1e30"], ["pairshift", "--y", "100", "--sweep", "2e7"],
    ])
    def test_m2_past_the_oracle_limit_exits_before_any_series(self, argv, monkeypatch, capsys):
        # m = 2 stops at its oracle's limit, m = 1 where its series would pass the sieve's cap,
        # and either says so in y
        monkeypatch.setattr(contours, "divisor_series", None)  # any oracle would raise TypeError
        assert run(["verify", *argv]) == 2
        err = capsys.readouterr().err
        limit = contours.M2_ORACLE_YMAX if "--m" in argv else sieve.SIEVE_CAP + 1
        assert err.startswith("error: ") and f"y <= {limit}" in err and len(err.rstrip()) < 80, err


class TestMomentsCommand:
    def test_composite_modulus_exits_2(self):
        assert run(["moments", "--q", "4"]) == 2

    @pytest.mark.parametrize("argv", [
        ["moments", "--q", "4"],
        ["moments", "--q", "2"],
        ["moments", "--q", "1000003"],
        ["moments", "--q", "99999999999999999999999"],
        ["holder", "--q", "4"],
        ["survey", "--primes", "4"],
        ["verify", "dft", "--q", "4"],
    ], ids=" ".join)
    def test_bad_modulus_exits_2_with_the_one_rule(self, argv, capsys):
        # every entry point refuses by characters.check_modulus, with its message
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: modulus must be a prime in [3, {characters.QMAX}], got {argv[-1]}\n"

    def test_small_moment(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["moments", "--q", "101", "--k", "1/2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"] == {"q": 101, "k": "1/2", "method": "oracle"}
        assert doc["moment"] > 0
        assert list(doc) == ["command", "params", "moment", "moment_over_phi", "floored_characters", "checks", "pass"]

    @pytest.mark.parametrize("q", [1009, 10007])
    @pytest.mark.parametrize("method", lvalues.ROUTES)
    def test_agrees_with_survey_bit_for_bit(self, q, method, tmp_path):
        # M_k(q) from q, k and the route alone: small k, whose s once overflowed the Holder
        # bundle's x^{4s}, and k = 1, the second moment, run as survey runs them
        for k in ("1/2", "1/64", "1/1000000", "1"):
            m, sv = tmp_path / "m.json", tmp_path / "s.json"
            assert run(["moments", "--q", str(q), "--k", k, "--method", method, "--out", str(m)]) == 0
            assert run(["survey", "--primes", str(q), "--k", k, "--method", method, "--format", "json",
                        "--out", str(sv)]) in (0, 1)
            got, want = json.loads(m.read_text()), json.loads(sv.read_text())
            assert (got["params"]["k"], got["moment_over_phi"]) == (want["params"]["k"],
                                                                    want["rows"][0]["moment_over_phi"]), k

    @pytest.mark.parametrize("command, flags", [
        ("moments", {"--q", "--k", "--method", "--lvalues-out", "--out"}),
        ("holder", {"--q", "--k", "--a", "--y", "--method", "--lvalues-out", "--out"}),
    ])
    def test_help_lists_only_the_flags_it_reads(self, command, flags, capsys):
        assert _help_flags([command], capsys) == flags | {"-h", "--help"}

    def test_bad_k_exits_2(self):
        assert run(["moments", "--q", "101", "--k", "3/2"]) == 2

    def test_largest_modulus_moments_peak_memory(self, tmp_path):
        # q - 1 = 158 x 6329: the Good-Thomas split runs Bluestein only on rows of
        # length 6329; one Bluestein transform of length 999,982 lifted the peak
        # to 193 MiB over 3 fresh processes, the split reads 98 MiB on each
        call = "assert main(['moments', '--q', '999983', '--out', sys.argv[1]]) == 0"
        assert peak_rise_kib("import sys\nfrom fracmoment.cli import main", call, str(tmp_path / "m.json")) < 115 * 1024


class TestHolderCommand:
    def test_schema_and_gate(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["holder", "--q", "1009", "--k", "1/2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["params"]) == {"q", "r", "s", "x", "y", "a", "method"}
        assert set(doc["s_lower"]) == {"re", "im"}
        assert set(doc["p4"]) == {"lhs", "rhs"}
        assert set(doc["holder"]) == {"f1", "f2", "f3", "slack", "pass"}
        assert "regime_flag" in doc and "moment" in doc
        assert doc["holder"]["pass"] is True

    def test_small_k_runs_while_its_chain_is_representable(self, tmp_path, capsys):
        # at k = 1/64, (y^a)^{4s} = 16^256 passes a double, yet every sum of the chain is a normal double;
        # at k = 1/1000, |M|^{2(2s - r)} = 2^-3998 underflows, so S_u = 0 and the slack would prove nothing
        out = tmp_path / "h.json"
        assert run(["holder", "--q", "1009", "--k", "1/64", "--out", str(out)]) == 0
        assert [c["pass"] for c in json.loads(out.read_text())["checks"]] == [True, True]
        capsys.readouterr()
        assert run(["holder", "--q", "1009", "--k", "1/1000"]) == 2
        assert capsys.readouterr().err == ("error: Holder bound F1 F2 F3 = 0.0 at k = 1/1000 is not a positive "
                                           "normal double, so its slack would prove nothing\n")

    def test_small_q_with_adjusted_y(self, tmp_path):
        # the default y = 2 bundle violates the diagonal regime at q = 101;
        # a shorter polynomial restores x^{2r} < q
        out = tmp_path / "h.json"
        assert run(["holder", "--q", "101", "--k", "1/2", "--y", "1.5",
                    "--out", str(out)]) == 0
        assert run(["holder", "--q", "101", "--k", "1/2"]) == 2

    def test_evaluates_character_values_once(self, monkeypatch):
        # one L-value route, and one group DFT (of P + iM) for both polynomials
        calls = Counter()
        for name in ("dft_all_characters", "lvalue_table"):
            fn = getattr(moments, name)
            monkeypatch.setattr(moments, name, lambda *a, _fn=fn, _name=name, **k:
                                calls.update([_name]) or _fn(*a, **k))
        assert run(["holder", "--q", "1009"]) == 0
        assert calls == {"dft_all_characters": 1, "lvalue_table": 1}

    def test_outside_diagonal_regime_exits_before_the_sieve(self, monkeypatch, capsys):
        monkeypatch.setattr(sieve, "_multiplicative", None)  # any series would raise TypeError
        assert run(["holder", "--q", "1009", "--y", "5"]) == 2  # x^2 = 5^8 > 1009
        assert capsys.readouterr().err == "error: diagonal regime requires x^{2r} < q\n"

    def test_afe_route_is_refused_at_the_parser(self, monkeypatch, capsys):
        # the AFE gives |L|^2 only, and the twisted sums need L itself
        monkeypatch.setattr(characters, "build_table", None)  # any run past the parser would raise TypeError
        with pytest.raises(SystemExit) as exc:
            run(["holder", "--q", "1009", "--method", "afe"])
        assert exc.value.code == 2
        assert "invalid choice: 'afe'" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["holder", "--q", "1009", "--k", "1/2", "--out", str(a)])
        run(["holder", "--q", "1009", "--k", "1/2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSurveyCommand:
    def test_csv_header_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["survey", "--k", "1/2", "--primes", "101,1009", "--out", str(a)]) == 0
        run(["survey", "--k", "1/2", "--primes", "101,1009", "--out", str(b)])
        text = a.read_text()
        assert text.splitlines()[0] == "q,moment_over_phi,logq_pow_k2,ratio"
        assert len(text.splitlines()) == 3
        assert a.read_bytes() == b.read_bytes()

    def test_lists_the_routes_as_moments_does(self, capsys):
        listed = []
        for command in ("moments", "survey"):
            with pytest.raises(SystemExit):
                run([command, "--help"])
            listed.append(re.search(r"--method (\{[^}]*\})", capsys.readouterr().out).group(1))
        assert listed == ["{" + ",".join(lvalues.ROUTES) + "}"] * 2


class TestDumpCoeffs:
    def test_dalpha_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["dump-coeffs", "--series", "dalpha", "--alpha", "1/2",
                    "--nmax", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,value"
        assert lines[1].startswith("1,1")
        assert lines[2].startswith("2,0.5")
        assert lines[4].startswith("4,0.375")

    def test_dalpha_list_holds_only_the_exponents_of_the_cutoff(self, tmp_path):
        # d_alpha(p^2) of alpha = 1e200 overflows a double; nmax = 3 holds no
        # square, while nmax = 4 exits 2 (TestExitCodes)
        out = tmp_path / "d.csv"
        assert run(["dump-coeffs", "--series", "dalpha", "--alpha", "1e200", "--nmax", "3",
                    "--out", str(out)]) == 0
        assert float(out.read_text().splitlines()[2].split(",")[1]) == 1e200

    def test_sigma_csv_complex(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["dump-coeffs", "--series", "sigma", "--shifts", "0.5",
                    "--s", "1", "--nmax", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "n,re,im"

    @pytest.mark.parametrize("argv, n6", [
        (["sigma", "--shifts", "1e308"], "6,0,0"),
        (["rho", "--shifts", "1e308"], "6,0,0"),
        (["psi", "--shifts", "1e308"], "6,1,0"),  # mu(6), its zero imaginary part +0
        (["psi", "--zshifts", "1e308"], "6,0.25,0"),  # d_{1/2}(6)
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_huge_shift_gives_its_limit_without_a_warning(self, argv, n6, tmp_path):
        # p^{-w} -> 0 as Re w grows, so a shift of 1e308 leaves only the other factors;
        # the suite's error::RuntimeWarning filter turns numpy's overflow warning into a failure
        out = tmp_path / "d.csv"
        assert run(["dump-coeffs", "--series", *argv, "--nmax", "6", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == n6

    @pytest.mark.parametrize("argv", [
        ["dalpha", "--s", "1"],
        ["mobius", "--alpha", "x"],
        ["weighted", "--y", "10"],
        ["mollifier", "--x", "10"],
        ["sigma", "--zshifts", "0"],
        ["rho", "--A", "1"],
        ["psi", "--alpha", "1/2"],
        ["mobius", "--nmax", "10", "--series", "dalpha"],  # --series must come first
    ], ids=" ".join)
    def test_flag_the_series_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(["dump-coeffs", "--series", *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name, generator", [
        ("dalpha", "divisor_series"), ("mobius", "mobius_series"), ("weighted", "weighted_poly_coeffs"),
        ("mollifier", "mollifier_coeffs"), ("sigma", "shifted_series"), ("rho", "shifted_series"),
        ("psi", "shifted_series"),
    ])
    def test_series_looks_its_generator_up_when_called(self, name, generator, monkeypatch, tmp_path):
        # so a wrapper set on the sieve module after import, as the tracer sets one, sees the dump
        calls = []
        real = getattr(sieve, generator)
        monkeypatch.setattr(sieve, generator, lambda *a: calls.append(a[-1]) or real(*a))
        assert run(["dump-coeffs", "--series", name, "--nmax", "7", "--out", str(tmp_path / "d.csv")]) == 0
        assert calls == [7]

    @pytest.mark.parametrize("name", SERIES)
    def test_help_lists_only_the_series_flags(self, name, capsys):
        listed = _help_flags(["dump-coeffs", "--series", name], capsys)
        assert listed == {f"--{flag}" for flag in SERIES[name][1]} | {"--out", "-h", "--help"}

    def test_million_term_dump_peak_memory(self, tmp_path):
        call = "assert main(['dump-coeffs', '--series', 'dalpha', '--nmax', '1000000', '--out', sys.argv[1]]) == 0"
        assert peak_rise_kib("import sys\nfrom fracmoment.cli import main", call, str(tmp_path / "d.csv")) < 120 * 1024
        assert (tmp_path / "d.csv").read_text().count("\n") == 1 + 10**6


class TestLValueExport:
    def test_lvalues_csv(self, tmp_path):
        out = tmp_path / "m.json"
        lv = tmp_path / "lv.csv"
        assert run(["moments", "--q", "101", "--k", "1/2", "--out", str(out),
                    "--lvalues-out", str(lv)]) == 0
        lines = lv.read_text().splitlines()
        assert lines[0] == "q,j,parity,ReL,ImL,Lsq,method,err"
        assert len(lines) == 100  # header + q-2 non-principal characters
        assert lines[1].startswith("101,1,")

    def test_holder_writes_the_moments_csv(self, tmp_path):
        hl = tmp_path / "hl.csv"
        ml = tmp_path / "ml.csv"
        assert run(["holder", "--q", "1009", "--out", str(tmp_path / "h.json"), "--lvalues-out", str(hl)]) == 0
        assert run(["moments", "--q", "1009", "--out", str(tmp_path / "m.json"), "--lvalues-out", str(ml)]) == 0
        assert len(hl.read_text().splitlines()) == 1 + 1009 - 2
        assert hl.read_bytes() == ml.read_bytes()

    @pytest.mark.parametrize("command", ["moments", "holder"])
    def test_one_oracle_evaluation_serves_report_and_csv(self, command, tmp_path, monkeypatch):
        calls = []
        sums = lvalues._residue_sums
        monkeypatch.setattr(lvalues, "_residue_sums", lambda t, X: calls.append(t.q) or sums(t, X))
        assert run([command, "--q", "1009", "--out", str(tmp_path / "r.json"),
                    "--lvalues-out", str(tmp_path / "lv.csv")]) == 0
        assert calls == [1009]


class TestSweepExport:
    def test_quarter_sweep_csv(self, tmp_path):
        sw = tmp_path / "sweep.csv"
        out = tmp_path / "c.json"
        code = run(["contour", "--check", "quarter", "--y", "1e3",
                    "--sweep", "1e3,1e4", "--sweep-out", str(sw), "--out", str(out)])
        assert code == 0
        lines = sw.read_text().splitlines()
        assert lines[0] == "y,value,oracle,ratio"
        assert len(lines) == 3
        # the y row's value is the gated numeric itself
        row = lines[1].split(",")
        assert float(row[0]) == 1e3
        assert float(row[1]) == json.loads(out.read_text())["numeric"]

    def test_sweep_reuses_the_numeric_at_y(self, tmp_path, monkeypatch):
        ys = []
        numeric = contours.paired_shift_numeric
        monkeypatch.setattr(contours, "paired_shift_numeric", lambda *a: ys.append(a[2]) or numeric(*a))
        assert run(["contour", "--check", "quarter", "--y", "1e3", "--sweep", "1e3,1e4",
                    "--sweep-out", str(tmp_path / "f.csv")]) == 0
        assert ys == [1e3, 1e4]

    def test_pairshift_sweep_expands_each_y_once(self, tmp_path, monkeypatch):
        expansions = []
        oracle = contours.paired_shift_oracle
        monkeypatch.setattr(contours, "paired_shift_oracle",
                            lambda *a, **k: expansions.append(a[3]) or oracle(*a, **k))
        sw = tmp_path / "sweep.csv"
        out = tmp_path / "c.json"
        assert run(["contour", "--check", "pairshift", "--m", "2", "--y", "100", "--sweep", "50,100",
                    "--sweep-out", str(sw), "--out", str(out)]) == 0
        assert len(expansions) == 2
        rows = [line.split(",") for line in sw.read_text().splitlines()[1:]]
        want = json.loads(out.read_text())["sweep_rows"]
        assert [(float(r[0]), float(r[2]), float(r[3])) for r in rows] == [
            (w["y"], w["oracle"], w["ratio"]) for w in want]
        # the report has no m = 2 numeric, so neither has any row of the sweep
        assert all(np.isnan(float(r[1])) for r in rows)


def _flags(command: list) -> list:
    """The option strings `command` registers, bar -h and the output paths."""
    parser, value = build_parser(), False
    for word in command:
        if value:  # the value of the flag before it
            value = False
        elif word.startswith("-"):  # a flag reads the next word, which names a parser only after --series
            value = not isinstance(parser._option_string_actions.get(word), argparse._SubParsersAction)
        else:
            parser = next(a.choices[word] for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction) and word in a.choices)
    return [a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest not in ("help", "out", "lvalues_out")]


# Every command a flag table or parser defines: the verify targets, the series and
# the moment commands (contour --check registers the pairshift and quarter flags again)
_FUZZ_COMMANDS = ([["verify", t] for t in VERIFY_TARGETS] + [["dump-coeffs", "--series", n] for n in SERIES]
                  + [["moments"], ["holder"], ["survey"]])
_FUZZ_CASES = [pytest.param(command, flag, id=" ".join([*command, flag]))
               for command in _FUZZ_COMMANDS for flag in _flags(command)]
_CHEAP = {"--q": "1009", "--qmax": "31", "--primes": "101", "--nmax": "100", "--levels": "1000,10000",
          "--sweep": "1e3,1e4", "--pairs": "2", "--trials": "2"}
_MALFORMED = ("nan", "inf", "-inf", ",", "abc")
_BIG = "100000000000000000000"  # 10^20: a count of passes, factors or draws this large must not run 10^20 times
_UNRULED = ("0", "-1", "-0", "3.5", "1e308", "1e-320", _BIG)
_FUZZ_BUDGET_S = 10  # per command run, in process, through signal.alarm


class _OverBudget(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the program swallows it."""


def _run_in_budget(argv: list):
    """run(argv), or its SystemExit code, within _FUZZ_BUDGET_S seconds (_OverBudget past it)."""
    def expire(signum, frame):
        raise _OverBudget(f"{' '.join(argv)} ran past {_FUZZ_BUDGET_S} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(_FUZZ_BUDGET_S)
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cheap(command: list) -> list:
    """command with every flag of _CHEAP that it registers, and does not set, at its cheap value."""
    return [*command, *(x for f, v in _CHEAP.items() if f in _flags(command) and f not in command for x in (f, v))]


def _refusal(argv: list, flag: str):
    """"argparse" or "domain" where the parser or cli._DOMAINS refuses argv's value of --flag, else None."""
    try:
        value = getattr(build_parser().parse_args(argv), flag)
    except SystemExit:
        return "argparse"
    try:
        return "domain" if flag in _DOMAINS and not _DOMAINS[flag][0](value) else None
    except DomainError:  # the comma-list parser _numbers refuses it first, which is no domain ruling
        return None


# The rulings for values that no domain refuses, at the codes they exit with: a gate
# at --tol 1e308 cannot fail, and one at 1e-320 cannot pass; afe starts at q = 3,
# the smallest modulus with a table, whatever --qmin, and takes q = 3 alone at --qmax 3;
# d_alpha, 1/Gamma, the beta shift and k take any such value; eta's drift exceeds
# the tol at a zero or tiny w0 or shift.  The last rows pin the counts that once ran
# without end at 10^20: the s-fold and A-fold powers take log2 of them, and the
# trials and pairs are refused by their budgets in _DOMAINS
_GATED = [t for t, (_, flags) in VERIFY_TARGETS.items() if "tol" in flags]
_RULINGS = (
    [(["verify", t], "--tol", tol, code) for t in _GATED for tol, code in (("1e308", 0), ("1e-320", 1))]
    + [(["verify", "afe"], "--qmin", v, 0) for v in ("0", "-1")] + [(["verify", "afe", "--qmax", "3"], "--qmin", "3", 0)]
    + [(["dump-coeffs", "--series", "dalpha"], "--alpha", v, 0) for v in ("0", "-1", "1e-320")]
    + [(["verify", "hankel"], "--alphas", "1e-320", 0), (["verify", "pairshift"], "--beta", "1e-320", 0),
       (["survey"], "--k", "1e-320", 0)]
    + [(["verify", "eta"], flag, v, 1) for flag in ("--w0", "--shifts") for v in ("0", "-0", "1e-320")]
    + [(["verify", "convolution"], "--s", _BIG, 0), (["dump-coeffs", "--series", "weighted"], "--A", _BIG, 0),
       (["dump-coeffs", "--series", "mollifier"], "--A", _BIG, 0), (["verify", "exponents"], "--trials", _BIG, 2),
       (["verify", "diagonal"], "--pairs", _BIG, 2)]
)


class TestExitCodes:
    def test_io_error_exits_3(self):
        code = run(["moments", "--q", "101", "--k", "1/2",
                    "--out", "/nonexistent-dir/report.json"])
        assert code == 3

    @pytest.mark.parametrize("argv, what", [
        (["survey", "--primes", "101", "--out"], "report"),
        (["survey", "--primes", "101", "--format", "json", "--out"], "report"),
        (["dump-coeffs", "--series", "mobius", "--nmax", "10", "--out"], "report"),
        (["moments", "--q", "101", "--lvalues-out"], "L-value table"),
        (["contour", "--check", "quarter", "--y", "1e3", "--sweep", "1e3", "--sweep-out"], "sweep table"),
        (["holder", "--q", "1009", "--lvalues-out"], "L-value table"),
    ])
    def test_unwritable_output_exits_3(self, argv, what, tmp_path, capsys):
        assert run([*argv, str(tmp_path / "missing" / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {what}: ")
        assert "wrote" not in captured.out and "[PASS]" not in captured.out

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "eta", "--levels", "abc"],
        ["verify", "eta", "--shifts", "abc"],
        ["verify", "smoothed", "--primes", "1x1"],
        ["verify", "hankel", "--alphas", "x"],
        ["verify", "pairshift", "--sweep", "1e3,zz"],
        ["dump-coeffs", "--series", "sigma", "--shifts", "abc"],
        ["dump-coeffs", "--series", "dalpha", "--nmax", "0"],
        ["dump-coeffs", "--series", "dalpha", "--nmax", "-5"],
        ["verify", "convolution", "--s", "0"],
        ["verify", "convolution", "--s", "-1"],
        ["verify", "smoothed", "--primes", ","],
        ["verify", "hankel", "--alphas", ","],
        ["verify", "pairshift", "--sweep", ","],
        ["survey", "--primes", ","],
        ["verify", "afe", "--qmin", "5", "--qmax", "4"],
        ["verify", "orthogonality", "--qmax", "2"],
        ["verify", "diagonal", "--primes", "101", "--pairs", "0"],
        ["dump-coeffs", "--series", "dalpha", "--alpha", "x"],
        ["dump-coeffs", "--series", "dalpha", "--alpha", "1/0"],
        ["verify", "zetapow", "--tol", "nan"],
        ["verify", "zetapow", "--tol", "-1"],
        ["verify", "afe", "--tol", "0"],
        ["verify", "perron", "--tol", "inf"],
        ["verify", "quarter", "--sweep", "1"],
        ["verify", "pairshift", "--sweep", "1", "--y", "100"],
        ["verify", "pairshift", "--sweep", "1.5", "--y", "100"],
        ["contour", "--check", "pairshift", "--y", "100", "--sweep", "1.01", "--sweep-out", "s.csv"],
        ["holder", "--q", "1009", "--y", "nan"],
        ["holder", "--q", "1009", "--y", "inf"],
        ["holder", "--q", "1009", "--a", "nan"],
        ["holder", "--q", "1009", "--a", "inf"],
        ["holder", "--q", "1009", "--y", "1e300"],
        ["dump-coeffs", "--series", "weighted", "--x", "nan"],
        ["dump-coeffs", "--series", "mollifier", "--y", "inf"],
        ["verify", "pairshift", "--y", "nan"],
        ["verify", "pairshift", "--y", "inf"],
        ["verify", "pairshift", "--sweep", "nan,1e4"],
        ["verify", "quarter", "--y", "nan"],
        ["verify", "eta", "--w0", "nan"],
        ["verify", "eta", "--shifts", "nan"],
        ["verify", "pairshift", "--alpha", "nan"],
        ["verify", "pairshift", "--alpha", "inf"],
        ["verify", "eta", "--levels", "0,1000"],
        ["verify", "eta", "--levels", "10,10"],
        ["verify", "eta", "--levels", "10,-5"],
        ["verify", "hankel", "--alphas", "nan"],
        ["verify", "hankel", "--alphas", "inf"],
        ["dump-coeffs", "--series", "sigma", "--shifts", "nan"],
        ["dump-coeffs", "--series", "sigma", "--shifts", "inf"],
        ["dump-coeffs", "--series", "rho", "--shifts", "nan"],
        ["dump-coeffs", "--series", "rho", "--shifts", "inf"],
        ["dump-coeffs", "--series", "psi", "--shifts", "nan"],
        ["dump-coeffs", "--series", "psi", "--shifts", "inf"],
        ["dump-coeffs", "--series", "psi", "--zshifts", "inf"],
        ["verify", "convolution", "--nmax", "0"],
        ["verify", "convolution", "--nmax", "20000000"],
        ["dump-coeffs", "--series", "dalpha", "--nmax", "20000000"],
        ["verify", "pairshift", "--y", "1e8"],
        ["verify", "quarter", "--y", "1e30"],
        ["dump-coeffs", "--series", "dalpha", "--alpha", "1e200", "--nmax", "4"],
        ["verify", "eta", "--w0", "1e308"],
        ["verify", "pairshift", "--alpha", "1e300"],
        ["verify", "pairshift", "--m", "2", "--alpha", "60", "--y", "2.5", "--sweep", "2.5,3"],
        ["verify", "hankel", "--alphas", "0"],
        ["moments", "--q", "-5"],
        ["holder", "--q", "-7"],
        ["verify", "orthogonality", "--qmax", "1000004"],
        ["verify", "afe", "--qmin", "5", "--qmax", "1000004"],
        ["verify", "pairshift", "--alpha", "100", "--y", "2.01", "--sweep", "2.01"],
        ["verify", "eta", "--w0", "0.1", "--shifts", "0.05", "--levels", "1000,10000"],
        ["holder", "--q", "1009", "--k", "1"],
        ["verify", "exponents", "--seed", "-1"],
        ["verify", "diagonal", "--primes", "101", "--seed", "-1"],
        ["verify", "dft", "--q", "101", "--seed", "-1"],
    ])
    def test_malformed_input_exits_2(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, flag", _FUZZ_CASES)
    def test_every_registered_flag_refuses_malformed_values(self, command, flag, capsys):
        # every flag at a cheap value, which alone must not be refused, or the property shows
        # nothing; the value under test comes last and overrides its flag's.  A malformed
        # value, or one the parser or _DOMAINS refuses, exits 2; any other exits cleanly.  Each
        # run has the same time budget, so a value that sets off an endless loop fails here
        base = _cheap(command)
        assert _run_in_budget(base) in (0, 1), base
        for value in (*_MALFORMED, *_UNRULED):
            refused = _refusal([*base, flag, value], flag[2:])
            capsys.readouterr()
            code = _run_in_budget([*base, flag, value])
            err = capsys.readouterr().err
            if value in _MALFORMED or refused:
                assert code == 2, (flag, value)
            else:
                assert code in (0, 1) or (code == 2 and err.startswith("error: ")), (flag, value, code, err)
            if refused == "domain":
                assert err.startswith(f"error: {flag} "), (flag, value, err)

    @pytest.mark.parametrize("command, flag, value, code", _RULINGS,
                             ids=[" ".join([*c, f, v]) for c, f, v, _ in _RULINGS])
    def test_unruled_values_keep_their_exit_codes(self, command, flag, value, code):
        assert _run_in_budget([*_cheap(command), flag, value]) == code

    @pytest.mark.parametrize("argv", [
        ["verify", "eta", "--w0", "1e308"],
        ["verify", "pairshift", "--alpha", "1e300"],
        ["dump-coeffs", "--series", "weighted", "--A", "1" + "0" * 60],  # the A-fold power passes 1e308 at n = 64
    ], ids=" ".join)
    def test_overflow_stderr_starts_with_error(self, argv):
        # a fresh interpreter, where nothing captures numpy's RuntimeWarnings
        code = "import sys\nfrom fracmoment.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        out = run_python(code, *argv, check=False)
        assert out.returncode == 2
        assert out.stderr.startswith("error: a value too large for a double: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "perron", "--primes", "5"],
        ["verify", "quarter", "--sweep-out", "f.csv"],
        ["verify", "smoothed", "--tol", "1"],
        ["contour", "--check", "hankel", "--sweep-out", "f.csv"],
        ["verify", "hankel", "--arm", "25"],
        ["moments", "--q", "1009", "--a", "2"],
        ["moments", "--q", "1009", "--y", "3"],
    ])
    def test_flag_the_target_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "eta", "--s", ","],
        ["verify", "eta", "--s", "3,4", "--levels", "1000,10000"],
        ["verify", "eta", "--s", "2,"],
    ], ids=" ".join)
    def test_eta_s_is_one_integer(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
