"""Seeded command lists for the three benchmark workloads.

Each workload is a fixed list of `fracmoment` CLI invocations run once per
pass.  The seed picks only what the program receives as input: the --seed of
`verify diagonal` and `verify dft`, each large modulus from a narrow band of
primes (see band_prime; work per pass stays about constant), and the shift
values from a fixed range.  The small moduli 5, 7 and 11 of `verify afe` are
fixed: they take the dense direct-W path that sets the workload's memory
peak.

`tiny=True` gives the same command shapes at sizes small enough for the
harness self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("many_small_q", "few_large_q", "long_series")
BAND_WIDTH = 6


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a unique slug, its argv, and the files it writes.

    outputs[0] is the report (JSON unless it ends in .csv); csv_rows maps a
    CSV output to the number of data rows it must hold.
    """

    slug: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    csv_rows: tuple[tuple[Path, int], ...] = ()


def _largest_prime_factor(n: int) -> int:
    """Largest prime factor of n >= 2 (0 for n < 2, so that no n < 2 qualifies)."""
    if n < 2:
        return 0
    largest, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            largest, n = d, n // d
        d += 1
    return max(largest, n)


def band_prime(rng: random.Random, nominal: int) -> int:
    """One of the first BAND_WIDTH primes q >= nominal whose q - 1 has a
    prime factor above q^(2/3), chosen by rng.

    Every all-character sum is an FFT of length q - 1, which runs several
    times slower when q - 1 has a large prime factor than when it is smooth;
    keeping to one class keeps the work per pass the same for every seed.
    """
    band = []
    n = nominal
    while len(band) < BAND_WIDTH:
        if _largest_prime_factor(n) == n and _largest_prime_factor(n - 1) ** 3 > n**2:
            band.append(n)
        n += 1
    return rng.choice(band)


def _shift(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def commands(workload: str, seed: int, outdir: Path, tiny: bool = False) -> list[Command]:
    """The command list of one pass of `workload`, generated from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    cli_seed = str(rng.randrange(1, 2**31))

    def cmd(slug: str, *args: str, report: str = ".json", extra=(), rows=()) -> Command:
        outputs = [outdir / f"{slug}{report}"] + [outdir / name for _, name in extra]
        argv = [*args, "--out", str(outputs[0])]
        for (flag, _), path in zip(extra, outputs[1:]):
            argv += [flag, str(path)]
        return Command(slug, tuple(argv), tuple(outputs), tuple((outdir / n, k) for n, k in rows))

    if workload == "many_small_q":
        q_mid = band_prime(rng, 101 if tiny else 1009)
        q_moments = band_prime(rng, 101 if tiny else 1009)
        q_holder = band_prime(rng, 401 if tiny else 1009)  # holder needs q > x^2 = 256
        return [
            cmd("verify_afe", "verify", "afe", "--qmin", "5", "--qmax", "7" if tiny else "29"),
            cmd("verify_orthogonality", "verify", "orthogonality", "--qmax", "13" if tiny else "101"),
            cmd("verify_diagonal", "verify", "diagonal", "--primes", f"11,{q_mid}" if tiny else f"101,{q_mid}",
                "--seed", cli_seed),
            cmd("moments_afe_small", "moments", "--q", str(q_moments), "--method", "afe"),
            cmd("holder_small", "holder", "--q", str(q_holder)),
        ]

    if workload == "few_large_q":
        q_export = band_prime(rng, 101 if tiny else 20011)
        q_smoothed = band_prime(rng, 211 if tiny else 30011)
        q_afe = band_prime(rng, 101 if tiny else 5003)
        q_holder = band_prime(rng, 1009 if tiny else 100003)
        q_survey = band_prime(rng, 211 if tiny else 100003)
        q_verify = band_prime(rng, 1009 if tiny else 30011)
        q_dft = band_prime(rng, 101 if tiny else 7001)
        return [
            cmd("moments_lvalues", "moments", "--q", str(q_export),
                extra=(("--lvalues-out", "lvalues.csv"),), rows=(("lvalues.csv", q_export - 2),)),
            cmd("moments_smoothed", "moments", "--q", str(q_smoothed), "--method", "smoothed"),
            cmd("moments_afe", "moments", "--q", str(q_afe), "--method", "afe"),
            cmd("holder_large", "holder", "--q", str(q_holder)),
            cmd("survey", "survey", "--primes", f"101,{q_survey}" if tiny else f"1009,10007,{q_survey}",
                "--format", "json"),
            cmd("verify_smoothed", "verify", "smoothed",
                "--primes", f"101,{q_verify}" if tiny else f"101,1009,10007,{q_verify}"),
            cmd("verify_dft", "verify", "dft", "--q", str(q_dft), "--seed", cli_seed),
        ]

    if workload == "long_series":
        # Re(w0 + shift) stays far enough above 0.2 that the eta drift check
        # keeps more digits than the fixed zetapow pole check at every seed
        eta_shift = _shift(rng, 0.30, 0.40)
        w_shifts = f"{_shift(rng, 0.05, 0.15)},{_shift(rng, 0.15, 0.25)}"
        z_shift = _shift(rng, 0.25, 0.35)
        nmax_dump = 200 if tiny else 50000
        sweep = "1e3,1e4" if tiny else "1e3,1e4,1e5,3e5"
        return [
            cmd("verify_convolution", "verify", "convolution", "--s", "2,3,5",
                "--nmax", "1000" if tiny else "30000"),
            cmd("verify_eta", "verify", "eta", "--shifts", eta_shift,
                "--levels", "10000,100000" if tiny else "30000,300000"),
            cmd("verify_pairshift", "verify", "pairshift", "--alpha", "3", "--beta", "1", "--y", "1e4",
                "--sweep", sweep),
            cmd("verify_quarter", "verify", "quarter", "--y", "1e4", "--sweep", sweep),
            cmd("contour_pairshift", "contour", "--check", "pairshift", "--m", "2",
                "--y", "100" if tiny else "500", "--sweep", "50,100" if tiny else "100,200,500",
                extra=(("--sweep-out", "sweep.csv"),), rows=(("sweep.csv", 2 if tiny else 3),)),
            cmd("verify_perron", "verify", "perron"),
            cmd("verify_hankel", "verify", "hankel"),
            cmd("verify_zetapow", "verify", "zetapow"),
            cmd("dump_coeffs_psi", "dump-coeffs", "--series", "psi", "--s", "1", "--shifts", w_shifts,
                "--zshifts", z_shift, "--nmax", str(nmax_dump),
                report=".csv", rows=(("dump_coeffs_psi.csv", nmax_dump),)),
        ]

    raise ValueError(f"unknown workload {workload!r}")


def all_slugs() -> list[str]:
    """Every command slug over all workloads, in workload order."""
    return [c.slug for w in WORKLOADS for c in commands(w, 0, Path("."), tiny=True)]
