"""fracmoment: a verification lab for fractional moments of Dirichlet L-functions.

Submodules:
    sieve       multiplicative coefficient sequences (divisor powers, weighted
                polynomial and mollifier coefficients, shifted series), each
                a function of its cutoff, which sieves its own prime factors
    characters  character tables mod prime q, the group DFT and its direct
                reference, the even/odd case table, the diagonal identity
    lvalues     central L-values by Hurwitz oracle, smoothed sum, and AFE
    moments     fractional moments; one per-character bundle of L, P and M
                behind the twisted sums, the Holder chain and the P4 check
    contours    Perron weights and 1/Gamma on one Perron axis, fractional zeta
                powers, the paired-shift double integral and its divisor-sum oracle
    cli         the `fracmoment` command-line front door
"""

from .characters import (
    CharacterTable,
    build_table,
    dft_all_characters,
    diagonal_decomposition_check,
    is_prime,
    naive_character_sums,
)
from .contours import (
    QUARTER,
    eta_stability,
    hankel_recip_gamma,
    paired_shift_check,
    perron_weight,
    zeta_frac_power,
)
from .errors import ConvergenceError, DomainError
from .lvalues import (
    hurwitz_zeta,
    lvalue_table,
    w_weight,
)
from .moments import (
    CharacterValues,
    HolderReport,
    MomentParams,
    character_values,
    evaluate_polynomial_all,
    holder_chain_check,
    holder_exponents,
    moment_sum,
    p4_bound_check,
    scaling_survey,
)
from .sieve import (
    ShiftVector,
    dirichlet_convolve,
    divisor_coeff,
    divisor_series,
    mollifier_coeffs,
    shifted_series,
    weighted_poly_coeffs,
)

__version__ = "0.1.0"
