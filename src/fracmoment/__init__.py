"""fracmoment: a verification lab for fractional moments of Dirichlet L-functions.

Submodules:
    sieve       multiplicative coefficient sequences (divisor powers, weighted
                polynomial and mollifier coefficients, shifted series), each
                a function of its cutoff, which sieves its own prime factors
    characters  character tables mod prime q, the group DFT and its direct
                reference, the even/odd case table, the diagonal identity
    lvalues     central L-values by Hurwitz oracle, smoothed sum, and AFE for all
                characters at once, one Euler-Maclaurin tail, W over an array of x
    moments     fractional moments; one per-character bundle of L, P and M
                behind the twisted sums, the Holder chain and the P4 check
    contours    Perron weights and 1/Gamma on one Perron axis, fractional zeta
                powers, the paired-shift double integral and its divisor-sum oracle
    cli         the `fracmoment` command-line front door; every verify target,
                contour check and coefficient series takes the flags its table lists
"""
