"""Congruence checks on constant-term sequences, with machine-readable verdicts.

Notation: b_n is the constant term of lam**n, f(X) = sum b_n X**n, and
f_s(X) = sum_{n < p**s} b_n X**n.  The checks:

  * c2     f_{s+1}(X) f_{s-1}(X**p) == f_s(X) f_s(X**p)        mod p**s
  * c1     f(X)/f(X**p) == f_s(X)/f_{s-1}(X**p)                mod p**s, to X**N
  * digit  b_n == prod of b over the base-p digits of n        mod p
  * dig2   b_{n+m p**s} b_{floor(n/p)} == b_n b_{floor(n/p)+m p**(s-1)}  mod p**s
  * lemma  the two c_n constructions agree, c_n == 0 mod p**(ell(n)-1),
           and the block-partition identity reconstructs b_n

(c2) is the primary check: it is a pure polynomial identity with no
invertibility hypothesis.  (c1) is gated on b_0 being a unit, in which case
the two are equivalent.  The precision rule of c2, c1 and dig2: s >= 1, and
the working precision K defaults to s and may not be below it.  Both sides
involve only ring operations and divisions by units mod p**s, so no guard
digits are mathematically required; pass K > s for diagnostics.

Every failure carries a witness: the smallest offending power of X (c1/c2),
the smallest offending n (digit/lemma), or the lexicographically smallest
(n, m) (dig2), together with both residues.

Non-admissible polynomials are refused unless `force=True`; the verdict is
still meaningful then, as an experiment, and the report records the
admissibility finding either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import log2, prod

from .ghost import (
    GhostCalculator,
    c_from_b_sequence,
    digits_p,
    length_p,
    reconstruct_b,
)
from .budget import check, check_series
from .laurent import LaurentPoly, TruncSeries, constant_term_sequence
from .padic import _context_modulus
from .polytope import is_admissible


class NotAdmissibleError(ValueError):
    """Raised when a check is asked to run on a non-admissible polynomial."""


@dataclass
class CongruenceReport:
    check: str
    params: dict
    admissible: bool
    passed: bool
    witness: dict | None = None
    wall_time: float = field(default=0.0, compare=False)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        # wall_time is deliberately left out: structured reports must be
        # byte-identical across runs.
        return {
            "check": self.check,
            "params": dict(self.params),
            "admissible": self.admissible,
            "verdict": self.verdict,
            "witness": dict(self.witness) if self.witness else None,
        }


def f_trunc(b, p: int, s: int, K: int) -> TruncSeries:
    """The truncation f_s as a series with cutoff p**s - 1, coefficients mod p**K."""
    if s < 0:
        raise ValueError("s must be non-negative")
    need = p**s
    if len(b) < need:
        raise ValueError(f"need b through index {need - 1}, got {len(b)} values")
    return TruncSeries(p, K, need - 1, list(b[:need]))


def _precision(p, s, K):
    """The working precision K of a check at level s, by the module's rule;
    p**K, and with it every p**e, e <= s, is priced (`_context_modulus`)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    K = s if K is None else K
    if K < s:
        raise ValueError(f"precision K={K} < s={s}")
    _context_modulus(p, K)
    return K


def _b_through(p, e, what):
    """p**e for a check that needs b through about p**e, refused first when
    p**e walk steps alone are over WALK_BUDGET: compared in log2 (e
    capped at 2**64), so that p**e is never formed then."""
    _context_modulus(p, 1)  # p prime, so log2(p) >= 1
    check(min(e, 2**64) * log2(p), what, log=True)
    return p**e


def _admissible(lam, force) -> bool:
    """The admissibility gate: raises NotAdmissibleError unless `force`."""
    report = is_admissible(lam)
    if not report.admissible and not force:
        points = list(report.interior_points)
        shown = ", ".join(map(str, points[:5])) + (", ..." if len(points) > 5 else "")
        found = f"{len(points)} interior points: {shown}" if points else "no interior points"
        raise NotAdmissibleError(
            "the Newton polytope does not have the origin as its only interior "
            f"integral point ({found}); pass force=True to run the check anyway"
        )
    return report.admissible


def _prepare(lam, p, K, b, need, sweep=None):
    """b_0..b_{need-1} mod p**K: the supplied b, else a constant-term sweep.

    `sweep(N)` returns b_0..b_N; by default it is a fresh sweep over the
    powers of lam mod p**K.
    """
    modulus = _context_modulus(p, K)
    if b is None:
        if sweep is None:
            return constant_term_sequence(lam.reduce_mod(p, K), need - 1)
        return sweep(need - 1)
    if len(b) < need:
        raise ValueError(f"need b through index {need - 1}, got {len(b)} values")
    return [v % modulus for v in b[:need]]


def _first_mismatch(cases, m):
    """The witness of the first case (fields, lhs, rhs) with lhs != rhs mod m:
    its fields and both sides reduced mod m; None when every case holds."""
    for fields, lhs, rhs in cases:
        if (lhs - rhs) % m:
            return {**fields, "lhs": lhs % m, "rhs": rhs % m}
    return None


def _series_cases(lhs, rhs):
    """The c1/c2 cases: the coefficients of X**n on the two sides."""
    return (({"exponent": n}, u, v) for n, (u, v) in enumerate(zip(lhs.coeffs, rhs.coeffs)))


def _report(check, params, admissible, witness, t0):
    """The report of one check, its wall time counted from t0."""
    return CongruenceReport(check=check, params=params, admissible=admissible,
                            passed=witness is None, witness=witness,
                            wall_time=time.perf_counter() - t0)


def check_c2(lam: LaurentPoly, p: int, s: int, K=None, b=None, force=False):
    """Verify f_{s+1}(X) f_{s-1}(X**p) == f_s(X) f_s(X**p) mod p**s.

    Both products are formed in full, as series cut off at their common
    degree p**(s+1) + p**s - p - 1, and compared coefficient by coefficient;
    needs b through p**(s+1) - 1.
    """
    K = _precision(p, s, K)
    t0 = time.perf_counter()
    admissible = _admissible(lam, force)
    need = _b_through(p, s + 1, "b through p**(s+1)")
    N = need + p**s - p - 1
    check_series(N + 1, _context_modulus(p, K), 2)
    bs = _prepare(lam, p, K, b, need)

    def f(k):
        return TruncSeries(p, K, N, bs[: p**k])

    lhs = f(s + 1) * f(s - 1).compose_xp()
    rhs = f(s) * f(s).compose_xp()
    return _report("c2", {"p": p, "s": s, "K": K, "b_through": need - 1},
                   admissible, _first_mismatch(_series_cases(lhs, rhs), p**s), t0)


def check_c1(lam: LaurentPoly, p: int, s: int, N: int, K=None, b=None, force=False):
    """Verify f(X)/f(X**p) == f_s(X)/f_{s-1}(X**p) mod p**s, up to X**N.

    Ill-posed when b_0 is not a unit (the denominators are then not
    invertible as truncated series); (c2) remains checkable in that case.
    """
    K = _precision(p, s, K)
    if N < 0:
        raise ValueError("N must be non-negative")
    # two products and two Newton inversions, each two products a doubling
    check_series(N + 1, _context_modulus(p, K), 2 + 4 * N.bit_length())
    t0 = time.perf_counter()
    admissible = _admissible(lam, force)
    bs = _prepare(lam, p, K, b, N + 1)
    if bs[0] % p == 0:
        raise ValueError(
            f"b_0 = {bs[0]} is not a unit mod {p}: (c1) is ill-posed "
            "(series quotients undefined); (c2) remains checkable"
        )
    f_full = TruncSeries(p, K, N, bs)
    f_s = TruncSeries(p, K, N, bs[: min(p**s, N + 1)])
    f_sm1 = TruncSeries(p, K, N, bs[: min(p ** (s - 1), N + 1)])
    lhs = f_full * f_full.compose_xp().invert()
    rhs = f_s * f_sm1.compose_xp().invert()
    return _report("c1", {"p": p, "s": s, "K": K, "N": N}, admissible,
                   _first_mismatch(_series_cases(lhs, rhs), p**s), t0)


def check_digit_product(lam: LaurentPoly, p: int, N: int, b=None, force=False):
    """Verify b_n == product of b over the base-p digits of n, mod p."""
    if N < 0:
        raise ValueError("N must be non-negative")
    t0 = time.perf_counter()
    admissible = _admissible(lam, force)
    bs = _prepare(lam, p, 1, b, N + 1)
    witness = _first_mismatch((({"n": n}, bs[n], prod(bs[d] for d in digits_p(n, p)))
                               for n in range(N + 1)), p)
    return _report("digit", {"p": p, "N": N}, admissible, witness, t0)


def check_dig2(lam: LaurentPoly, p: int, s: int, n_max: int, m_max: int,
               K=None, b=None, force=False):
    """Verify b_{n+mp^s} b_{floor(n/p)} == b_n b_{floor(n/p)+mp^(s-1)} mod p**s

    for all 0 <= n <= n_max, 0 <= m <= m_max.  The witness is the
    lexicographically smallest offending (n, m).
    """
    K = _precision(p, s, K)
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be non-negative")
    t0 = time.perf_counter()
    admissible = _admissible(lam, force)
    ps = _b_through(p, s, "b through m_max*p**s") if m_max else p**s
    bs = _prepare(lam, p, K, b, n_max + m_max * ps + 1)
    witness = _first_mismatch((({"n": n, "m": m}, bs[n + m * ps] * bs[n // p],
                                bs[n] * bs[n // p + m * p ** (s - 1)])
                               for n in range(n_max + 1) for m in range(m_max + 1)), ps)
    return _report("dig2", {"p": p, "s": s, "n_max": n_max, "m_max": m_max, "K": K},
                   admissible, witness, t0)


# Digits of precision the lemma suite keeps beyond c_n's valuation ell(n)-1.
GUARD = 2


def run_lemma_suite(lam: LaurentPoly, p: int, n_max: int, b=None, force=False):
    """Cross-check the two c_n constructions and their consequences.

    For every n <= n_max, at precision K = ell(n) - 1 + GUARD:
      * c_n from the ghost construction agrees with the partition-inversion
        oracle (the GUARD digits make the comparison non-vacuous);
      * c_n == 0 mod p**(ell(n)-1);
      * the partition identity rebuilds b_n from the direct c values.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    t0 = time.perf_counter()
    _context_modulus(p, 1)  # before base-p digits: p = 0 or 1 has none
    K_max = length_p(n_max, p) - 1 + GUARD
    admissible = _admissible(lam, force)
    calc = GhostCalculator(lam, p=p, K=K_max)
    calc._check_fold_work(n_max)
    # sharing the calculator's power cache: the constant-term pass also
    # fills the ghost checkpoints, so everything costs one sweep
    bs = _prepare(lam, p, K_max, b, n_max + 1, calc.constant_terms)
    c_dir = [calc.c_direct(n) for n in range(n_max + 1)]
    c_inv = c_from_b_sequence(bs, n_max, p, K_max)
    modulus = p**K_max
    witness = None
    for n in range(n_max + 1):
        ln = length_p(n, p)
        pk = p ** (ln - 1 + GUARD)
        if (c_dir[n] - c_inv[n]) % pk:
            witness = {"n": n, "failure": "agreement",
                       "lhs": c_dir[n] % pk, "rhs": c_inv[n] % pk}
            break
        if c_dir[n] % p ** (ln - 1):
            witness = {"n": n, "failure": "valuation",
                       "lhs": c_dir[n], "rhs": 0}
            break
        rb = reconstruct_b(c_dir, n, p, modulus=modulus)
        if (rb - bs[n]) % modulus:
            witness = {"n": n, "failure": "reconstruction",
                       "lhs": rb, "rhs": bs[n] % modulus}
            break
    return _report("lemma", {"p": p, "n_max": n_max, "guard": GUARD, "K": K_max},
                   admissible, witness, t0)
