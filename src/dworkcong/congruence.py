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
from itertools import zip_longest

from .ghost import (
    GhostCalculator,
    c_from_b_sequence,
    digits_p,
    length_p,
    reconstruct_b,
)
from .laurent import (LaurentPoly, TruncSeries, _mul_mod_lists,
                      constant_term_sequence)
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


def _expand_xp(a, p):
    """Coefficient list of g(X**p) given that of g(X)."""
    out = [0] * ((len(a) - 1) * p + 1)
    for i, ai in enumerate(a):
        out[i * p] = ai
    return out


def _precision(s, K):
    """The working precision K of a check at level s, by the module's rule."""
    if s < 1:
        raise ValueError("s must be >= 1")
    K = s if K is None else K
    if K < s:
        raise ValueError(f"precision K={K} < s={s}")
    return K


def _admissible(lam, force) -> bool:
    """The admissibility gate: raises NotAdmissibleError unless `force`."""
    report = is_admissible(lam)
    if not report.admissible and not force:
        raise NotAdmissibleError(
            "the Newton polytope does not have the origin as its only interior "
            f"integral point (interior points: {list(report.interior_points)}); "
            "pass force=True to run the check anyway"
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


def _first_mismatch(lhs, rhs, m):
    """The c1/c2 witness: the lowest power of X whose coefficients differ mod m."""
    for n, (u, v) in enumerate(zip_longest(lhs, rhs, fillvalue=0)):
        if (u - v) % m:
            return {"exponent": n, "lhs": u % m, "rhs": v % m}
    return None


def _report(check, params, admissible, witness, t0):
    """The report of one check, its wall time counted from t0."""
    return CongruenceReport(check=check, params=params, admissible=admissible,
                            passed=witness is None, witness=witness,
                            wall_time=time.perf_counter() - t0)


def check_c2(lam: LaurentPoly, p: int, s: int, K=None, b=None, force=False):
    """Verify f_{s+1}(X) f_{s-1}(X**p) == f_s(X) f_s(X**p) mod p**s.

    Both products are formed in full and compared coefficient by
    coefficient; needs b through p**(s+1) - 1.
    """
    K = _precision(s, K)
    t0 = time.perf_counter()
    admissible = _admissible(lam, force)
    need = p ** (s + 1)
    bs = _prepare(lam, p, K, b, need)
    modulus = p**K
    lhs = _mul_mod_lists(bs, _expand_xp(bs[: p ** (s - 1)], p), modulus)
    rhs = _mul_mod_lists(bs[: p**s], _expand_xp(bs[: p**s], p), modulus)
    return _report("c2", {"p": p, "s": s, "K": K, "b_through": need - 1},
                   admissible, _first_mismatch(lhs, rhs, p**s), t0)


def check_c1(lam: LaurentPoly, p: int, s: int, N: int, K=None, b=None, force=False):
    """Verify f(X)/f(X**p) == f_s(X)/f_{s-1}(X**p) mod p**s, up to X**N.

    Ill-posed when b_0 is not a unit (the denominators are then not
    invertible as truncated series); (c2) remains checkable in that case.
    """
    K = _precision(s, K)
    if N < 0:
        raise ValueError("N must be non-negative")
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
                   _first_mismatch(lhs.coeffs, rhs.coeffs, p**s), t0)


def check_digit_product(lam: LaurentPoly, p: int, N: int, b=None, force=False):
    """Verify b_n == product of b over the base-p digits of n, mod p."""
    if N < 0:
        raise ValueError("N must be non-negative")
    t0 = time.perf_counter()
    admissible = _admissible(lam, force)
    bs = _prepare(lam, p, 1, b, N + 1)
    witness = None
    for n in range(N + 1):
        prodd = 1
        for d in digits_p(n, p):
            prodd = prodd * bs[d] % p
        if (bs[n] - prodd) % p:
            witness = {"n": n, "lhs": bs[n] % p, "rhs": prodd}
            break
    return _report("digit", {"p": p, "N": N}, admissible, witness, t0)


def check_dig2(lam: LaurentPoly, p: int, s: int, n_max: int, m_max: int,
               K=None, b=None, force=False):
    """Verify b_{n+mp^s} b_{floor(n/p)} == b_n b_{floor(n/p)+mp^(s-1)} mod p**s

    for all 0 <= n <= n_max, 0 <= m <= m_max.  The witness is the
    lexicographically smallest offending (n, m).
    """
    K = _precision(s, K)
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be non-negative")
    t0 = time.perf_counter()
    admissible = _admissible(lam, force)
    ps = p**s
    bs = _prepare(lam, p, K, b, n_max + m_max * ps + 1)
    witness = None
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            lhs = bs[n + m * ps] * bs[n // p]
            rhs = bs[n] * bs[n // p + m * p ** (s - 1)]
            if (lhs - rhs) % ps:
                witness = {"n": n, "m": m, "lhs": lhs % ps, "rhs": rhs % ps}
                break
        if witness:
            break
    return _report("dig2", {"p": p, "s": s, "n_max": n_max, "m_max": m_max, "K": K},
                   admissible, witness, t0)


def run_lemma_suite(lam: LaurentPoly, p: int, n_max: int, guard: int = 2,
                    b=None, force=False):
    """Cross-check the two c_n constructions and their consequences.

    For every n <= n_max, at precision K = ell(n) - 1 + guard:
      * c_n from the ghost construction agrees with the partition-inversion
        oracle (the guard makes the comparison non-vacuous);
      * c_n == 0 mod p**(ell(n)-1);
      * the partition identity rebuilds b_n from the direct c values.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if guard < 1:
        raise ValueError("guard must be >= 1")
    t0 = time.perf_counter()
    K_max = length_p(n_max, p) - 1 + guard
    admissible = _admissible(lam, force)
    calc = GhostCalculator(lam, p=p, K=K_max)
    # sharing the calculator's power cache: the constant-term pass also
    # fills the ghost checkpoints, so everything costs one sweep
    bs = _prepare(lam, p, K_max, b, n_max + 1, calc.constant_terms)
    c_dir = [calc.c_direct(n) for n in range(n_max + 1)]
    c_inv = c_from_b_sequence(bs, n_max, p, K_max)
    modulus = p**K_max
    witness = None
    for n in range(n_max + 1):
        ln = length_p(n, p)
        pk = p ** (ln - 1 + guard)
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
    return _report("lemma", {"p": p, "n_max": n_max, "guard": guard, "K": K_max},
                   admissible, witness, t0)
