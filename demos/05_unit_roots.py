"""p-adic unit roots: analytic approximants vs point counts over F_p.

The fibers t(X+Z)(Y+Z)(X+Y+Z) = XYZ over F_p are (mostly) elliptic curves.
For a smooth ordinary fiber, the unit reciprocal root of its zeta numerator
can be computed two unrelated ways:

  * count points, form a_p = p + 1 - #points, Hensel-lift the unit root of
    T^2 - a_p T + p;

  * evaluate f_s(z_t)/f_{s-1}(z_t^p) at the Teichmuller lift z_t of t.

They must agree mod p^s.  Singular and supersingular fibers are reported,
not skipped.
"""

from dworkcong import (
    apery_numbers_mod,
    hensel_quadratic_unit_root,
    omega_approx,
    teichmuller,
    unit_root_sweep,
)
from dworkcong.padic import PadicInt

p = 7
print(f"sweep over F_{p}^x at s = 2:")
for r in unit_root_sweep(p, 2):
    if not r.smooth:
        print(f"  t={r.t}: singular fiber ({r.count} points)")
    elif not r.ordinary:
        print(f"  t={r.t}: supersingular (a_p = {r.a_p})")
    else:
        print(f"  t={r.t}: a_p={r.a_p:>3}  unit root={r.unit_root:>3}"
              f"  omega={r.omega:>3}  agree={r.agree}")
print()

# Watch the p-adic digits accumulate: each step of s pins one more digit.
t = 3
print(f"unit root above t = {t}, increasing precision:")
for s in (1, 2, 3, 4):
    b = apery_numbers_mod(p**s - 1, p**s)
    ap = 7 + 1 - 10  # point count of the t=3 fiber over F_7 is 10
    u = hensel_quadratic_unit_root(PadicInt(p, s, ap))
    om = omega_approx(b, p, teichmuller(p, t, s), s)
    print(f"  mod 7^{s}: hensel {u.residue:>5}  omega {om.residue:>5}"
          f"  agree {u == om}")
