import random

import pytest

from dworkcong.laurent import LaurentPoly
from dworkcong.polyparse import MAX_ARITY, MAX_DEPTH, ParseError, parse_poly

APERY_SRC = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"

# (1+x1)(1+x2)(1+x1+x2) = 1 + 2x1 + 2x2 + x1^2 + x2^2 + 3x1x2 + x1^2x2 + x1x2^2,
# then divided by x1*x2
APERY_TERMS = {
    (-1, -1): 1,
    (0, -1): 2,
    (-1, 0): 2,
    (1, -1): 1,
    (-1, 1): 1,
    (0, 0): 3,
    (1, 0): 1,
    (0, 1): 1,
}


def test_apery_polynomial_expansion():
    lam = parse_poly(APERY_SRC, 2)
    assert dict(lam.terms()) == APERY_TERMS
    assert lam.constant_term() == 3
    assert len(lam) == 8


def test_simple_two_term():
    lam = parse_poly("x1 + x1^-1", 1)
    assert dict(lam.terms()) == {(1,): 1, (-1,): 1}


def test_non_monomial_divisor_rejected():
    with pytest.raises(ParseError) as err:
        parse_poly("(1+x1)/(1+x2)", 2)
    assert err.value.position == 7


def test_integer_and_unary_minus():
    assert parse_poly("-3", 1) == LaurentPoly.constant(1, -3)
    assert parse_poly("- -3", 1) == LaurentPoly.constant(1, 3)
    assert parse_poly("2-5", 1) == LaurentPoly.constant(1, -3)


def test_power_binds_tighter_than_unary_minus():
    assert parse_poly("-x1^2", 1) == LaurentPoly(1, {(2,): -1})
    assert parse_poly("(-x1)^2", 1) == LaurentPoly(1, {(2,): 1})


def test_negative_powers():
    assert parse_poly("x1^-2", 1) == LaurentPoly(1, {(-2,): 1})
    assert parse_poly("(x1*x2)^-1", 2) == LaurentPoly(2, {(-1, -1): 1})
    assert parse_poly("(-x1)^-1", 1) == LaurentPoly(1, {(-1,): -1})


def test_negative_power_of_non_unit():
    with pytest.raises(ParseError):
        parse_poly("2^-1", 1)
    # 2 is a unit mod 25: 2 * 13 = 26 == 1
    assert parse_poly("2^-1", 1, p=5, K=2) == LaurentPoly.constant(1, 13, p=5, K=2)
    # (2*x1)^-1 mod 9: inverse coefficient 5
    assert parse_poly("(2*x1)^-1", 1, p=3, K=2) == LaurentPoly(
        1, {(-1,): 5}, p=3, K=2
    )


def test_division_unit_rules():
    assert parse_poly("x1/(-x1)", 1) == LaurentPoly.constant(1, -1)
    with pytest.raises(ParseError):
        parse_poly("x1/(2*x1)", 1)
    assert parse_poly("x1/(2*x1)", 1, p=5, K=1) == LaurentPoly.constant(
        1, 3, p=5, K=1
    )
    with pytest.raises(ParseError):
        parse_poly("x1/(5*x1)", 1, p=5, K=2)


def test_chained_power_rejected():
    with pytest.raises(ParseError) as err:
        parse_poly("x1^2^3", 1)
    assert "chained" in str(err.value)


def test_implicit_multiplication_rejected_with_hint():
    with pytest.raises(ParseError) as err:
        parse_poly("2x1", 1)
    assert "'*'" in str(err.value)
    assert err.value.position == 1


def test_variable_index_range():
    with pytest.raises(ParseError):
        parse_poly("x3", 2)
    with pytest.raises(ParseError):
        parse_poly("x0", 2)


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + + x2", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_poly("(1+x1", 1)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_poly("x1 $ x2", 2)
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_poly("", 1)


def test_nesting_depth_bounded():
    deepest = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert parse_poly(deepest, 1) == parse_poly("x1", 1)
    assert parse_poly("-" * MAX_DEPTH + "x1", 1) == parse_poly("x1", 1)
    with pytest.raises(ParseError) as err:
        parse_poly("(" + deepest + ")", 1)
    assert err.value.position == MAX_DEPTH
    with pytest.raises(ParseError) as err:
        parse_poly("(-" * 60 + "x1" + ")" * 60, 1)  # both kinds count
    assert err.value.position == MAX_DEPTH  # the 101st opener
    with pytest.raises(ParseError):
        parse_poly("(" * 3000 + "x1" + ")" * 3000, 1)


def test_arity_bounded():
    assert parse_poly(f"x{MAX_ARITY}", MAX_ARITY).arity == MAX_ARITY
    for arity in (0, MAX_ARITY + 1, 10**6):
        with pytest.raises(ValueError, match=f"arity must be an integer in 1..{MAX_ARITY}"):
            parse_poly("x1", arity)


def test_whitespace_insensitivity():
    tight = parse_poly("(1+x1)*(1+x2)-x1^-1", 2)
    spaced = parse_poly("  ( 1 + x1 ) * ( 1 + x2 )  -  x1 ^ -1 ", 2)
    assert tight == spaced


def test_modular_parsing_reduces():
    lam = parse_poly("7*x1 + 10", 1, p=5, K=1)
    assert dict(lam.terms()) == {(1,): 2}
    assert lam.coefficient((0,)) == 0


def random_poly(rng, arity):
    coeffs = {}
    for _ in range(rng.randint(1, 7)):
        e = tuple(rng.randint(-5, 5) for _ in range(arity))
        c = rng.choice([c for c in range(-9, 10) if c])
        coeffs[e] = c
    return LaurentPoly(arity, coeffs)


def test_print_parse_round_trip():
    rng = random.Random(2718)
    for _ in range(40):
        arity = rng.choice([1, 2, 3])
        a = random_poly(rng, arity)
        assert parse_poly(str(a), arity) == a


def test_print_parse_round_trip_modular():
    rng = random.Random(281)
    for _ in range(20):
        a = random_poly(rng, 2).reduce_mod(7, 2)
        if not a:
            continue
        assert parse_poly(str(a), 2, p=7, K=2) == a


def kept(lam):
    """The factors the parser kept with lam, as strings; None for none."""
    factors = lam._cache.get("factors")
    return factors and [str(f) for f in factors]


def times_monomial(lam, factors):
    """The product of the factors times the monomial x**e that moves its
    least exponent onto lam's: lam when they are lam's factors."""
    out = factors[0]
    for f in factors[1:]:
        out = out._mul_dict(f)
    e = [a - b for a, b in zip(min(lam.support()), min(out.support()))]
    return out._mul_dict(LaurentPoly.monomial(lam.arity, e, p=lam.p, K=lam.K))


@pytest.mark.parametrize("src,d,factors", [
    ("(1+x1)*(1+x2)", 2, ["1 + x1", "1 + x2"]),
    (APERY_SRC, 2, ["1 + x1", "1 + x2", "1 + x2 + x1"]),  # a quotient by a monomial
    ("x1*(1+x1)*x1^-2*(1+x2)", 2, ["1 + x1", "1 + x2"]),
    ("((1+x1)*(x1+x2))*((1+x2))", 2, ["1 + x1", "x2 + x1", "1 + x2"]),  # flattened
    ("(1+x1)^3", 1, ["1 + x1"] * 3),
    ("((1+x1)*(1+x2))^2/x1", 2, ["1 + x1", "1 + x2"] * 2),
    ("(x1+x1^-1)^2*(1+x1)^0*(1-x1)", 1, ["x1^-1 + x1", "x1^-1 + x1", "1 - x1"]),
    ("-(1+x1)*(1+x2)", 2, ["-1 - x1", "1 + x2"]),  # '-' binds to the first factor
])
def test_products_keep_their_factors(src, d, factors):
    lam = parse_poly(src, d)
    assert kept(lam) == factors
    assert times_monomial(lam, lam._cache["factors"]) == lam


@pytest.mark.parametrize("src,d", [
    ("1+x1", 1),  # a sum
    ("(1+x1)*(1+x2)+1", 2),
    ("-((1+x1)*(1+x2))", 2),  # a negated product
    ("2*(1+x1)*(1+x2)", 2),  # a coefficient other than 1
    ("(1+x1)*(1+x2)/(-x1)", 2),
    ("(1+x1)/x1", 1),  # one factor: the base itself
    ("x1*x2^-1", 2),  # a monomial
    ("(1+x1)^1", 1),
])
def test_sums_negations_and_coefficients_keep_no_factors(src, d):
    assert kept(parse_poly(src, d)) is None


@pytest.mark.parametrize("src,d", [(APERY_SRC, 2), ("(1-x1)*(2+x2)^2*(x1-x2)/x2^3", 2),
                                   ("(x1+x2)*(1+x3)*(x1+x2+x3)*(1+x2+x3)/(x1*x2*x3)", 3)])
@pytest.mark.parametrize("p,K", [(2, 1), (3, 2), (7, 3)])
def test_reduce_mod_carries_the_factors(src, d, p, K):
    exact = parse_poly(src, d)
    lam = exact.reduce_mod(p, K)
    factors = lam._cache["factors"]
    assert [f.modulus for f in factors] == [p**K] * len(factors)
    assert factors == tuple(f.reduce_mod(p, K) for f in exact._cache["factors"])
    assert times_monomial(lam, factors) == lam  # the expanded value, reduced
    # the expanded map, and so every printed byte, is the one parsed mod p**K
    assert lam == parse_poly(src, d, p=p, K=K) == LaurentPoly(d, dict(exact.terms()), p=p, K=K)
    assert str(lam) == str(parse_poly(src, d, p=p, K=K))
