"""Parser for the textual Laurent-polynomial language.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ['^' int]
    atom   := int | var | '(' expr ')'
    var    := 'x' digits          (1 <= index <= arity)
    int    := ['-'] digits

Precedence is '^' above unary '-' above '*','/' above binary '+','-', and
'^' binds to the nearest atom, so "-x1^2" means -(x1^2).  The exponent of
'^' must be a (possibly negative) integer literal; chained '^' is rejected.
Division is supported only by a monomial whose coefficient is +-1 in the
exact ring, or any unit mod p**K: the divisor's exponent vector is negated
and its coefficient inverted.  Implicit multiplication ("2x1") is rejected
with a hint to write '*'.

A product keeps its factors: when a term `A*B*.../m` is x**e times two or
more factors that are not monomials, with coefficient 1, the expanded
result notes them (`_keep`), flattened through parentheses and '^' -- a
packed walk may step by them one after another (`laurent`).  A sum, a
negation or a coefficient other than 1 keeps none.

Errors are reported as ParseError carrying the byte offset of the offending
token.  Nesting ('(' and unary '-') is bounded by MAX_DEPTH levels, so a
deeply nested input is refused before the recursive descent exhausts the
interpreter's stack.  The arity is bounded by MAX_ARITY: exponent tuples,
hull and lattice eliminations all grow with it, and none of them is priced.
"""

from __future__ import annotations

from .laurent import LaurentPoly


MAX_DEPTH = 100  # each '(' level costs four Python frames, each unary '-' one
MAX_ARITY = 64  # variables; at 64, every command on x1+x1^-1 takes about 0.1 s


class ParseError(ValueError):
    """Syntax or semantic error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*/^()")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, None, i))
            i += 1
            continue
        if "0" <= ch <= "9" or ch == "x":  # ASCII digits only, as int() reads many more
            start = j = i + (ch == "x")
            while j < n and "0" <= src[j] <= "9":
                j += 1
            if j == start:
                raise ParseError("variable needs an index, e.g. 'x1'", i)
            try:
                value = int(src[start:j])
            except ValueError:  # over the interpreter's limit on digits
                raise ParseError(f"a literal of {j - start} digits is too long", i) from None
            tokens.append(("var" if ch == "x" else "int", value, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, arity, p, K):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.arity = arity
        self.p = p
        self.K = K

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, pos):
        """Enter one nesting level opened by the token at `pos`."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    # ------------------------------------------------------------------

    def parse(self):
        result = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            if kind in ("int", "var", "("):
                raise ParseError(
                    "adjacent factors need an explicit '*' (implicit "
                    "multiplication is not supported)",
                    pos,
                )
            raise ParseError(f"unexpected {kind!r}", pos)
        return result

    def expr(self):
        result = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self):
        result = self.factor()
        factors, unit = _split(result)
        while self.peek()[0] in ("*", "/"):
            op, _, oppos = self.advance()
            rhs_pos = self.peek()[2]
            rhs = self.factor()
            if op == "/":
                rhs = self._monomial_inverse(rhs, rhs_pos)
            result = result * rhs
            more, c = _split(rhs)
            factors, unit = factors + more, unit * c
        return _keep(result, factors, unit)

    def factor(self):
        if self.peek()[0] == "-":
            self.nest(self.advance()[2])
            result = -self.factor()
            self.depth -= 1
            return result
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            exp_pos = self.peek()[2]
            exponent = self._int_literal()
            if self.peek()[0] == "^":
                raise ParseError(
                    "chained '^' is not allowed; parenthesize the base",
                    self.peek()[2],
                )
            return self._power(base, exponent, exp_pos)
        return base

    def _int_literal(self):
        negative = False
        if self.peek()[0] == "-":
            self.advance()
            negative = True
        tok = self.expect("int")
        return -tok[1] if negative else tok[1]

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return LaurentPoly.constant(self.arity, value, p=self.p, K=self.K)
        if kind == "var":
            if not 1 <= value <= self.arity:
                raise ParseError(
                    f"variable index {value} out of range 1..{self.arity}", pos
                )
            return LaurentPoly.variable(self.arity, value, p=self.p, K=self.K)
        if kind == "(":
            self.nest(pos)
            inner = self.expr()
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            self.depth -= 1
            return inner
        raise ParseError(f"expected integer, variable or '(', found {kind!r}", pos)

    # ------------------------------------------------------------------

    def _power(self, base, exponent, pos):
        if exponent < 0:
            return self._monomial_inverse(base, pos) ** (-exponent)
        if len(base) < 2:  # a monomial: its exponent scaled
            return base**exponent
        # a walk, priced before the factors repeat
        return _keep(base**exponent, _split(base)[0] * exponent)

    def _monomial_inverse(self, poly, pos):
        if len(poly) != 1:
            raise ParseError(
                "divisor (or base of a negative power) must be a single monomial",
                pos,
            )
        ((e, c),) = poly.terms()
        if self.p is None:
            if c not in (1, -1):
                raise ParseError(
                    f"monomial coefficient {c} is not invertible over Z "
                    "(must be 1 or -1)",
                    pos,
                )
            inv = c
        else:
            if c % self.p == 0:
                raise ParseError(
                    f"monomial coefficient {c} is not a unit mod {self.p}^{self.K}",
                    pos,
                )
            inv = pow(c, -1, poly.modulus)
        return LaurentPoly.monomial(
            self.arity, tuple(-x for x in e), inv, p=self.p, K=self.K
        )


def _split(poly):
    """(factors, coefficient) of poly as x**e times their product: those it
    keeps, else none for a monomial, whose coefficient is returned, else
    poly itself."""
    if "factors" in poly._cache:
        return list(poly._cache["factors"]), 1
    if len(poly) > 1:
        return [poly], 1
    return [], next(iter(poly._coeffs.values()), 0)


def _keep(poly, factors, unit=1):
    """poly, noting `factors` with it when they are two or more and poly is
    x**e times their product times `unit`, a coefficient equal to 1."""
    m = poly.modulus
    if len(factors) > 1 and (unit == 1 if m is None else unit % m == 1):
        poly._cache["factors"] = tuple(factors)
    return poly


def parse_poly(src: str, arity: int, p=None, K=None) -> LaurentPoly:
    """Parse `src` into a canonical sparse polynomial, fully expanded; a
    product also keeps its factors (module docstring)."""
    if not isinstance(arity, int) or not 1 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be an integer in 1..{MAX_ARITY}, got {arity}")
    tokens = _tokenize(src)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", 0)
    return _Parser(tokens, arity, p, K).parse()
