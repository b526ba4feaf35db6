"""Exact scalar arithmetic over the rationals extended by named parameters.

A :class:`Scalar` is a multivariate polynomial with ``fractions.Fraction``
coefficients in a fixed, ordered tuple of parameter names.  All arithmetic is
exact; equality is structural equality of canonical forms, so ``is_zero`` is
a decision procedure, not a numeric test.

Expression grammar accepted by :func:`parse_scalar` (also printed by
``str(scalar)``)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ['^' uint]
    atom   := rational | ident | '(' expr ')'
    rational := uint ['/' uint]

There is no division operator; ``/`` only appears inside rational literals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import log2
from operator import add, sub
from typing import Collection, Iterable, Mapping

__all__ = ["Scalar", "ParseError", "parse_scalar", "MAX_POWER_BITS"]

_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")
_ZERO = Fraction(0)

#: Largest estimated size, in coefficient bits over all terms, of a power that
#: ``Scalar.__pow__`` (and so the ``^`` of the grammar) computes.  A ``t``-term
#: base to the power ``e`` has at most ``C(e + t - 1, t - 1)`` terms, each with
#: about ``e * (g + log2 t)`` bits, where ``g`` bounds the bits of a base
#: coefficient beyond those of 1; a power of ``a`` or ``-a`` costs nothing.
MAX_POWER_BITS = 100_000

# the decimal exponent of a rational string such as "1.5e-3"
_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")

#: Deepest nesting of parentheses and unary minus signs that the parser reads;
#: each level costs a few interpreter frames.
MAX_NESTING = 100


class ParseError(ValueError):
    """Raised on malformed scalar expressions; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and strings like ``-3/7`` to a Fraction.

    Floats are rejected: they would silently smuggle inexactness into what is
    otherwise an exact computation.  A string whose decimal exponent ``e`` gives
    ``10**|e|`` over ``MAX_POWER_BITS`` bits is refused before it is computed.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT_RE.search(value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(MAX_POWER_BITS)) or int(digits or 0) * log2(10) > MAX_POWER_BITS:
            raise ValueError(f"decimal exponent exceeds the size bound of {MAX_POWER_BITS} bits")
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class _Params(tuple):
    """A tuple of parameter names that ``_validated_params`` has checked."""

    __slots__ = ()


def _validated_params(params: Iterable[str]) -> _Params:
    if type(params) is _Params:
        return params
    names = tuple(params)
    seen = set()
    for name in names:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(f"invalid parameter name: {name!r}")
        if name in seen:
            raise ValueError(f"duplicate parameter name: {name!r}")
        seen.add(name)
    return _Params(names)


def _capped_comb(n: int, k: int, cap: int) -> int:
    """``C(n, k)``, or some value above ``cap`` once the result is known to be."""
    k = min(k, n - k)
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i  # at least doubles while k <= n / 2
        if result > cap:
            break
    return result


def _check_power(coefficients: Collection[Fraction], exponent: int) -> None:
    """Refuse, before any product, a power of a polynomial with these nonzero
    coefficients whose size is estimated above ``MAX_POWER_BITS``."""
    if exponent < 2 or not coefficients:
        return
    t = len(coefficients)
    growth = max((abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()
                 for c in coefficients)
    bits = exponent * (growth + (t - 1).bit_length())
    if _capped_comb(exponent + t - 1, t - 1, MAX_POWER_BITS) * bits > MAX_POWER_BITS:
        raise ValueError(
            f"a power of a {t}-term polynomial exceeds the size bound of "
            f"{MAX_POWER_BITS} bits"
        )


def _product_bits(x: "Scalar", y: "Scalar") -> int:
    """Estimated size of ``x * y``: term counts multiplied, times the largest
    coefficient sizes in bits added."""
    def bits(s):
        return max((c.numerator.bit_length() + c.denominator.bit_length()
                    for c in s.terms.values()), default=0)
    return len(x.terms) * len(y.terms) * (bits(x) + bits(y))


def _rational_power(value: Fraction, exponent: int) -> Fraction:
    """``value ** exponent`` for a substituted parameter, bounded like ``^``."""
    if value:
        _check_power((value,), exponent)
    return value ** exponent


class Scalar:
    """A polynomial in the declared parameters with rational coefficients.

    ``terms`` maps exponent tuples (one entry per parameter, in declared
    order) to nonzero coefficients.  Instances are immutable; every operation
    returns a canonical-form Scalar, which may be an operand itself (``x + 0``).
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: Iterable[str], terms: Mapping[tuple[int, ...], object] | None = None):
        object.__setattr__(self, "params", _validated_params(params))
        n = len(self.params)
        canonical: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for parameters {self.params!r}")
            c = as_rational(coeff)
            if c:
                canonical[exps] = canonical.get(exps, Fraction(0)) + c
                if not canonical[exps]:
                    del canonical[exps]
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (tuple(self.params), self.terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, params: Iterable[str] = ()) -> "Scalar":
        c = as_rational(value)
        params = _validated_params(params)
        return _make(params, {(0,) * len(params): c} if c else {})

    @classmethod
    def zero(cls, params: Iterable[str] = ()) -> "Scalar":
        return _make(_validated_params(params), {})

    @classmethod
    def one(cls, params: Iterable[str] = ()) -> "Scalar":
        return cls.constant(1, params)

    @classmethod
    def variable(cls, name: str, params: Iterable[str]) -> "Scalar":
        params = tuple(params)
        if name not in params:
            raise ValueError(f"unknown parameter {name!r}; declared: {params!r}")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, {exps: Fraction(1)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a parameter-free Scalar, as a Fraction."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant scalar: {self}")
        return next(iter(self.terms.values()))

    # -- ring operations ----------------------------------------------------
    #
    # Results are built by ``_make``: the operands are canonical and their
    # parameter names were checked when they were made, so the result is too.

    def _coerced(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.params != self.params:
                raise ValueError(
                    f"parameter list mismatch: {self.params!r} vs {other.params!r}"
                )
            return other
        return Scalar.constant(other, self.params)

    def _merged(self, other: "Scalar", op) -> "Scalar":
        """``op(self, other)`` for ``op`` in ``add``, ``sub``, term by term."""
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = op(terms.get(exps, _ZERO), c)
            if s:
                terms[exps] = s
            else:
                del terms[exps]
        return _make(self.params, terms)

    def __add__(self, other):
        try:
            other = self._coerced(other)
        except TypeError:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._merged(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        try:
            other = self._coerced(other)
        except TypeError:
            return NotImplemented
        if not other.terms:
            return self
        return self._merged(other, sub)

    def __rsub__(self, other):
        try:
            other = self._coerced(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = self._coerced(other)
        except TypeError:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                s = terms.get(exps, _ZERO) + c1 * c2
                if s:
                    terms[exps] = s
                else:
                    del terms[exps]
        return _make(self.params, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative exponent")
        _check_power(self.terms.values(), exponent)
        result = Scalar.one(self.params)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return len(self.terms) == 1 and self.terms.get((0,) * len(self.params)) == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    __hash__ = None  # mutable-looking dict inside; compare structurally only

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        """Exact evaluation; every parameter occurring in self must be assigned."""
        values = {}
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            acc = coeff
            for name, e in zip(self.params, exps):
                if not e:
                    continue
                if name not in values:
                    if name not in assignment:
                        raise ValueError(f"missing parameter value for {name!r}")
                    values[name] = as_rational(assignment[name])
                acc *= _rational_power(values[name], e)
            total += acc
        return total

    def substitute(self, assignment: Mapping[str, object]) -> "Scalar":
        """Replace a subset of parameters by rationals.

        The result lives over the remaining parameters, in declared order.
        """
        for name in assignment:
            if name not in self.params:
                raise ValueError(f"unknown parameter {name!r} in assignment")
        values = {name: as_rational(v) for name, v in assignment.items()}
        kept = _Params(p for p in self.params if p not in values)
        kept_pos = [i for i, p in enumerate(self.params) if p not in values]
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            acc = coeff
            for name, e in zip(self.params, exps):
                if e and name in values:
                    acc *= _rational_power(values[name], e)
            new_exps = tuple(exps[i] for i in kept_pos)
            s = terms.get(new_exps, Fraction(0)) + acc
            if s:
                terms[new_exps] = s
            else:
                terms.pop(new_exps, None)
        return _make(kept, terms)

    # -- printing -----------------------------------------------------------

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        factors = []
        for name, e in zip(self.params, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors)

    def __str__(self):
        if not self.terms:
            return "0"
        # graded lexicographic, largest first: total degree, then exponent
        # vector in declared parameter order.
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for exps in keys:
            coeff = self.terms[exps]
            mono = self._monomial_str(exps)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Scalar({str(self)!r}, params={self.params!r})"


def _make(params: _Params, terms: dict[tuple[int, ...], Fraction]) -> Scalar:
    """The trusted constructor: ``params`` already validated, ``terms`` canonical."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "params", params)
    object.__setattr__(s, "terms", terms)
    return s


# -- parser -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*^()/])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, params: tuple[str, ...]):
        self.text = text
        self.params = params
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, "", len(self.text))

    def take(self):
        tok = self.peek()
        self.index += 1
        return tok

    def nested(self, parse, pos: int) -> Scalar:
        """``parse()`` one level deeper, refused past ``MAX_NESTING`` levels."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def expect_op(self, op: str):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Scalar:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> Scalar:
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.take()
                rhs = self.factor()
                if _product_bits(value, rhs) > MAX_POWER_BITS:
                    raise ParseError(
                        f"a product exceeds the size bound of {MAX_POWER_BITS} bits", pos)
                value = value * rhs
            else:
                return value

    def factor(self) -> Scalar:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return -self.nested(self.factor, pos)
        value = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            caret = pos
            self.take()
            kind, text, pos = self.peek()
            if kind == "op" and text == "-":
                raise ParseError("negative exponent", pos)
            if kind != "num":
                raise ParseError("expected a nonnegative integer exponent", pos)
            self.take()
            try:
                value = value ** int(text)
            except ValueError as exc:  # over the power bound, or too many digits
                raise ParseError(str(exc), caret) from None
        return value

    def atom(self) -> Scalar:
        kind, text, pos = self.take()
        if kind == "num":
            numerator = int(text)
            kind2, text2, _ = self.peek()
            if kind2 == "op" and text2 == "/":
                self.take()
                kind3, text3, pos3 = self.take()
                if kind3 != "num":
                    raise ParseError("expected an integer denominator", pos3)
                if int(text3) == 0:
                    raise ParseError("zero denominator", pos3)
                return Scalar.constant(Fraction(numerator, int(text3)), self.params)
            return Scalar.constant(numerator, self.params)
        if kind == "ident":
            if text not in self.params:
                raise ParseError(f"unknown identifier {text!r}", pos)
            return Scalar.variable(text, self.params)
        if kind == "op" and text == "(":
            value = self.nested(self.expr, pos)
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {text!r}" if kind else "unexpected end of input", pos)


def parse_scalar(text: str, params: Iterable[str]) -> Scalar:
    """Parse an expression over the declared parameters into canonical form."""
    return _Parser(text, _validated_params(params)).parse()
