from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homtwist.scalar import MAX_POWER_BITS, ParseError, Scalar, parse_scalar


class TestParse:
    def test_rational_literal(self):
        assert parse_scalar("1/2", []) == Scalar.constant(Fraction(1, 2))

    def test_product_expansion(self):
        # (a-b)*b == a*b - b^2
        got = parse_scalar("(a-b)*b", ["a", "b"])
        expected = parse_scalar("a*b - b^2", ["a", "b"])
        assert got == expected

    def test_negative_half_times_sum(self):
        got = parse_scalar("-1/2*(1+q)", ["q"])
        expected = parse_scalar("-1/2 - 1/2*q", ["q"])
        assert got == expected

    def test_power(self):
        assert parse_scalar("q^2", ["q"]) == Scalar.variable("q", ["q"]) ** 2

    def test_unary_minus_forms(self):
        params = ["a"]
        assert parse_scalar("-a", params) == -Scalar.variable("a", params)
        assert parse_scalar("--a", params) == Scalar.variable("a", params)
        assert parse_scalar("2*-a", params) == Scalar.constant(-2, params) * Scalar.variable("a", params)
        assert parse_scalar("-(a+1)", params) == -(Scalar.variable("a", params) + 1)

    def test_minus_binds_below_power(self):
        # -a^2 is -(a^2)
        params = ["a"]
        assert parse_scalar("-a^2", params) == -(Scalar.variable("a", params) ** 2)

    def test_whitespace(self):
        assert parse_scalar(" 1 + q ", ["q"]) == Scalar.constant(1, ["q"]) + Scalar.variable("q", ["q"])

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("a+*b", ["a", "b"])
        assert err.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'c'"):
            parse_scalar("a*c", ["a", "b"])

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_scalar("a^-1", ["a"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("a b", ["a", "b"])

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_scalar("1/0", [])

    def test_chained_power_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("a^2^3", ["a"])


class TestArithmetic:
    def test_additive_inverse(self):
        a = Scalar.variable("a", ["a"])
        assert (a + (-a)).is_zero()

    def test_mul_expansion(self):
        a, b = (Scalar.variable(n, ["a", "b"]) for n in "ab")
        assert (a - b) * b == a * b - b ** 2

    def test_pow(self):
        q = Scalar.variable("q", ["q"])
        assert q ** 2 == q * q
        assert q ** 0 == Scalar.one(["q"])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Scalar.variable("q", ["q"]) ** -1

    def test_parameter_mismatch(self):
        a = Scalar.variable("a", ["a"])
        b = Scalar.variable("b", ["b"])
        with pytest.raises(ValueError, match="parameter list mismatch"):
            a + b

    def test_int_promotion(self):
        q = Scalar.variable("q", ["q"])
        assert 1 + q == q + 1 == parse_scalar("q+1", ["q"])
        assert 2 * q == q * 2

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Scalar.variable("q", ["q"]) * 0.5


class TestPowerBound:
    def test_huge_powers_refused_before_computing(self, monkeypatch):
        a = Scalar.variable("a", ["a"])
        bases = [1 + a, 2 * a, Scalar.constant(2 ** 10_000, ["a"])]

        def no_product(self, other):
            raise AssertionError("a refused power must not multiply")

        monkeypatch.setattr(Scalar, "__mul__", no_product)
        for base, exponent in zip(bases, [99_999_999, 99_999_999, 100]):
            with pytest.raises(ValueError, match="exceeds the size bound"):
                base ** exponent

    def test_size_bound(self):
        a = Scalar.variable("a", ["a"])
        # (1+a)^e has e+1 terms of about e bits each
        assert len(((1 + a) ** 315).terms) == 316
        with pytest.raises(ValueError, match="exceeds the size bound"):
            (1 + a) ** 316
        with pytest.raises(ValueError, match="exceeds the size bound"):
            parse_scalar("1+a+b", ["a", "b"]) ** 80

    def test_bound_is_inclusive(self):
        two = Scalar.constant(2, ["a"])
        assert two ** MAX_POWER_BITS == Scalar.constant(2 ** MAX_POWER_BITS, ["a"])
        with pytest.raises(ValueError, match="exceeds the size bound"):
            two ** (MAX_POWER_BITS + 1)
        a = Scalar.variable("a", ["a"])
        assert (a - a) ** 99_999_999 == 0

    def test_monomial_powers_are_not_bounded(self):
        # a power of a or -a is one term with coefficient 1 or -1, whatever e is
        for text, printed in [("a^100*a", "a^101"), ("a^101", "a^101"),
                              ("(-a)^99999999", "-a^99999999"),
                              ("(a^99999999)^99999999", "a^9999999800000001")]:
            value = parse_scalar(text, ["a"])
            assert str(value) == printed
            assert parse_scalar(printed, ["a"]) == value

    def test_substituted_powers_are_bounded(self):
        s = parse_scalar("a^99999999 + b", ["a", "b"])
        for value in [0, 1, -1]:
            assert s.substitute({"a": value}) == parse_scalar(f"{value ** 99999999} + b", ["b"])
        with pytest.raises(ValueError, match="exceeds the size bound"):
            s.substitute({"a": 3})
        with pytest.raises(ValueError, match="exceeds the size bound"):
            s.evaluate({"a": Fraction(1, 2), "b": 0})

    def test_parser_reports_the_caret(self):
        with pytest.raises(ParseError, match="exceeds the size bound") as err:
            parse_scalar("(1+a)^99999999", ["a"])
        assert err.value.position == 5
        with pytest.raises(ParseError) as err:
            parse_scalar("a*(1+a+b)^80", ["a", "b"])
        assert err.value.position == 9
        with pytest.raises(ParseError) as err:
            parse_scalar("((((2^100)^100)^100)^100)^100", [])
        assert err.value.position == 15
        with pytest.raises(ParseError) as err:
            parse_scalar("a^" + "9" * 5000, ["a"])
        assert err.value.position == 1

    @pytest.mark.parametrize("exponent", [2, 3, 4])
    def test_small_powers_match_repeated_products(self, exponent):
        # the shape of the benchmark's eval expressions
        params = ["a", "b"]
        base = parse_scalar("3*a - 2/5*b", params)
        expected = Scalar.one(params)
        for _ in range(exponent):
            expected = expected * base
        assert parse_scalar(f"(3*a - 2/5*b)^{exponent}", params) == expected


class TestIsZero:
    def test_algebraic_identity(self):
        a, b = (Scalar.variable(n, ["a", "b"]) for n in "ab")
        assert (a * b - b ** 2 - (a - b) * b).is_zero()

    def test_nonzero(self):
        a, b = (Scalar.variable(n, ["a", "b"]) for n in "ab")
        assert not (a - b).is_zero()

    def test_zero_constant(self):
        assert Scalar.constant(Fraction(0, 1)).is_zero()


class TestEvaluate:
    def test_example(self):
        s = parse_scalar("(a-b)*b", ["a", "b"])
        assert s.evaluate({"a": 1, "b": 2}) == Fraction(-2)

    def test_square_at_one(self):
        assert parse_scalar("q^2", ["q"]).evaluate({"q": 1}) == 1

    def test_constant_empty_assignment(self):
        assert parse_scalar("7/3", []).evaluate({}) == Fraction(7, 3)

    def test_unused_parameter_not_required(self):
        s = parse_scalar("a", ["a", "b"])
        assert s.evaluate({"a": 5}) == 5

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameter value"):
            parse_scalar("a*b", ["a", "b"]).evaluate({"a": 1})


class TestSubstitute:
    def test_partial(self):
        s = parse_scalar("a*q + q^2", ["a", "q"])
        t = s.substitute({"a": 2})
        assert t.params == ("q",)
        assert t == parse_scalar("2*q + q^2", ["q"])

    def test_full(self):
        s = parse_scalar("(a-b)*b", ["a", "b"])
        assert s.substitute({"a": 1, "b": 2}) == Scalar.constant(-2)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_scalar("a", ["a"]).substitute({"z": 1})


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def _polys(params=("a", "b"), max_exponent=3):
    exps = st.tuples(*(st.integers(0, max_exponent) for _ in params))
    return st.dictionaries(exps, _rationals, max_size=4).map(
        lambda terms: Scalar(params, terms)
    )


def _assert_canonical(r):
    """``r`` is exactly what the validating constructor makes of its terms."""
    assert Scalar(r.params, r.terms).terms == r.terms
    for exps, coeff in r.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(exps) is tuple and len(exps) == len(r.params)
        assert all(type(e) is int and e >= 0 for e in exps)


class TestProperties:
    @given(_polys(), _polys(), st.integers(0, 3),
           st.fractions(min_value=-9, max_value=9, max_denominator=5))
    @settings(max_examples=60)
    def test_ring_results_are_canonical(self, x, y, e, v):
        point = x.substitute({"a": v, "b": 1 - v})
        results = [x + y, x - y, -x, x * y, (x + y) * (x - y), x ** e,
                   x + 0, 0 + x, x - 0, 0 - x, x + 1, 1 - x, 2 * x, x - x,
                   x.substitute({"a": v}), point]
        for r in results:
            _assert_canonical(r)
        assert x - y == x + (-y)
        assert type(point.constant_value()) is Fraction
        assert type((x - x).constant_value()) is Fraction

    @given(_polys())
    def test_print_parse_round_trip(self, s):
        assert parse_scalar(str(s), s.params) == s

    @given(_polys(max_exponent=10**6))
    def test_print_parse_round_trip_high_degree(self, s):
        assert parse_scalar(str(s), s.params) == s

    @given(_polys())
    def test_truth_is_nonzero(self, s):
        assert bool(s) == (not s.is_zero())

    @given(_polys())
    def test_canonical_idempotence(self, s):
        assert Scalar(s.params, s.terms) == s

    @given(_polys(), _polys(), _polys())
    @settings(max_examples=40)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x * Scalar.one(x.params) == x
        assert x + Scalar.zero(x.params) == x

    @given(_polys(), _polys(),
           st.fractions(min_value=-9, max_value=9, max_denominator=5),
           st.fractions(min_value=-9, max_value=9, max_denominator=5))
    @settings(max_examples=40)
    def test_evaluate_is_ring_homomorphism(self, x, y, va, vb):
        env = {"a": va, "b": vb}
        assert (x * y).evaluate(env) == x.evaluate(env) * y.evaluate(env)
        assert (x + y).evaluate(env) == x.evaluate(env) + y.evaluate(env)
