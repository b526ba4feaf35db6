import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homtwist.catalog import catalog_get
from homtwist.core import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    RotaBaxter,
    Signature,
    basis_vector,
    nullspace,
    rref,
    vec_add,
    vec_scale,
)
from homtwist.scalar import Scalar, parse_scalar

from _factories import reference_nullspace, reference_rref


def test_apply_map_identity():
    m = LinearMap.identity(3)
    v = basis_vector(1, 3)
    assert m.apply(v) == v


def test_apply_map_ex_assoc3_alpha():
    A = catalog_get("ex_assoc3")
    image = A.alpha.apply(basis_vector(2, 3, A.params))
    b = Scalar.variable("b", A.params)
    assert image == vec_scale(b, basis_vector(2, 3, A.params))


def test_apply_map_jackson_alpha():
    J = catalog_get("jackson_sl2")
    image = J.alpha.apply(basis_vector(1, 3, J.params))
    q2 = parse_scalar("q^2", J.params)
    assert image == vec_scale(q2, basis_vector(1, 3, J.params))


def test_apply_op_ex_assoc3():
    A = catalog_get("ex_assoc3")
    mul = A.op
    out = mul.apply(basis_vector(0, 3, A.params), basis_vector(2, 3, A.params))
    b = Scalar.variable("b", A.params)
    assert out == vec_scale(b, basis_vector(2, 3, A.params))
    assert out == mul.apply(basis_vector(2, 3, A.params), basis_vector(0, 3, A.params))


def test_apply_op_zero_vector():
    A = catalog_get("ex_assoc3")
    zero = tuple(Scalar.zero(A.params) for _ in range(3))
    assert A.op.apply(zero, basis_vector(1, 3, A.params)) == zero


def test_apply_op_jackson_bracket():
    J = catalog_get("jackson_sl2")
    out = J.op.apply(basis_vector(1, 3, J.params), basis_vector(2, 3, J.params))
    coeff = parse_scalar("-1/2*(1+q)", J.params)
    assert out == vec_scale(coeff, basis_vector(0, 3, J.params))


def test_compose_with_inverse_is_identity():
    m = LinearMap([[1, 1], [0, 1]])
    assert m.compose(m.inverse()) == LinearMap.identity(2)


def test_op_add_scale_cancel():
    A = catalog_get("ex_assoc3")
    op = A.op
    assert (op + op.scale(-1)).is_zero()


def test_op_opposite_involution():
    A = catalog_get("ex_homlie3")
    assert A.op.opposite().opposite() == A.op


def test_map_inverse_examples():
    assert LinearMap.identity(3).inverse() == LinearMap.identity(3)
    d = LinearMap.diagonal([1, 2, 2])
    assert d.inverse() == LinearMap.diagonal([1, Fraction(1, 2), Fraction(1, 2)])
    m = LinearMap([[1, 1], [0, 1]])
    assert m.inverse() == LinearMap([[1, -1], [0, 1]])


def test_map_inverse_singular():
    with pytest.raises(ValueError, match="singular"):
        LinearMap([[1, 1], [1, 1]]).inverse()


def test_map_inverse_parametric_refused():
    A = catalog_get("ex_assoc3")
    with pytest.raises(ValueError, match="parametric"):
        A.alpha.inverse()


def test_nullspace_zero_row():
    assert nullspace([[0, 0]]) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_nullspace_line():
    assert nullspace([[1, 1]]) == [(Fraction(-1), Fraction(1))]


def test_nullspace_invertible_system():
    assert nullspace([[1, 1], [0, 1]]) == []


def test_nullspace_parametric_refused():
    a = Scalar.variable("a", ["a"])
    with pytest.raises(ValueError):
        nullspace([[a, a]])


def _random_system(rng):
    """A small rational matrix, tall or wide, with zero rows, repeats and scaled repeats."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    values = [0] * rng.choice([1, 6]) + [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    rows = [[Fraction(rng.choice(values)) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 3)):
        source = rng.choice(rows)
        extra = rng.choice([
            [Fraction(0)] * ncols,
            list(source),
            [rng.choice([2, -1, Fraction(1, 3)]) * x for x in source],
        ])
        rows.insert(rng.randrange(len(rows) + 1), extra)
    return rows


def test_engine_matches_dense_reference():
    rng = random.Random(20260)
    squares = singular = 0
    for _ in range(200):
        rows = _random_system(rng)
        assert rref(rows) == reference_rref(rows)
        assert nullspace(rows) == reference_nullspace(rows)
        if len(rows) != len(rows[0]):
            continue
        squares += 1
        m = LinearMap(rows)
        if len(reference_rref(rows)[1]) < m.dim:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            identity = LinearMap.identity(m.dim)
            assert m.compose(m.inverse()) == identity
            assert m.inverse().compose(m) == identity
    assert squares >= 10 and 0 < singular < squares


def test_power_matches_repeated_compose():
    m = LinearMap([[1, 1], [0, 1]])
    assert m.power(0) == LinearMap.identity(2)
    assert m.power(3) == m.compose(m).compose(m)


def test_specialize_drops_parameters():
    A = catalog_get("ex_assoc3")
    B = A.specialize({"a": 1})
    assert B.params == ("b",)
    C = B.specialize({"b": 2})
    assert C.params == ()
    assert C.is_parameter_free()
    assert C == catalog_get("ex_assoc3", {"a": 1, "b": 2})


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature("associative", ("a", "b"))
    with pytest.raises(ValueError):
        Signature("dendriform", ("left",))
    with pytest.raises(ValueError):
        Signature("nonsense", ("mul",))
    assert Signature.tridendriform().op_names == ("left", "right", "dot")


def test_homalgebra_validation():
    with pytest.raises(ValueError, match="do not match signature"):
        HomAlgebra(2, (), Signature.associative(),
                   {"bracket": BilinearOp.zero(2)}, LinearMap.identity(2))
    with pytest.raises(ValueError, match="mismatched dim"):
        HomAlgebra(2, (), Signature.associative(),
                   {"mul": BilinearOp.zero(3)}, LinearMap.identity(2))


_small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _vectors(dim=3):
    return st.tuples(*(_small for _ in range(dim))).map(
        lambda vals: tuple(Scalar.constant(v) for v in vals)
    )


class TestBilinearity:
    @given(_vectors(), _vectors(), _vectors(), _small)
    @settings(max_examples=25)
    def test_first_argument(self, u, u2, v, a):
        op = catalog_get("ex_assoc3", {"a": 2, "b": 3}).op
        left = op.apply(vec_add(vec_scale(Scalar.constant(a), u), u2), v)
        right = vec_add(vec_scale(Scalar.constant(a), op.apply(u, v)), op.apply(u2, v))
        assert left == right

    @given(_vectors(), _vectors(), _vectors(), _small)
    @settings(max_examples=25)
    def test_second_argument(self, u, v, v2, a):
        op = catalog_get("ex_assoc3", {"a": 2, "b": 3}).op
        left = op.apply(u, vec_add(vec_scale(Scalar.constant(a), v), v2))
        right = vec_add(vec_scale(Scalar.constant(a), op.apply(u, v)), op.apply(u, v2))
        assert left == right


def test_compose_associative_identity_neutral():
    m1 = LinearMap([[1, 2], [3, 4]])
    m2 = LinearMap([[0, 1], [1, 1]])
    m3 = LinearMap([[2, 0], [0, 5]])
    assert m1.compose(m2).compose(m3) == m1.compose(m2.compose(m3))
    assert m1.compose(LinearMap.identity(2)) == m1
    assert LinearMap.identity(2).compose(m1) == m1


class TestCopyAndPickle:
    """Immutable values copy and pickle by rebuilding through their constructors."""

    @staticmethod
    def values():
        A = catalog_get("ex_assoc3")
        a = Scalar.variable("a", A.params)
        A = A.with_rb(RotaBaxter(a, LinearMap.diagonal([a, 0, -1], A.params)))
        return [A.rb.theta, Scalar.constant(Fraction(-3, 4)), A.alpha, A.rb.R,
                LinearMap.identity(2), A.op, BilinearOp.zero(2), A]

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, clone):
        for value in self.values():
            twin = clone(value)
            assert type(twin) is type(value)
            assert twin == value
            assert str(twin) == str(value)

    def test_copy_keeps_working(self):
        A = self.values()[-1]
        B = pickle.loads(pickle.dumps(A))
        assert B.rb.R.support == A.rb.R.support
        assert B.op.support == A.op.support
        assert B.rb.theta * 2 == A.rb.theta + Scalar.variable("a", A.params)

    def test_rebuilt_by_the_constructor(self):
        for value in self.values()[:-1]:
            cls, args = value.__reduce__()
            assert cls is type(value)
            assert cls(*args) == value


# -- tensor behaviour, pinned cell by cell ---------------------------------------

_POOL = {(): ["1", "-2", "1/3", "5/2", "-7"],
         ("a", "b"): ["1", "-2/3", "a", "b - 1", "a*b", "a^2 - 3/2*b", "-a + 2*b^2"]}


def _random_cells(rng, shape, params, density=0.5):
    """Nested lists of the given shape; each cell nonzero with probability ``density``."""
    if len(shape) > 1:
        return [_random_cells(rng, shape[1:], params, density) for _ in range(shape[0])]
    return [parse_scalar(rng.choice(_POOL[params]), params) if rng.random() < density
            else Scalar.zero(params) for _ in range(shape[0])]


def _flat(cells, rank):
    for _ in range(rank - 1):
        cells = [x for row in cells for x in row]
    return list(cells)


_TENSORS = [
    (LinearMap, 2, "entries", "linear map must be a nonempty square matrix", BilinearOp),
    (BilinearOp, 3, "c", "structure constants must form a cubic tensor", LinearMap),
]


@pytest.mark.parametrize("cls, rank, field, shape_error, other_cls", _TENSORS,
                         ids=["LinearMap", "BilinearOp"])
def test_tensor_arithmetic_is_cellwise(cls, rank, field, shape_error, other_cls):
    rng = random.Random(20110103)
    params, d = ("a", "b"), 3
    xs, ys = (_random_cells(rng, (d,) * rank, params) for _ in range(2))
    x, y = cls(xs, params), cls(ys, params)
    cells = lambda t: _flat(getattr(t, field), rank)
    X, Y = _flat(xs, rank), _flat(ys, rank)

    ragged = copy.deepcopy(xs)
    inner = ragged
    for _ in range(rank - 1):
        inner = inner[-1]
    inner.pop()
    for bad in ([], ragged):
        with pytest.raises(ValueError) as exc:
            cls(bad, params)
        assert str(exc.value) == shape_error
    with pytest.raises(AttributeError) as exc:
        x.dim = 2
    assert str(exc.value) == f"{cls.__name__} is immutable"

    other = other_cls.zero(d, params)
    assert (x == other) is False and (other == x) is False
    assert cls.zero(d, params) != cls.zero(d, ("a",))
    assert cls.zero(d, params) != cls.zero(d, ("b", "a"))
    assert cls(xs, params) == x and x != y
    with pytest.raises(TypeError):
        x + other
    with pytest.raises(TypeError):
        x - other

    zero = cls.zero(d, params)
    assert type(zero) is cls and zero.params == params
    assert cells(zero) == [Scalar.zero(params)] * d ** rank
    s = parse_scalar("2*a - 1/2", params)
    assignment = {"a": Fraction(2, 3)}
    for result, expected in [
        (x.scale(s), [s * u for u in X]),
        (x.scale(3), [3 * u for u in X]),
        (x + y, [u + v for u, v in zip(X, Y)]),
        (x - y, [u - v for u, v in zip(X, Y)]),
        (x.substitute(assignment), [u.substitute(assignment) for u in X]),
    ]:
        assert type(result) is cls
        assert cells(result) == expected
    assert x.substitute(assignment).params == ("b",)
    assert x.is_constant() == all(u.is_constant() for u in X)
    assert x.substitute({"a": 1, "b": -2}).is_constant() and zero.is_constant()


@pytest.mark.parametrize("params", [(), ("a", "b")], ids=["Q", "Qab"])
def test_precompose_matches_apply(params):
    rng = random.Random(1101)
    for d in range(1, 5):
        op = BilinearOp(_random_cells(rng, (d, d, d), params, density=0.3), params)
        maps = [None, LinearMap(_random_cells(rng, (d, d), params), params)]
        for left in maps:
            for right in maps:
                result = op.precompose(left, right)
                for i in range(d):
                    u = left.col(i) if left is not None else basis_vector(i, d, params)
                    for j in range(d):
                        v = right.col(j) if right is not None else basis_vector(j, d, params)
                        assert result.pair(i, j) == op.apply(u, v)


def test_linear_map_negation_and_is_zero():
    params = ("a", "b")
    m = LinearMap([[parse_scalar("a", params), 0], [1, parse_scalar("-b", params)]], params)
    assert -m == m.scale(-1)
    assert (m + -m).is_zero() and (m - m).is_zero()
    assert not m.is_zero() and LinearMap.zero(2, ("a", "b")).is_zero()
