import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from homtwist import axioms
from homtwist.axioms import (
    check_centroid,
    check_class,
    check_hom_associative,
    check_hom_dendriform,
    check_hom_lie,
    check_hom_prelie,
    check_hom_tridendriform,
    check_hom_zinbiel,
    check_morphism,
    check_multiplicative,
    check_rota_baxter,
)
from homtwist.catalog import catalog_get
from homtwist.constructions import (
    dendriform_star,
    embed_dendriform_as_tridendriform,
    star_derived,
    yau_twist,
)
from homtwist.core import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    RotaBaxter,
    Signature,
    vec_add,
    vec_scale,
    vec_sub,
)
from homtwist.scalar import Scalar, parse_scalar


def _one_op(dim, table, signature=None, alpha=None, params=()):
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coords in table.items():
        for k, val in enumerate(coords):
            c[i][j][k] = Fraction(val)
    sig = signature or Signature.associative()
    op = {sig.op_names[0]: BilinearOp(c, params)}
    return HomAlgebra(dim, params, sig, op, alpha or LinearMap.identity(dim, params))


# 2-dim classical Zinbiel algebra: e1 o e1 = e2, everything else zero.
def _zinbiel2():
    return _one_op(2, {(0, 0): [0, 1]}, Signature.zinbiel())


class TestHomAssociative:
    def test_ex_assoc3_symbolic(self):
        assert check_hom_associative(catalog_get("ex_assoc3")).passed

    def test_classical_failure_witness(self):
        A = catalog_get("ex_assoc3", {"a": 1, "b": 2}).with_identity_twist()
        report = check_hom_associative(A)
        assert not report.passed
        w = report.witnesses[0]
        assert w.identity_id == "A1"
        assert w.indices == (0, 0, 2)
        assert [str(s) for s in w.residual] == ["0", "0", "-2"]

    def test_zero_multiplication_any_twist(self):
        A = catalog_get("zero_algebra", dim=3)
        twisted = A.with_alpha(LinearMap([[1, 2, 0], [0, 1, 5], [7, 0, 1]]))
        assert check_hom_associative(twisted).passed

    def test_signature_mismatch(self):
        D = HomAlgebra(1, (), Signature.dendriform(),
                       {"left": BilinearOp.zero(1), "right": BilinearOp.zero(1)},
                       LinearMap.identity(1))
        with pytest.raises(ValueError, match="single-operation"):
            check_hom_associative(D)


class TestHomLie:
    def test_ex_homlie3_symbolic(self):
        assert check_hom_lie(catalog_get("ex_homlie3")).passed

    def test_classical_jacobiator_witness(self):
        L = catalog_get("ex_homlie3").with_identity_twist()
        report = check_hom_lie(L)
        assert not report.passed
        w = report.witnesses[0]
        assert w.identity_id == "L2"
        assert w.indices == (0, 1, 2)
        ac = Scalar.variable("a", L.params) * Scalar.variable("c", L.params)
        assert w.residual[1] == ac
        assert w.residual[0].is_zero() and w.residual[2].is_zero()

    def test_jackson_symbolic(self):
        assert check_hom_lie(catalog_get("jackson_sl2")).passed

    def test_skew_failure_reported_first(self):
        A = _one_op(2, {(0, 1): [1, 0], (1, 0): [1, 0]}, Signature.lie())
        report = check_hom_lie(A)
        assert not report.passed
        assert report.witnesses[0].identity_id == "L1"
        assert report.witnesses[0].indices == (0, 1)


class TestHomPreLie:
    def test_hom_associative_passes_both_sides(self):
        A = catalog_get("ex_assoc3")
        assert check_hom_prelie(A, "left").passed
        assert check_hom_prelie(A, "right").passed

    def test_opposite_of_left_passes_right(self):
        A = catalog_get("ex_assoc3")
        opposite = A.with_ops({"mul": A.op.opposite()})
        assert check_hom_prelie(A, "left").passed
        assert check_hom_prelie(opposite, "right").passed

    def test_genuinely_prelie_not_associative(self):
        # e2 o e2 = e1 with everything else zero is left pre-Lie but the
        # algebra e1 o e1 = e1, e1 o e2 = e2 is not; use a known failing one.
        A = _one_op(2, {(0, 0): [0, 1], (0, 1): [1, 0]})
        report = check_hom_prelie(A, "left")
        assert not report.passed


class TestHomZinbiel:
    def test_zero_op(self):
        Z = HomAlgebra(2, (), Signature.zinbiel(), {"circ": BilinearOp.zero(2)},
                       LinearMap.identity(2))
        assert check_hom_zinbiel(Z).passed

    def test_classical_then_twisted(self):
        Z = _zinbiel2()
        assert check_hom_zinbiel(Z).passed
        # endomorphisms of e1 o e1 = e2 form the family e1 -> l e1 + m e2,
        # e2 -> l^2 e2; twist by one of them.
        alpha = LinearMap([[2, 0], [3, 4]])
        assert check_morphism(alpha, Z, Z).passed
        twisted = yau_twist(Z, alpha)
        assert check_hom_zinbiel(twisted).passed

    def test_zinbiel_gives_commutative_dendriform(self):
        Z = yau_twist(_zinbiel2(), LinearMap([[2, 0], [3, 4]]))
        circ = Z.op
        D = HomAlgebra(2, (), Signature.dendriform(),
                       {"left": circ, "right": circ.opposite()}, Z.alpha)
        assert check_hom_dendriform(D).passed


class TestHomDendriform:
    def test_zero_ops(self):
        D = HomAlgebra(2, (), Signature.dendriform(),
                       {"left": BilinearOp.zero(2), "right": BilinearOp.zero(2)},
                       LinearMap.identity(2))
        assert check_hom_dendriform(D).passed

    def test_nonassociative_left_fails_d1(self):
        # left := a non-associative product, right := 0, identity twist;
        # D1 then reduces to associativity of the left operation.
        bad = _one_op(2, {(0, 0): [0, 1], (0, 1): [1, 0]})
        assert not check_hom_associative(bad).passed
        D = HomAlgebra(2, (), Signature.dendriform(),
                       {"left": bad.op, "right": BilinearOp.zero(2)},
                       LinearMap.identity(2))
        report = check_hom_dendriform(D)
        assert not report.passed
        assert report.witnesses[0].identity_id == "D1"

    def test_requires_left_right(self):
        with pytest.raises(ValueError, match="left"):
            check_hom_dendriform(catalog_get("ex_assoc3"))


class TestHomTridendriform:
    def test_dendriform_with_zero_dot(self):
        Z = yau_twist(_zinbiel2(), LinearMap([[2, 0], [3, 4]]))
        D = HomAlgebra(2, (), Signature.dendriform(),
                       {"left": Z.op, "right": Z.op.opposite()}, Z.alpha)
        T = embed_dendriform_as_tridendriform(D)
        assert check_hom_tridendriform(T).passed

    def test_bad_dot_fails_t7(self):
        bad = _one_op(2, {(0, 0): [0, 1], (0, 1): [1, 0]})
        T = HomAlgebra(2, (), Signature.tridendriform(),
                       {"left": BilinearOp.zero(2), "right": BilinearOp.zero(2),
                        "dot": bad.op},
                       LinearMap.identity(2))
        report = check_hom_tridendriform(T)
        assert not report.passed
        assert {w.identity_id for w in report.witnesses} == {"T7"}

    def test_dot_zero_equivalence_with_dendriform(self):
        # with dot = 0 the seven axioms reduce to the three dendriform ones
        bad = _one_op(2, {(0, 0): [0, 1], (0, 1): [1, 0]})
        for left, right in [(BilinearOp.zero(2), BilinearOp.zero(2)),
                            (bad.op, BilinearOp.zero(2))]:
            D = HomAlgebra(2, (), Signature.dendriform(),
                           {"left": left, "right": right}, LinearMap.identity(2))
            T = HomAlgebra(2, (), Signature.tridendriform(),
                           {"left": left, "right": right, "dot": BilinearOp.zero(2)},
                           LinearMap.identity(2))
            assert check_hom_dendriform(D).passed == check_hom_tridendriform(T).passed


class TestRotaBaxter:
    def test_zero_operator_any_weight(self):
        A = catalog_get("ex_assoc3")
        zero = LinearMap.zero(3, A.params)
        for theta in (0, 1, -1, Fraction(5, 2)):
            report = check_rota_baxter(A, R=zero, theta=Scalar.constant(theta, A.params))
            assert report.passed

    def test_identity_operator_weight_minus_one(self):
        for fixture in ("ex_assoc3", "ex_homlie3", "jackson_sl2"):
            A = catalog_get(fixture)
            report = check_rota_baxter(
                A, R=LinearMap.identity(3, A.params),
                theta=Scalar.constant(-1, A.params))
            assert report.passed

    def test_one_dim_idempotent(self):
        U = catalog_get("unital_field")
        theta = Scalar.constant(1)
        assert check_rota_baxter(U, R=LinearMap([[-1]]), theta=theta).passed
        assert not check_rota_baxter(U, R=LinearMap([[1]]), theta=theta).passed

    def test_uses_stored_rb_data(self):
        U = catalog_get("unital_field").with_rb(
            RotaBaxter(Scalar.constant(1), LinearMap([[-1]])))
        assert check_rota_baxter(U).passed

    def test_no_rb_data(self):
        with pytest.raises(ValueError, match="no Rota-Baxter data"):
            check_rota_baxter(catalog_get("unital_field"))


class TestMultiplicative:
    def test_identity_twist(self):
        assert check_multiplicative(catalog_get("ex_assoc3").with_identity_twist()).passed

    def test_yau_twist_is_multiplicative(self):
        rng = random.Random(7)
        Z = _zinbiel2()
        for _ in range(5):
            lam = rng.randint(1, 5)
            mu = rng.randint(-5, 5)
            alpha = LinearMap([[lam, 0], [mu, lam * lam]])
            twisted = yau_twist(Z, alpha)
            assert check_multiplicative(twisted).passed

    def test_ex_assoc3_fails_at_2_1(self):
        A = catalog_get("ex_assoc3", {"a": 2, "b": 1})
        assert not check_multiplicative(A).passed


class TestMorphism:
    def test_identity_map(self):
        A = catalog_get("jackson_sl2")
        assert check_morphism(LinearMap.identity(3, A.params), A, A).passed

    def test_twist_of_multiplicative_algebra_is_self_morphism(self):
        Z = yau_twist(_zinbiel2(), LinearMap([[2, 0], [3, 4]]))
        assert check_multiplicative(Z).passed
        assert check_morphism(Z.alpha, Z, Z).passed

    def test_random_map_fails(self):
        A = catalog_get("ex_assoc3", {"a": 1, "b": 2})
        f = LinearMap([[1, 1, 0], [0, 1, 0], [2, 0, 3]])
        report = check_morphism(f, A, A)
        assert not report.passed
        assert report.witnesses[0].indices

    def test_signature_mismatch(self):
        A = catalog_get("ex_assoc3")
        L = catalog_get("ex_homlie3")
        with pytest.raises(ValueError, match="signature mismatch"):
            check_morphism(LinearMap.identity(3, A.params), A, L)


class TestParameterMismatch:
    """Data over other parameters than the algebra's is refused, even when it is
    zero or the identity and so adds no term."""

    @pytest.mark.parametrize("check", [
        lambda A: check_rota_baxter(A, None, LinearMap.zero(3, ("a",)), 1),
        lambda A: check_centroid(LinearMap.zero(3, ("q",)), A),
        lambda A: check_centroid(LinearMap.identity(3, ("q",)), A),
        lambda A: check_morphism(LinearMap.identity(3), A, catalog_get("ex_assoc3")),
    ], ids=["rota-baxter-zero-map", "centroid-zero-map", "centroid-identity", "morphism-target"])
    def test_refused(self, check):
        with pytest.raises(ValueError, match="parameter list mismatch"):
            check(catalog_get("ex_assoc3", {"a": 1, "b": 2}))


class TestCentroid:
    def test_scalar_multiples_of_identity(self):
        for fixture in ("ex_assoc3", "ex_homlie3", "jackson_sl2"):
            A = catalog_get(fixture)
            m = LinearMap.identity(3, A.params).scale(Scalar.constant(Fraction(5, 3), A.params))
            assert check_centroid(m, A).passed

    def test_ex_assoc3_alpha_not_centroidal(self):
        A = catalog_get("ex_assoc3", {"a": 2, "b": 3})
        assert not check_centroid(A.alpha, A).passed

    def test_uniform_diagonal_on_zero_algebra(self):
        Z = catalog_get("zero_algebra", dim=2)
        assert check_centroid(LinearMap.diagonal([7, 7]), Z).passed


class TestReportShape:
    def test_witness_cap(self):
        A = catalog_get("ex_assoc3", {"a": 1, "b": 2}).with_identity_twist()
        report = check_hom_associative(A, cap=2)
        assert not report.passed
        assert len(report.witnesses) == 2

    def test_passed_iff_no_witnesses(self):
        good = check_hom_associative(catalog_get("ex_assoc3"))
        assert good.passed and not good.witnesses

    def test_residuals_nonzero(self):
        A = catalog_get("ex_assoc3", {"a": 1, "b": 2}).with_identity_twist()
        for w in check_hom_associative(A).witnesses:
            assert any(not s.is_zero() for s in w.residual)

    def test_to_dict_one_based(self):
        A = catalog_get("ex_assoc3", {"a": 1, "b": 2}).with_identity_twist()
        d = check_hom_associative(A).to_dict()
        assert d["witnesses"][0]["indices"] == [1, 1, 3]
        assert d["witnesses"][0]["residual"] == ["0", "0", "-2"]


class TestClassDispatch:
    def test_classical_variants_force_identity_twist(self):
        A = catalog_get("jackson_sl2", {"q": 2})
        assert check_class(A, "hom-lie").passed
        assert not check_class(A, "lie").passed

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="unknown check"):
            check_class(catalog_get("ex_assoc3"), "frobnicate")

    def test_classical_corpus(self):
        # identity-twist checkers accept exactly the classical structures
        sl2 = catalog_get("jackson_sl2", {"q": 1})
        assert check_class(sl2, "lie").passed
        func2 = _one_op(2, {(0, 0): [1, 0], (1, 1): [0, 1]})
        assert check_class(func2, "associative").passed
        assert check_class(func2, "prelie-left").passed
        assert check_class(_zinbiel2(), "zinbiel").passed


def _random_op(rng, d):
    return BilinearOp([[[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
                       for _ in range(d)])


def _random_map(rng, d):
    return LinearMap([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])


def _random_bundle(rng, d):
    """Random operations and maps, with no identity expected to hold."""
    return {"dim": d, "params": (),
            **{name: _random_op(rng, d) for name in ("o", "l", "r", "d", "o2", "p2")},
            **{name: _random_map(rng, d) for name in ("a", "R", "f", "b")},
            "theta": Scalar.constant(Fraction(rng.choice([-3, -1, 2, 5]), 2))}


def _sparse_bundle(rng):
    """A dim-3 bundle over Q[a,b] with about 70% zero entries."""
    params = ("a", "b")
    texts = ["1", "-1", "2", "-1/2", "a", "b", "a*b - 1", "3/2*a^2"]

    def entry():
        return parse_scalar(rng.choice(texts) if rng.random() < 0.3 else "0", params)

    return {"dim": 3, "params": params,
            **{name: BilinearOp([[[entry() for _ in range(3)] for _ in range(3)]
                                 for _ in range(3)], params)
               for name in ("o", "l", "r", "d", "o2", "p2")},
            **{name: LinearMap([[entry() for _ in range(3)] for _ in range(3)], params)
               for name in ("a", "R", "f", "b")},
            "theta": parse_scalar("a - 1/2", params)}


def _sum(*vectors):
    total = vectors[0]
    for v in vectors[1:]:
        total = vec_add(total, v)
    return total


def _one_op_formulas(checker, formula, arity=3):
    def build(b):
        A = HomAlgebra(b["dim"], b["params"], Signature.plain(("mul",)), {"mul": b["o"]}, b["a"])
        o, a = b["o"].apply, b["a"].apply
        return arity, lambda cap: checker(A, cap=cap), lambda *xs: formula(o, a, *xs)
    return build


def _associator(o, a, x, y, z):
    return vec_sub(o(a(x), o(y, z)), o(o(x, y), a(z)))


def _split_formulas(ops, formula):
    def build(b):
        names = ("left", "right", "dot")[:len(ops)]
        sig = Signature.dendriform() if len(ops) == 2 else Signature.tridendriform()
        A = HomAlgebra(b["dim"], b["params"], sig, {n: b[k] for n, k in zip(names, ops)}, b["a"])
        checker = check_hom_dendriform if len(ops) == 2 else check_hom_tridendriform
        applies = [b[k].apply for k in ops]
        return 3, lambda cap: checker(A, cap=cap), lambda x, y, z: formula(
            *applies, b["a"].apply, x, y, z)
    return build


def _two_op_algebras(b):
    sig = Signature.plain(("mul", "circ"))
    A = HomAlgebra(b["dim"], b["params"], sig, {"mul": b["o"], "circ": b["d"]}, b["a"])
    B = HomAlgebra(b["dim"], b["params"], sig, {"mul": b["o2"], "circ": b["p2"]}, b["b"])
    return A, B


def _multiplicative_formula(op_key):
    def build(b):
        A, _ = _two_op_algebras(b)
        p, a = b[op_key].apply, b["a"].apply
        return 2, lambda cap: check_multiplicative(A, cap=cap), lambda x, y: vec_sub(
            a(p(x, y)), p(a(x), a(y)))
    return build


def _morphism_formula(op_key, target_key):
    def build(b):
        A, B = _two_op_algebras(b)
        p, q, f = b[op_key].apply, b[target_key].apply, b["f"].apply
        return 2, lambda cap: check_morphism(b["f"], A, B, cap=cap), lambda x, y: vec_sub(
            q(f(x), f(y)), f(p(x, y)))
    return build


def _morphism_twist(b):
    A, B = _two_op_algebras(b)
    f, a, a2 = b["f"].apply, b["a"].apply, b["b"].apply
    return 1, lambda cap: check_morphism(b["f"], A, B, cap=cap), lambda x: vec_sub(
        f(a(x)), a2(f(x)))


def _rota_baxter(b):
    A = HomAlgebra(b["dim"], b["params"], Signature.plain(("mul",)), {"mul": b["o"]}, b["a"])
    o, R, t = b["o"].apply, b["R"].apply, b["theta"]
    return 2, lambda cap: check_rota_baxter(A, R=b["R"], theta=t, cap=cap), lambda x, y: vec_sub(
        o(R(x), R(y)), R(_sum(o(R(x), y), o(x, R(y)), vec_scale(t, o(x, y)))))


def _centroid(first):
    def build(b):
        A = HomAlgebra(b["dim"], b["params"], Signature.plain(("mul",)), {"mul": b["o"]}, b["a"])
        o, a = b["o"].apply, b["f"].apply
        if first:
            formula = lambda x, y: vec_sub(a(o(x, y)), o(a(x), y))  # noqa: E731
        else:
            formula = lambda x, y: vec_sub(a(o(x, y)), o(x, a(y)))  # noqa: E731
        return 2, lambda cap: check_centroid(b["f"], A, cap=cap), formula
    return build


def _star_derived(first):
    def build(b):
        t = b["theta"]
        A = HomAlgebra(b["dim"], b["params"], Signature.associative(), {"mul": b["o"]}, b["a"],
                       RotaBaxter(t, b["R"]))
        o, R = b["o"].apply, b["R"].apply

        def Rt(x):
            return vec_sub(vec_scale(-t, x), R(x))

        def star(x, y):
            return _sum(o(x, R(y)), o(R(x), y), vec_scale(t, o(x, y)))

        if first:
            formula = lambda x, y: vec_sub(R(star(x, y)), o(R(x), R(y)))  # noqa: E731
        else:
            formula = lambda x, y: vec_add(Rt(star(x, y)), o(Rt(x), Rt(y)))  # noqa: E731

        def run(cap):
            # star_derived reports at the default cap, which is raised here
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(axioms, "DEFAULT_WITNESS_CAP", cap)
                return star_derived(A, force=True)[1]

        return 2, run, formula
    return build


_FORMULAS = {
    "A1": _one_op_formulas(check_hom_associative, lambda o, a, x, y, z: vec_sub(
        o(o(x, y), a(z)), o(a(x), o(y, z)))),
    "L1": _one_op_formulas(check_hom_lie, lambda o, a, x, y: vec_add(o(x, y), o(y, x)),
                           arity=2),
    "L2": _one_op_formulas(check_hom_lie, lambda o, a, x, y, z: _sum(
        o(a(x), o(y, z)), o(a(y), o(z, x)), o(a(z), o(x, y)))),
    "PL": _one_op_formulas(lambda A, cap: check_hom_prelie(A, "left", cap=cap),
                           lambda o, a, x, y, z: vec_sub(_associator(o, a, x, y, z),
                                                         _associator(o, a, y, x, z))),
    "PR": _one_op_formulas(lambda A, cap: check_hom_prelie(A, "right", cap=cap),
                           lambda o, a, x, y, z: vec_sub(_associator(o, a, x, y, z),
                                                         _associator(o, a, x, z, y))),
    "Z1": _one_op_formulas(check_hom_zinbiel, lambda o, a, x, y, z: vec_sub(
        vec_sub(o(o(x, y), a(z)), o(a(x), o(y, z))), o(a(x), o(z, y)))),
    "D1": _split_formulas(("l", "r"), lambda l, r, a, x, y, z: vec_sub(
        l(l(x, y), a(z)), l(a(x), vec_add(l(y, z), r(y, z))))),
    "D2": _split_formulas(("l", "r"), lambda l, r, a, x, y, z: vec_sub(
        l(r(x, y), a(z)), r(a(x), l(y, z)))),
    "D3": _split_formulas(("l", "r"), lambda l, r, a, x, y, z: vec_sub(
        r(a(x), r(y, z)), r(vec_add(l(x, y), r(x, y)), a(z)))),
    "T1": _split_formulas(("l", "r", "d"), lambda l, r, d, a, x, y, z: vec_sub(
        l(l(x, y), a(z)), l(a(x), _sum(l(y, z), r(y, z), d(y, z))))),
    "T2": _split_formulas(("l", "r", "d"), lambda l, r, d, a, x, y, z: vec_sub(
        l(r(x, y), a(z)), r(a(x), l(y, z)))),
    "T3": _split_formulas(("l", "r", "d"), lambda l, r, d, a, x, y, z: vec_sub(
        r(a(x), r(y, z)), r(_sum(l(x, y), r(x, y), d(x, y)), a(z)))),
    "T4": _split_formulas(("l", "r", "d"), lambda l, r, d, a, x, y, z: vec_sub(
        d(l(x, y), a(z)), d(a(x), r(y, z)))),
    "T5": _split_formulas(("l", "r", "d"), lambda l, r, d, a, x, y, z: vec_sub(
        d(r(x, y), a(z)), r(a(x), d(y, z)))),
    "T6": _split_formulas(("l", "r", "d"), lambda l, r, d, a, x, y, z: vec_sub(
        l(d(x, y), a(z)), d(a(x), l(y, z)))),
    "T7": _split_formulas(("l", "r", "d"), lambda l, r, d, a, x, y, z: vec_sub(
        d(d(x, y), a(z)), d(a(x), d(y, z)))),
    "RB": _rota_baxter,
    "M:mul": _multiplicative_formula("o"),
    "M:circ": _multiplicative_formula("d"),
    "morphism:mul": _morphism_formula("o", "o2"),
    "morphism:circ": _morphism_formula("d", "p2"),
    "morphism:twist": _morphism_twist,
    "C1": _centroid(True),
    "C2": _centroid(False),
    "SD1": _star_derived(True),
    "SD2": _star_derived(False),
}
_IDENTITY_IDS = list(_FORMULAS)


class TestMultilinearityReduction:
    def test_vector_residual_matches_basis_combination(self):
        rng = random.Random(3)
        A = catalog_get("ex_assoc3", {"a": 2, "b": 5})
        op, alpha = A.op, A.alpha
        d = A.dim

        def residual(i, j, k):
            return vec_sub(op.apply(op.pair(i, j), alpha.col(k)),
                           op.apply(alpha.col(i), op.pair(j, k)))

        for _ in range(3):
            u, v, w = ([Scalar.constant(rng.randint(-4, 4)) for _ in range(d)]
                       for _ in range(3))
            direct = vec_sub(
                op.apply(op.apply(u, v), alpha.apply(w)),
                op.apply(alpha.apply(u), op.apply(v, w)),
            )
            combo = [Scalar.zero()] * d
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        coeff = u[i] * v[j] * w[k]
                        for t, r in enumerate(residual(i, j, k)):
                            combo[t] = combo[t] + coeff * r
            assert tuple(combo) == direct

    @pytest.mark.parametrize("ident", _IDENTITY_IDS)
    def test_every_identity_is_its_vector_formula(self, ident):
        # Each identity written directly on random vectors equals the
        # multilinear combination of the checker's basis residuals, on a dense
        # dim-2 integer bundle and on a sparse dim-3 bundle over Q[a,b].
        rng = random.Random(11)
        for make_bundle in (lambda: _random_bundle(rng, 2), lambda: _sparse_bundle(rng)):
            bundle = make_bundle()
            arity, run, direct = _FORMULAS[ident](bundle)
            report = run(cap=10**6)
            residuals = {w.indices: w.residual
                         for w in report.witnesses if w.identity_id == ident}
            assert residuals, "random data should break every identity somewhere"
            d, params = bundle["dim"], bundle["params"]
            for _ in range(2):
                vectors = [[Scalar.constant(rng.randint(-3, 3), params) for _ in range(d)]
                           for _ in range(arity)]
                combo = (Scalar.zero(params),) * d
                for indices in itertools.product(range(d), repeat=arity):
                    coeff = Scalar.one(params)
                    for vector, i in zip(vectors, indices):
                        coeff = coeff * vector[i]
                    residual = residuals.get(indices, (Scalar.zero(params),) * d)
                    combo = vec_add(combo, vec_scale(coeff, residual))
                assert combo == direct(*vectors)


class TestEquationExpander:
    """The search's equations against the Scalar engine of the checkers."""

    @pytest.mark.parametrize("ids, unknown", [(("RB",), "R"), (("C1", "C2"), "a")])
    def test_polynomials_are_the_residual_coordinates(self, ids, unknown):
        # With every entry of the unknown map a parameter, the checker's
        # nonzero residual coordinates are the polynomials, in scan order.  At
        # a random rational point each polynomial's value is the checker's
        # coordinate there, and every coordinate without a polynomial is zero.
        from homtwist.axioms import _expand

        rng = random.Random(7)
        fractions = [Fraction(n, q) for n in range(-3, 4) for q in (1, 2, 3)]
        for _ in range(60):
            d = rng.randint(1, 3)
            names = tuple(f"x{e}" for e in range(d * d))
            c = [[[rng.choice(fractions) if rng.random() < 0.5 else Fraction(0)
                   for _ in range(d)] for _ in range(d)] for _ in range(d)]
            theta = rng.choice(fractions)
            A = HomAlgebra(d, names, Signature.associative(), {"mul": BilinearOp(c, names)},
                           LinearMap.identity(d, names))

            def coordinates(entries):
                """Every residual coordinate, by basis pair, id and coordinate."""
                m = LinearMap([entries[p * d:(p + 1) * d] for p in range(d)], names)
                report = (check_rota_baxter(A, None, m, theta, cap=10**6) if unknown == "R"
                          else check_centroid(m, A, cap=10**6))
                residuals = {(w.identity_id, w.indices): w.residual for w in report.witnesses}
                zero = (Scalar.zero(names),) * d
                return [x for ix in itertools.product(range(d), repeat=2) for ident in ids
                        for x in residuals.get((ident, ix), zero)]

            symbolic = coordinates([parse_scalar(name, names) for name in names])
            kept = [n for n, x in enumerate(symbolic) if not x.is_zero()]
            polys = _expand(ids, 2, {"o": c, "theta": theta}, unknown, d)
            assert polys == [
                {tuple(e for e, power in enumerate(exps) for _ in range(power)): coeff
                 for exps, coeff in symbolic[n].terms.items()}
                for n in kept
            ]

            point = [rng.choice(fractions) for _ in range(d * d)]
            at_point = [x.constant_value() for x in coordinates(point)]
            assert [sum(coeff * prod(point[e] for e in mono) for mono, coeff in poly.items())
                    for poly in polys] == [at_point[n] for n in kept]
            assert all(x == 0 for n, x in enumerate(at_point) if n not in set(kept))


class TestPipelineProperty:
    def test_dendriform_star_is_hom_associative(self):
        # whenever the dendriform check passes, the sum operation passes the
        # Hom-associativity check
        Z = yau_twist(_zinbiel2(), LinearMap([[2, 0], [3, 4]]))
        D = HomAlgebra(2, (), Signature.dendriform(),
                       {"left": Z.op, "right": Z.op.opposite()}, Z.alpha)
        assert check_hom_dendriform(D).passed
        assert check_hom_associative(dendriform_star(D)).passed
