from fractions import Fraction

import pytest

from homtwist.axioms import check_class, check_hom_associative, check_hom_lie
from homtwist.catalog import catalog_get, catalog_list
from homtwist.scalar import Scalar, parse_scalar


def test_list_contents_and_stability():
    fixtures = catalog_list()
    names = [f.name for f in fixtures]
    assert names == sorted(names)
    by_name = {f.name: f for f in fixtures}
    assert by_name["ex_assoc3"].params == ("a", "b")
    assert by_name["jackson_sl2"].params == ("q",)
    assert by_name["ex_homlie3"].signature.cls == "lie"
    assert [f.name for f in catalog_list()] == names  # stable across calls


def test_ex_assoc3_symbolic_passes():
    assert check_hom_associative(catalog_get("ex_assoc3")).passed


def test_ex_assoc3_structure_constants():
    A = catalog_get("ex_assoc3")
    a = parse_scalar("a", A.params)
    b = parse_scalar("b", A.params)
    zero = Scalar.zero(A.params)
    assert A.op.pair(0, 0) == (a, zero, zero)
    assert A.op.pair(1, 2) == (zero, zero, b)
    assert A.op.pair(2, 1) == (zero, zero, zero)
    assert A.op.pair(2, 2) == (zero, zero, zero)


def test_jackson_bracket_exact_coefficient():
    J = catalog_get("jackson_sl2")
    expected = parse_scalar("-1/2*(1+q)", J.params)
    assert J.op.pair(1, 2)[0] == expected
    assert J.op.pair(2, 1)[0] == -expected


def test_jackson_at_one_is_classical():
    J1 = catalog_get("jackson_sl2", {"q": 1})
    assert J1.alpha.is_identity()
    assert check_class(J1, "lie").passed


def test_zero_algebra_passes_every_one_op_check():
    Z = catalog_get("zero_algebra", dim=3)
    for cls in ("hom-associative", "hom-lie", "hom-prelie-left",
                "hom-prelie-right", "hom-zinbiel", "associative", "lie",
                "prelie-left", "prelie-right", "zinbiel"):
        assert check_class(Z, cls).passed


def test_zero_algebra_dim_argument():
    assert catalog_get("zero_algebra", dim=1).dim == 1
    assert catalog_get("zero_algebra").dim == 3
    with pytest.raises(ValueError):
        catalog_get("zero_algebra", dim=0)
    with pytest.raises(ValueError, match="fixed dimension"):
        catalog_get("unital_field", dim=2)


def test_unknown_fixture():
    with pytest.raises(ValueError, match="unknown fixture"):
        catalog_get("nope")


def test_incomplete_assignment():
    with pytest.raises(ValueError, match="incomplete assignment"):
        catalog_get("ex_assoc3", {"a": 1})


def test_obstructions():
    # each parametric fixture fails its untwisted check with the documented
    # exact residual
    A = catalog_get("ex_assoc3")
    rep = check_class(A, "associative")
    w = rep.witnesses[0]
    assert w.indices == (0, 0, 2)
    assert w.residual[2] == parse_scalar("(a-b)*b", A.params)

    L = catalog_get("ex_homlie3")
    rep = check_class(L, "lie")
    w = rep.witnesses[0]
    assert w.indices == (0, 1, 2)
    assert w.residual[1] == parse_scalar("a*c", L.params)

    J = catalog_get("jackson_sl2")
    rep = check_class(J, "lie")
    residual = next(w for w in rep.witnesses if w.identity_id == "L2").residual
    poly = residual[0]
    assert not poly.is_zero()
    assert poly.evaluate({"q": 1}) == 0


def test_symbolic_fixtures_pass_their_class():
    assert check_hom_associative(catalog_get("ex_assoc3")).passed
    assert check_hom_lie(catalog_get("ex_homlie3")).passed
    assert check_hom_lie(catalog_get("jackson_sl2")).passed


def test_assignment_accepts_fractions():
    A = catalog_get("ex_assoc3", {"a": Fraction(1, 2), "b": Fraction(-3, 4)})
    assert A.is_parameter_free()
    assert check_hom_associative(A).passed


def test_list_is_a_new_list_each_call():
    listed = catalog_list()
    catalog_list().clear()
    assert catalog_list() == listed
