"""Constructions that turn verified algebras into new verified algebras.

Every functor validates its hypotheses by running the relevant checkers and
refuses invalid input (``force=True`` skips the validation for exploration).
Outputs are fresh immutable values.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from . import axioms
from .core import (
    FIXED_OPS,
    BilinearOp,
    HomAlgebra,
    LinearMap,
    RotaBaxter,
    Signature,
    require_dim,
)
from .scalar import Scalar

__all__ = [
    "PreconditionError",
    "yau_twist",
    "untwist",
    "derived_algebra",
    "centroid_twist",
    "commutator",
    "dendriform_star",
    "dendriform_prelie",
    "tridendriform_star",
    "embed_dendriform_as_tridendriform",
    "rb_prelie",
    "rb_dendriform",
    "rb_tridendriform",
    "rb_complement",
    "star_derived",
    "rb_lie_prelie",
    "diagram_commutes",
    "matrix_algebra",
]

DERIVED_MAX_N = 16


class PreconditionError(ValueError):
    """A construction hypothesis failed; carries the failing check's name."""

    def __init__(self, check: str, report: axioms.AxiomReport | None = None):
        self.check = check
        self.report = report
        detail = ""
        if report is not None and report.witnesses:
            w = report.witnesses[0]
            detail = f" (first witness {w.identity_id} at {tuple(i + 1 for i in w.indices)})"
        super().__init__(f"precondition failed: {check}{detail}")


def _require(report: axioms.AxiomReport, what: str):
    if not report.passed:
        raise PreconditionError(what, report)


def _fixed_ops(A: HomAlgebra, cls: str) -> list[BilinearOp]:
    """The operations of a ``cls`` algebra that a construction reads; forcing
    skips the identity checks, not this one."""
    names = FIXED_OPS[cls]
    if not set(names) <= set(A.ops):
        *first, last = map(repr, names)
        raise ValueError(f"{cls} construction requires operations {', '.join(first)} and {last}")
    return [A.ops[name] for name in names]


def _require_rb_commutes(A: HomAlgebra, alpha: LinearMap):
    if A.rb is not None and not alpha.commutes_with(A.rb.R):
        raise PreconditionError("twist map must commute with the Rota-Baxter operator")


def _require_weight(A: HomAlgebra, expected: Fraction, what: str):
    if A.rb is None:
        raise PreconditionError("algebra carries no Rota-Baxter data")
    if A.rb.theta != Scalar.constant(expected, A.params):
        raise PreconditionError(what)


# -- twisting ----------------------------------------------------------------


def yau_twist(A: HomAlgebra, alpha: LinearMap, *, force: bool = False) -> HomAlgebra:
    """Compose every operation and the twist with an endomorphism alpha.

    alpha must be a self-morphism of A (it intertwines each operation and the
    existing twist); if Rota-Baxter data is present, alpha must commute with
    the operator, which then persists for the twisted operations.
    """
    if not force:
        _require(axioms.check_morphism(alpha, A, A), "map is not an endomorphism")
        _require_rb_commutes(A, alpha)
    ops = {name: op.compose_output(alpha) for name, op in A.ops.items()}
    return replace(A, ops=ops, alpha=alpha.compose(A.alpha))


def untwist(A: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """Invert the twist: compose every operation with alpha^-1, twist becomes id.

    Requires a multiplicative algebra whose twist is parameter-free and
    invertible; the result then satisfies the classical (identity-twist)
    axioms of its class.
    """
    if not force:
        _require(axioms.check_multiplicative(A), "algebra is not multiplicative")
        _require_rb_commutes(A, A.alpha)
    try:
        inv = A.alpha.inverse()
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    ops = {name: op.compose_output(inv) for name, op in A.ops.items()}
    return replace(A, ops=ops, alpha=LinearMap.identity(A.dim, A.params))


def derived_algebra(A: HomAlgebra, n: int, kind: str = "type1", *, force: bool = False) -> HomAlgebra:
    """The nth derived algebra: operations alpha^s o op with twist alpha^t.

    kind 'type1' uses (s, t) = (n, n+1); kind 'type2' uses (2^n - 1, 2^n).
    n = 0 returns the algebra unchanged in both cases.
    """
    if kind not in ("type1", "type2"):
        raise ValueError("kind must be 'type1' or 'type2'")
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n > DERIVED_MAX_N:
        raise ValueError(f"n capped at {DERIVED_MAX_N} to bound cost")
    if not force:
        _require(axioms.check_multiplicative(A), "algebra is not multiplicative")
        _require_rb_commutes(A, A.alpha)
    power = A.alpha.power(n if kind == "type1" else 2**n - 1)
    ops = {name: op.compose_output(power) for name, op in A.ops.items()}
    return replace(A, ops=ops, alpha=A.alpha.compose(power))


def centroid_twist(A: HomAlgebra, alpha: LinearMap, variant: int, *, force: bool = False) -> HomAlgebra:
    """Twist a classical one-operation algebra by a centroid element.

    Variant 1 replaces x o y by alpha(x) o y, variant 2 by alpha(x) o alpha(y);
    the twist map of the result is alpha.  The input must carry the identity
    twist: the construction is stated for untwisted algebras.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    name = A.op_name
    if not force:
        if not A.alpha.is_identity():
            raise PreconditionError("input must carry the identity twist")
        _require(axioms.check_centroid(alpha, A), "map is not in the centroid")
        _require_rb_commutes(A, alpha)
    op = A.ops[name]
    if variant == 1:
        new_op = op.precompose(left=alpha)
    else:
        new_op = op.precompose(left=alpha, right=alpha)
    return replace(A, ops={name: new_op}, alpha=alpha)


# -- functors between classes -------------------------------------------------


def commutator(A: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """Bracket [x,y] = x o y - y o x of a multiplicative Hom-associative algebra.

    Rota-Baxter data survives: the bracket identity for R follows from the
    product identity by expanding both commutators.
    """
    if not force:
        _require(axioms.check_hom_associative(A), "algebra is not Hom-associative")
        _require(axioms.check_multiplicative(A), "algebra is not multiplicative")
    op = A.op
    bracket = op - op.opposite()
    return replace(A, ops={"bracket": bracket}, signature=Signature.lie())


def dendriform_star(D: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """x * y = x < y + x > y; the sum of a dendriform pair is Hom-associative."""
    if not force:
        _require(axioms.check_hom_dendriform(D), "algebra is not Hom-dendriform")
    left, right = _fixed_ops(D, "dendriform")
    return replace(D, ops={"mul": left + right}, signature=Signature.associative(), rb=None)


def dendriform_prelie(D: HomAlgebra, side: str = "left", *, force: bool = False) -> HomAlgebra:
    """x |> y = x > y - y < x (left) or x <| y = x < y - y > x (right)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not force:
        _require(axioms.check_hom_dendriform(D), "algebra is not Hom-dendriform")
    lt, rt = _fixed_ops(D, "dendriform")
    if side == "left":
        op = rt - lt.opposite()
    else:
        op = lt - rt.opposite()
    return replace(D, ops={"mul": op}, signature=Signature.prelie(side), rb=None)


def tridendriform_star(T: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """x * y = x < y + x > y + x . y is Hom-associative."""
    if not force:
        _require(axioms.check_hom_tridendriform(T), "algebra is not Hom-tridendriform")
    left, right, dot = _fixed_ops(T, "tridendriform")
    return replace(T, ops={"mul": left + right + dot}, signature=Signature.associative(), rb=None)


def embed_dendriform_as_tridendriform(D: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """View a dendriform pair as a tridendriform triple with zero dot."""
    if not force:
        _require(axioms.check_hom_dendriform(D), "algebra is not Hom-dendriform")
    left, right = _fixed_ops(D, "dendriform")
    ops = {"left": left, "right": right, "dot": BilinearOp.zero(D.dim, D.params)}
    return replace(D, ops=ops, signature=Signature.tridendriform())


# -- Rota-Baxter splittings ----------------------------------------------------


def _rb_data(A: HomAlgebra) -> tuple[Scalar, LinearMap]:
    if A.rb is None:
        raise PreconditionError("algebra carries no Rota-Baxter data")
    return A.rb.theta, A.rb.R


def _check_rb_assoc(A: HomAlgebra):
    _require(axioms.check_hom_associative(A), "algebra is not Hom-associative")
    _require(axioms.check_rota_baxter(A), "operator fails the Rota-Baxter identity")
    _require_rb_commutes(A, A.alpha)


def rb_prelie(A: HomAlgebra, weight_case: str = "zero", *, force: bool = False) -> HomAlgebra:
    """x * y = R(x) o y - y o R(x) (weight 0), minus an extra x o y at weight -1."""
    if weight_case not in ("zero", "minus_one"):
        raise ValueError("weight_case must be 'zero' or 'minus_one'")
    expected = Fraction(0) if weight_case == "zero" else Fraction(-1)
    _, R = _rb_data(A)
    if not force:
        _require_weight(A, expected, f"operator weight must be {expected}")
        _check_rb_assoc(A)
    op = A.op
    star = op.precompose(left=R) - op.precompose(right=R).opposite()
    if weight_case == "minus_one":
        star = star - op
    return replace(A, ops={"mul": star}, signature=Signature.prelie("left"), rb=None)


def rb_dendriform(A: HomAlgebra, weighted: bool = False, *, force: bool = False) -> HomAlgebra:
    """Split a Rota-Baxter product into x < y = x o R(y) [+ theta x o y], x > y = R(x) o y.

    With weighted=False the operator weight must be 0; with weighted=True the
    algebra's own weight enters the left operation.
    """
    _rb_data(A)
    if not force:
        if not weighted:
            _require_weight(A, Fraction(0), "operator weight must be 0 (use weighted=True otherwise)")
        _check_rb_assoc(A)
    T = rb_tridendriform(A, force=True)
    left, right, dot = _fixed_ops(T, "tridendriform")
    ops = {"left": left + dot if weighted else left, "right": right}
    return replace(T, ops=ops, signature=Signature.dendriform())


def rb_tridendriform(A: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """x < y = x o R(y), x > y = R(x) o y, x . y = theta x o y."""
    theta, R = _rb_data(A)
    if not force:
        _check_rb_assoc(A)
    op = A.op
    ops = {
        "left": op.precompose(right=R),
        "right": op.precompose(left=R),
        "dot": op.scale(theta),
    }
    return replace(A, ops=ops, signature=Signature.tridendriform(), rb=None)


def rb_complement(A: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """Replace R by its complement -theta id - R, an involution preserving the weight.

    The complement satisfies the Rota-Baxter identity whenever R does, for any
    bilinear operation (no associativity is used).
    """
    theta, R = _rb_data(A)
    complement = LinearMap.identity(A.dim, A.params).scale(-theta) - R
    return replace(A, rb=RotaBaxter(theta, complement))


def star_derived(A: HomAlgebra, *, force: bool = False) -> tuple[HomAlgebra, axioms.AxiomReport]:
    """The derived product x * y = x o R(y) + R(x) o y + theta x o y.

    Returns the Hom-associative star algebra together with an exact check on
    all basis pairs that R(x * y) = R(x) o R(y) (identity SD1) and that
    Rt(x * y) = -Rt(x) o Rt(y) for Rt = -theta id - R (identity SD2).
    """
    _, R = _rb_data(A)
    if not force:
        _check_rb_assoc(A)
    star = tridendriform_star(rb_tridendriform(A, force=True), force=True).op
    env = {"o": A.op, "*": star, "R": R, "Rt": rb_complement(A).rb.R}
    groups = (axioms._group(2, "SD1"), axioms._group(2, "SD2"))
    report = axioms._scan("star-derived", groups, env, A, axioms.DEFAULT_WITNESS_CAP)
    algebra = replace(A, ops={"mul": star}, signature=Signature.associative(), rb=None)
    return algebra, report


def rb_lie_prelie(L: HomAlgebra, *, force: bool = False) -> HomAlgebra:
    """x * y = [R(x), y] for a weight-0 Rota-Baxter operator on a Hom-Lie algebra."""
    _, R = _rb_data(L)
    if not force:
        _require_weight(L, Fraction(0), "operator weight must be 0")
        _require(axioms.check_hom_lie(L), "algebra is not Hom-Lie")
        _require(axioms.check_rota_baxter(L), "operator fails the Rota-Baxter identity")
        _require_rb_commutes(L, L.alpha)
    star = L.op.precompose(left=R)
    return replace(L, ops={"mul": star}, signature=Signature.prelie("left"), rb=None)


def diagram_commutes(A: HomAlgebra, *, force: bool = False) -> bool:
    """Both routes from a weight-0 Rota-Baxter algebra to its pre-Lie algebras agree.

    True iff the left pre-Lie operation of the dendriform splitting equals the
    direct x * y = R(x) o y - y o R(x), and the right pre-Lie operation equals
    x o R(y) - R(y) o x, as exact tensors.
    """
    _, R = _rb_data(A)
    if not force:
        _require_weight(A, Fraction(0), "operator weight must be 0")
        _check_rb_assoc(A)
    split = rb_dendriform(A, weighted=False, force=True)
    via_left = dendriform_prelie(split, "left", force=True).op
    direct = rb_prelie(A, "zero", force=True).op
    if via_left != direct:
        return False
    via_right = dendriform_prelie(split, "right", force=True).op
    op = A.op
    target = op.precompose(right=R) - op.precompose(left=R).opposite()
    return via_right == target


# -- matrix algebras ------------------------------------------------------------


def matrix_algebra(A: HomAlgebra, n: int, *, force: bool = False) -> HomAlgebra:
    """n x n matrices with entries in A: matrix product combined with A's product.

    The twist (and any Rota-Baxter operator) acts entrywise.  The result has
    dimension n^2 * dim(A), at most ``MAX_DIM``, with basis E_pq tensor e_r.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("matrix size must be a positive integer")
    d = A.dim
    N = n * n * d
    require_dim(N)
    if not force:
        _require(axioms.check_hom_associative(A), "algebra is not Hom-associative")
    op = A.op

    def flat(p: int, q: int, r: int) -> int:
        return (p * n + q) * d + r

    zero = Scalar.zero(A.params)
    c = [[[zero] * N for _ in range(N)] for _ in range(N)]
    for p in range(n):
        for q in range(n):
            for r in range(d):
                row = flat(p, q, r)
                for t in range(n):
                    for u in range(d):
                        col = flat(q, t, u)
                        for k, x in op.support[r][u]:
                            c[row][col][flat(p, t, k)] = x

    def lift(m: LinearMap) -> LinearMap:
        rows = [[zero] * N for _ in range(N)]
        for p in range(n):
            for q in range(n):
                for s in range(d):
                    for r, entry in m.support[s]:
                        rows[flat(p, q, r)][flat(p, q, s)] = entry
        return LinearMap(rows, A.params)

    rb = None
    if A.rb is not None:
        rb = RotaBaxter(A.rb.theta, lift(A.rb.R))
    labels = tuple(
        f"E{p + 1}{q + 1}({A.basis_labels[r]})"
        for p in range(n)
        for q in range(n)
        for r in range(d)
    )
    return HomAlgebra(
        dim=N,
        params=A.params,
        signature=Signature.associative(),
        ops={"mul": BilinearOp(c, A.params)},
        alpha=lift(A.alpha),
        rb=rb,
        basis_labels=labels,
    )
