"""Exact verification of twisted algebra identities on basis tuples.

Every operation is bilinear and the twist is linear, so an identity holds on
all of the algebra iff it holds on all basis tuples; the checkers below scan
those tuples in lexicographic order and record the exact residual vector
(left-hand side minus right-hand side) wherever it is nonzero.

Residual orientations per identity id:

* ``A1``   (x o y) o a(z) - a(x) o (y o z)            [twisted associator]
* ``L1``   [x,y] + [y,x]                              [skew-symmetry]
* ``L2``   [a(x),[y,z]] + [a(y),[z,x]] + [a(z),[x,y]] [twisted Jacobi sum]
* ``PL``   A(x,y,z) - A(y,x,z) with A(x,y,z) = a(x)(yz) - (xy)a(z)
* ``PR``   A(x,y,z) - A(x,z,y)
* ``Z1``   (x o y) o a(z) - a(x) o (y o z) - a(x) o (z o y)
* ``D1-D3``, ``T1-T7``  oriented exactly as displayed in their definitions
* ``RB``   R(x) o R(y) - R(R(x) o y + x o R(y) + t x o y)
* ``M:<op>``          a(x o y) - a(x) o a(y)
* ``morphism:<op>``   f(x) o' f(y) - f(x o y); ``morphism:twist`` f(a(x)) - a'(f(x))
* ``C1``   a(x o y) - a(x) o y;  ``C2``  a(x o y) - x o a(y)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    basis_vector,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .scalar import Scalar

__all__ = [
    "Witness",
    "AxiomReport",
    "DEFAULT_WITNESS_CAP",
    "check_hom_associative",
    "check_hom_lie",
    "check_hom_prelie",
    "check_hom_zinbiel",
    "check_hom_dendriform",
    "check_hom_tridendriform",
    "check_rota_baxter",
    "check_multiplicative",
    "check_morphism",
    "check_centroid",
    "check_class",
    "CLASS_CHECK_NAMES",
]

DEFAULT_WITNESS_CAP = 16


@dataclass(frozen=True)
class Witness:
    """A failing basis tuple with its exact residual coordinates."""

    identity_id: str
    indices: tuple[int, ...]
    residual: tuple[Scalar, ...]


@dataclass
class AxiomReport:
    name: str
    passed: bool
    witnesses: list[Witness] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "witnesses": [
                {
                    "identity": w.identity_id,
                    "indices": [i + 1 for i in w.indices],
                    "residual": [str(s) for s in w.residual],
                }
                for w in self.witnesses
            ],
        }


class _Collector:
    """Gathers nonzero residuals, up to a witness cap, in scan order."""

    def __init__(self, name: str, cap: int):
        self.name = name
        self.cap = cap
        self.witnesses: list[Witness] = []
        self.failed = False

    def add(self, identity_id: str, indices: tuple[int, ...], residual) -> bool:
        """Record a nonzero residual; returns False once the cap is reached."""
        if vec_is_zero(residual):
            return True
        self.failed = True
        if len(self.witnesses) < self.cap:
            self.witnesses.append(Witness(identity_id, indices, tuple(residual)))
        return len(self.witnesses) < self.cap

    def report(self) -> AxiomReport:
        return AxiomReport(self.name, not self.failed, self.witnesses)


def _single_op(A: HomAlgebra) -> BilinearOp:
    if len(A.ops) != 1:
        raise ValueError(
            f"check requires a single-operation algebra, got operations {sorted(A.ops)!r}"
        )
    return A.op


def _hom_associator(op: BilinearOp, alpha: LinearMap, i: int, j: int, k: int):
    """a(x) o (y o z) - (x o y) o a(z) on basis triple (i, j, k)."""
    lhs = op.apply(alpha.col(i), op.pair(j, k))
    rhs = op.apply(op.pair(i, j), alpha.col(k))
    return vec_sub(lhs, rhs)


def check_hom_associative(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """(x o y) o a(z) = a(x) o (y o z) on all basis triples."""
    op = _single_op(A)
    out = _Collector("hom-associative", cap)
    d = A.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                res = vec_sub(
                    op.apply(op.pair(i, j), A.alpha.col(k)),
                    op.apply(A.alpha.col(i), op.pair(j, k)),
                )
                if not out.add("A1", (i, j, k), res):
                    return out.report()
    return out.report()


def check_hom_lie(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Skew-symmetry on all pairs, then the cyclic twisted Jacobi sum on all triples."""
    op = _single_op(A)
    out = _Collector("hom-lie", cap)
    d = A.dim
    for i in range(d):
        for j in range(d):
            if not out.add("L1", (i, j), vec_add(op.pair(i, j), op.pair(j, i))):
                return out.report()
    for i in range(d):
        for j in range(d):
            for k in range(d):
                res = op.apply(A.alpha.col(i), op.pair(j, k))
                res = vec_add(res, op.apply(A.alpha.col(j), op.pair(k, i)))
                res = vec_add(res, op.apply(A.alpha.col(k), op.pair(i, j)))
                if not out.add("L2", (i, j, k), res):
                    return out.report()
    return out.report()


def check_hom_prelie(A: HomAlgebra, side: str = "left", *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Left: the twisted associator is symmetric in its first two arguments;
    right: symmetric in its last two."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    op = _single_op(A)
    out = _Collector(f"hom-prelie-{side}", cap)
    ident = "PL" if side == "left" else "PR"
    d = A.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                first = _hom_associator(op, A.alpha, i, j, k)
                if side == "left":
                    second = _hom_associator(op, A.alpha, j, i, k)
                else:
                    second = _hom_associator(op, A.alpha, i, k, j)
                if not out.add(ident, (i, j, k), vec_sub(first, second)):
                    return out.report()
    return out.report()


def check_hom_zinbiel(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """(x o y) o a(z) = a(x) o (y o z) + a(x) o (z o y)."""
    op = _single_op(A)
    out = _Collector("hom-zinbiel", cap)
    d = A.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                res = op.apply(op.pair(i, j), A.alpha.col(k))
                res = vec_sub(res, op.apply(A.alpha.col(i), op.pair(j, k)))
                res = vec_sub(res, op.apply(A.alpha.col(i), op.pair(k, j)))
                if not out.add("Z1", (i, j, k), res):
                    return out.report()
    return out.report()


def check_hom_dendriform(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """The three twisted axioms relating the left and right operations."""
    if set(A.ops) != {"left", "right"}:
        raise ValueError("dendriform check requires operations 'left' and 'right'")
    lt, rt = A.ops["left"], A.ops["right"]
    a = A.alpha
    out = _Collector("hom-dendriform", cap)
    d = A.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                d1 = vec_sub(
                    lt.apply(lt.pair(i, j), a.col(k)),
                    lt.apply(a.col(i), vec_add(lt.pair(j, k), rt.pair(j, k))),
                )
                if not out.add("D1", (i, j, k), d1):
                    return out.report()
                d2 = vec_sub(
                    lt.apply(rt.pair(i, j), a.col(k)),
                    rt.apply(a.col(i), lt.pair(j, k)),
                )
                if not out.add("D2", (i, j, k), d2):
                    return out.report()
                d3 = vec_sub(
                    rt.apply(a.col(i), rt.pair(j, k)),
                    rt.apply(vec_add(lt.pair(i, j), rt.pair(i, j)), a.col(k)),
                )
                if not out.add("D3", (i, j, k), d3):
                    return out.report()
    return out.report()


def check_hom_tridendriform(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """The seven twisted axioms relating left, right and dot."""
    if set(A.ops) != {"left", "right", "dot"}:
        raise ValueError(
            "tridendriform check requires operations 'left', 'right' and 'dot'"
        )
    lt, rt, dt = A.ops["left"], A.ops["right"], A.ops["dot"]
    a = A.alpha
    out = _Collector("hom-tridendriform", cap)
    d = A.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                triple_sum_jk = vec_add(vec_add(lt.pair(j, k), rt.pair(j, k)), dt.pair(j, k))
                triple_sum_ij = vec_add(vec_add(lt.pair(i, j), rt.pair(i, j)), dt.pair(i, j))
                checks = (
                    ("T1", vec_sub(lt.apply(lt.pair(i, j), a.col(k)),
                                   lt.apply(a.col(i), triple_sum_jk))),
                    ("T2", vec_sub(lt.apply(rt.pair(i, j), a.col(k)),
                                   rt.apply(a.col(i), lt.pair(j, k)))),
                    ("T3", vec_sub(rt.apply(a.col(i), rt.pair(j, k)),
                                   rt.apply(triple_sum_ij, a.col(k)))),
                    ("T4", vec_sub(dt.apply(lt.pair(i, j), a.col(k)),
                                   dt.apply(a.col(i), rt.pair(j, k)))),
                    ("T5", vec_sub(dt.apply(rt.pair(i, j), a.col(k)),
                                   rt.apply(a.col(i), dt.pair(j, k)))),
                    ("T6", vec_sub(lt.apply(dt.pair(i, j), a.col(k)),
                                   dt.apply(a.col(i), lt.pair(j, k)))),
                    ("T7", vec_sub(dt.apply(dt.pair(i, j), a.col(k)),
                                   dt.apply(a.col(i), dt.pair(j, k)))),
                )
                for ident, res in checks:
                    if not out.add(ident, (i, j, k), res):
                        return out.report()
    return out.report()


def check_rota_baxter(
    A: HomAlgebra,
    op_name: str | None = None,
    R: LinearMap | None = None,
    theta: Scalar | None = None,
    *,
    cap: int = DEFAULT_WITNESS_CAP,
) -> AxiomReport:
    """R(x) o R(y) = R(R(x) o y + x o R(y) + theta x o y) on all basis pairs.

    Signature-agnostic: works against any named operation, e.g. a bracket.
    R and theta default to the algebra's stored Rota-Baxter data.
    """
    _, op = A.resolve_op(op_name)
    if R is None or theta is None:
        if A.rb is None:
            raise ValueError("no Rota-Baxter data on the algebra and none supplied")
        R = A.rb.R if R is None else R
        theta = A.rb.theta if theta is None else theta
    if not isinstance(theta, Scalar):
        theta = Scalar.constant(theta, A.params)
    if R.dim != A.dim:
        raise ValueError("dimension mismatch between operator and algebra")
    out = _Collector("rota-baxter", cap)
    d = A.dim
    rcols = [R.col(i) for i in range(d)]
    for i in range(d):
        ei = basis_vector(i, d, A.params)
        for j in range(d):
            ej = basis_vector(j, d, A.params)
            lhs = op.apply(rcols[i], rcols[j])
            inner = vec_add(op.apply(rcols[i], ej), op.apply(ei, rcols[j]))
            inner = vec_add(inner, tuple(theta * s for s in op.pair(i, j)))
            res = vec_sub(lhs, R.apply(inner))
            if not out.add("RB", (i, j), res):
                return out.report()
    return out.report()


def check_multiplicative(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """a(x o y) = a(x) o a(y) for every operation, on all basis pairs."""
    out = _Collector("multiplicative", cap)
    d = A.dim
    acols = [A.alpha.col(i) for i in range(d)]
    for name in A.signature.op_names:
        op = A.ops[name]
        for i in range(d):
            for j in range(d):
                res = vec_sub(A.alpha.apply(op.pair(i, j)), op.apply(acols[i], acols[j]))
                if not out.add(f"M:{name}", (i, j), res):
                    return out.report()
    return out.report()


def check_morphism(
    f: LinearMap, A: HomAlgebra, B: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP
) -> AxiomReport:
    """f intertwines every operation and the twist maps of A and B."""
    if A.signature != B.signature:
        raise ValueError("signature mismatch between source and target")
    if A.dim != B.dim or f.dim != A.dim:
        raise ValueError("dimension mismatch")
    out = _Collector("morphism", cap)
    d = A.dim
    fcols = [f.col(i) for i in range(d)]
    for name in A.signature.op_names:
        opA, opB = A.ops[name], B.ops[name]
        for i in range(d):
            for j in range(d):
                res = vec_sub(opB.apply(fcols[i], fcols[j]), f.apply(opA.pair(i, j)))
                if not out.add(f"morphism:{name}", (i, j), res):
                    return out.report()
    for i in range(d):
        res = vec_sub(f.apply(A.alpha.col(i)), B.alpha.apply(fcols[i]))
        if not out.add("morphism:twist", (i,), res):
            return out.report()
    return out.report()


def check_centroid(alpha: LinearMap, A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """a(x o y) = a(x) o y and a(x o y) = x o a(y) on all basis pairs.

    For brackets the second equality follows from the first by skew-symmetry;
    it is checked regardless.
    """
    op = _single_op(A)
    if alpha.dim != A.dim:
        raise ValueError("dimension mismatch")
    out = _Collector("centroid", cap)
    d = A.dim
    acols = [alpha.col(i) for i in range(d)]
    for i in range(d):
        ei = basis_vector(i, d, A.params)
        for j in range(d):
            ej = basis_vector(j, d, A.params)
            image = alpha.apply(op.pair(i, j))
            if not out.add("C1", (i, j), vec_sub(image, op.apply(acols[i], ej))):
                return out.report()
            if not out.add("C2", (i, j), vec_sub(image, op.apply(ei, acols[j]))):
                return out.report()
    return out.report()


# -- class dispatch -------------------------------------------------------------

_HOM_CHECKS = {
    "hom-associative": lambda A, cap: check_hom_associative(A, cap=cap),
    "hom-lie": lambda A, cap: check_hom_lie(A, cap=cap),
    "hom-prelie-left": lambda A, cap: check_hom_prelie(A, "left", cap=cap),
    "hom-prelie-right": lambda A, cap: check_hom_prelie(A, "right", cap=cap),
    "hom-zinbiel": lambda A, cap: check_hom_zinbiel(A, cap=cap),
    "hom-dendriform": lambda A, cap: check_hom_dendriform(A, cap=cap),
    "hom-tridendriform": lambda A, cap: check_hom_tridendriform(A, cap=cap),
}

_CLASSICAL_OF = {
    "associative": "hom-associative",
    "lie": "hom-lie",
    "prelie-left": "hom-prelie-left",
    "prelie-right": "hom-prelie-right",
    "zinbiel": "hom-zinbiel",
    "dendriform": "hom-dendriform",
    "tridendriform": "hom-tridendriform",
}

CLASS_CHECK_NAMES = tuple(
    sorted([*_HOM_CHECKS, *_CLASSICAL_OF, "multiplicative", "rota-baxter"])
)


def check_class(A: HomAlgebra, class_name: str, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Run the named identity check; classical names force an identity twist."""
    if class_name in _HOM_CHECKS:
        return _HOM_CHECKS[class_name](A, cap)
    if class_name in _CLASSICAL_OF:
        report = check_class(A.with_identity_twist(), _CLASSICAL_OF[class_name], cap=cap)
        report.name = class_name
        return report
    if class_name == "multiplicative":
        return check_multiplicative(A, cap=cap)
    if class_name == "rota-baxter":
        return check_rota_baxter(A, cap=cap)
    raise ValueError(f"unknown check {class_name!r}; known: {CLASS_CHECK_NAMES}")
