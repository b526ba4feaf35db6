"""Exact verification of twisted algebra identities on basis tuples.

Every operation is bilinear and the twist is linear, so an identity holds on
all of the algebra iff it holds on all basis tuples.  Each identity is a row of
``_IDENTITIES``: its residual, left-hand side minus right-hand side, as a term.
A term is an argument index (``X, Y, Z``), ``(map, t)``, ``(op, s, t)`` or a
linear combination ``((c, t), ...)`` whose coefficients are rationals or the
name of a bound Scalar.  Names are bound per check: ``o`` is the operation and
``a`` the twist, ``l``, ``r``, ``d`` are left, right and dot, ``R`` and
``theta`` the Rota-Baxter data; a scan group ``(arity, rows, names)`` may bind
more, such as the operation of its ``M:<op>`` row.  One engine scans the
basis tuples of each group in lexicographic order, evaluates the rows in turn
on each tuple (so D1, D2 and D3 interleave) and records every nonzero residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import add, sub

from .core import HomAlgebra, LinearMap, basis_vector, vec_is_zero, vec_scale
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


# -- identities -------------------------------------------------------------------

X, Y, Z = 0, 1, 2


def _sum(*terms):
    return tuple((1, t) for t in terms)


def _diff(lhs, rhs):
    return ((1, lhs), (-1, rhs))


def _associator(x, y, z):
    """a(x) o (y o z) - (x o y) o a(z)."""
    return _diff(("o", ("a", x), ("o", y, z)), ("o", ("o", x, y), ("a", z)))


_IDENTITIES = {
    "A1": _diff(("o", ("o", X, Y), ("a", Z)), ("o", ("a", X), ("o", Y, Z))),
    "L1": _sum(("o", X, Y), ("o", Y, X)),
    "L2": _sum(("o", ("a", X), ("o", Y, Z)),
               ("o", ("a", Y), ("o", Z, X)),
               ("o", ("a", Z), ("o", X, Y))),
    "PL": _diff(_associator(X, Y, Z), _associator(Y, X, Z)),
    "PR": _diff(_associator(X, Y, Z), _associator(X, Z, Y)),
    "Z1": ((1, ("o", ("o", X, Y), ("a", Z))),
           (-1, ("o", ("a", X), ("o", Y, Z))),
           (-1, ("o", ("a", X), ("o", Z, Y)))),
    "D1": _diff(("l", ("l", X, Y), ("a", Z)),
                ("l", ("a", X), _sum(("l", Y, Z), ("r", Y, Z)))),
    "D2": _diff(("l", ("r", X, Y), ("a", Z)), ("r", ("a", X), ("l", Y, Z))),
    "D3": _diff(("r", ("a", X), ("r", Y, Z)),
                ("r", _sum(("l", X, Y), ("r", X, Y)), ("a", Z))),
    "T1": _diff(("l", ("l", X, Y), ("a", Z)),
                ("l", ("a", X), _sum(("l", Y, Z), ("r", Y, Z), ("d", Y, Z)))),
    "T2": _diff(("l", ("r", X, Y), ("a", Z)), ("r", ("a", X), ("l", Y, Z))),
    "T3": _diff(("r", ("a", X), ("r", Y, Z)),
                ("r", _sum(("l", X, Y), ("r", X, Y), ("d", X, Y)), ("a", Z))),
    "T4": _diff(("d", ("l", X, Y), ("a", Z)), ("d", ("a", X), ("r", Y, Z))),
    "T5": _diff(("d", ("r", X, Y), ("a", Z)), ("r", ("a", X), ("d", Y, Z))),
    "T6": _diff(("l", ("d", X, Y), ("a", Z)), ("d", ("a", X), ("l", Y, Z))),
    "T7": _diff(("d", ("d", X, Y), ("a", Z)), ("d", ("a", X), ("d", Y, Z))),
    "RB": _diff(("o", ("R", X), ("R", Y)),
                ("R", ((1, ("o", ("R", X), Y)),
                       (1, ("o", X, ("R", Y))),
                       ("theta", ("o", X, Y))))),
    "C1": _diff(("a", ("o", X, Y)), ("o", ("a", X), Y)),
    "C2": _diff(("a", ("o", X, Y)), ("o", X, ("a", Y))),
    # f carries A to B: a and a' are their twists
    "morphism:twist": _diff(("f", ("a", X)), ("a'", ("f", X))),
    # the star product of star_derived and the complement Rt = -theta id - R
    "SD1": _diff(("R", ("*", X, Y)), ("o", ("R", X), ("R", Y))),
    "SD2": _sum(("Rt", ("*", X, Y)), ("o", ("Rt", X), ("Rt", Y))),
    # one scan group per operation o, which f carries to o' on B; the witness
    # ids name the operation
    "M:<op>": _diff(("a", ("o", X, Y)), ("o", ("a", X), ("a", Y))),
    "morphism:<op>": _diff(("o'", ("f", X), ("f", Y)), ("f", ("o", X, Y))),
}


def _group(arity: int, *ids: str):
    return arity, tuple((ident, _IDENTITIES[ident]) for ident in ids), {}


# -- the residual engine --------------------------------------------------------


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


# Bounded: the witness ids of M and morphism rows name operations, which
# documents choose.
@lru_cache(maxsize=256)
def _compile(rows) -> tuple[list, frozenset]:
    """Compile the rows of one group, once, into steps over one list of values.

    A step maps (basis tuple, values so far, bound data) to a vector.  Each
    distinct subterm is one step, so C1 and C2 share a(x o y); each row lists
    only its new steps, so it is evaluated only when the scan reaches it.  A
    basis argument costs no apply: it reads a pair, or a column of a map or of
    the identity (None) that the data binds for each name in the returned set.
    """
    slots: dict = {}
    columns = set()

    def slot(term) -> int:
        if term not in slots:
            step = compile_step(term)
            slots[term] = len(slots)
            steps.append(step)
        return slots[term]

    def compile_step(term):
        if isinstance(term, int):
            term = (None, term)
        if isinstance(term[0], tuple):  # a linear combination, summed left to right
            *init, (c, last) = term
            if not init:  # c * last
                x = slot(last)
                return lambda ix, v, d: vec_scale(d.get(c, c), v[x])
            acc = slot(init[0][1] if len(init) == 1 and init[0][0] == 1 else tuple(init))
            x = slot(last if c in (1, -1) else ((c, last),))
            combine = sub if c == -1 else add
            return lambda ix, v, d: tuple(map(combine, v[acc], v[x]))
        name, *args = term
        if all(isinstance(arg, int) for arg in args):
            if len(args) == 1:
                columns.add(name)
                i = args[0]
                return lambda ix, v, d: d[name, "columns"][ix[i]]
            i, j = args
            return lambda ix, v, d: d[name].c[ix[i]][ix[j]]
        x = slot(args[0])
        if len(args) == 1:
            return lambda ix, v, d: d[name].apply(v[x])
        y = slot(args[1])
        return lambda ix, v, d: d[name].apply(v[x], v[y])

    plan = []
    for ident, term in rows:
        steps: list = []
        plan.append((ident, steps, slot(term)))
    return plan, frozenset(columns)


def _scan(name: str, groups, env: dict, A: HomAlgebra, cap: int) -> AxiomReport:
    """Evaluate each group's rows on its basis tuples; stop at the witness cap."""
    out = _Collector(name, cap)
    for arity, rows, names in groups:
        plan, columns = _compile(rows)
        data = {**env, **names}
        for f_name in columns:
            f = data.get(f_name)
            data[f_name, "columns"] = [f.col(i) if f else basis_vector(i, A.dim, A.params)
                                       for i in range(A.dim)]
        for ix in product(range(A.dim), repeat=arity):
            values = []
            for ident, steps, root in plan:
                for step in steps:
                    values.append(step(ix, values, data))
                if not out.add(ident, ix, values[root]):
                    return out.report()
    return out.report()


# -- checks -----------------------------------------------------------------------


def _bind_single_op(A: HomAlgebra) -> dict:
    if len(A.ops) != 1:
        raise ValueError(
            f"check requires a single-operation algebra, got operations {sorted(A.ops)!r}"
        )
    return {"o": A.op, "a": A.alpha}


# class -> (operations bound by letter, None for the single operation o; groups)
_CLASSES = {
    "hom-associative": (None, (_group(3, "A1"),)),
    "hom-lie": (None, (_group(2, "L1"), _group(3, "L2"))),
    "hom-prelie-left": (None, (_group(3, "PL"),)),
    "hom-prelie-right": (None, (_group(3, "PR"),)),
    "hom-zinbiel": (None, (_group(3, "Z1"),)),
    "hom-dendriform": ({"l": "left", "r": "right"}, (_group(3, "D1", "D2", "D3"),)),
    "hom-tridendriform": ({"l": "left", "r": "right", "d": "dot"},
                          (_group(3, "T1", "T2", "T3", "T4", "T5", "T6", "T7"),)),
}

CLASS_CHECK_NAMES = tuple(
    sorted([*_CLASSES, *(name.removeprefix("hom-") for name in _CLASSES),
            "multiplicative", "rota-baxter"])
)


def _bind(A: HomAlgebra, hom: str, ops: dict | None) -> dict:
    if ops is None:
        return _bind_single_op(A)
    if set(A.ops) != set(ops.values()):
        *first, last = map(repr, ops.values())
        raise ValueError(
            f"{hom.removeprefix('hom-')} check requires operations {', '.join(first)} and {last}"
        )
    return {"a": A.alpha, **{letter: A.ops[op] for letter, op in ops.items()}}


def check_hom_associative(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """(x o y) o a(z) = a(x) o (y o z) on all basis triples."""
    return check_class(A, "hom-associative", cap=cap)


def check_hom_lie(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Skew-symmetry on all pairs, then the cyclic twisted Jacobi sum on all triples."""
    return check_class(A, "hom-lie", cap=cap)


def check_hom_prelie(A: HomAlgebra, side: str = "left", *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Left: the twisted associator is symmetric in its first two arguments;
    right: symmetric in its last two."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return check_class(A, f"hom-prelie-{side}", cap=cap)


def check_hom_zinbiel(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """(x o y) o a(z) = a(x) o (y o z) + a(x) o (z o y)."""
    return check_class(A, "hom-zinbiel", cap=cap)


def check_hom_dendriform(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """The three twisted axioms relating the left and right operations."""
    return check_class(A, "hom-dendriform", cap=cap)


def check_hom_tridendriform(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """The seven twisted axioms relating left, right and dot."""
    return check_class(A, "hom-tridendriform", cap=cap)


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
    env = {"o": op, "R": R, "theta": theta}
    return _scan("rota-baxter", (_group(2, "RB"),), env, A, cap)


def check_multiplicative(A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """a(x o y) = a(x) o a(y) for every operation, on all basis pairs."""
    groups = [(2, ((f"M:{name}", _IDENTITIES["M:<op>"]),), {"o": A.ops[name]})
              for name in A.signature.op_names]
    return _scan("multiplicative", groups, {"a": A.alpha}, A, cap)


def check_morphism(
    f: LinearMap, A: HomAlgebra, B: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP
) -> AxiomReport:
    """f intertwines every operation and the twist maps of A and B."""
    if A.signature != B.signature:
        raise ValueError("signature mismatch between source and target")
    if A.dim != B.dim or f.dim != A.dim:
        raise ValueError("dimension mismatch")
    groups = [(2, ((f"morphism:{name}", _IDENTITIES["morphism:<op>"]),),
               {"o": A.ops[name], "o'": B.ops[name]}) for name in A.signature.op_names]
    groups.append(_group(1, "morphism:twist"))
    return _scan("morphism", groups, {"f": f, "a": A.alpha, "a'": B.alpha}, A, cap)


def check_centroid(alpha: LinearMap, A: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """a(x o y) = a(x) o y and a(x o y) = x o a(y) on all basis pairs.

    For brackets the second equality follows from the first by skew-symmetry;
    it is checked regardless.
    """
    env = _bind_single_op(A)
    if alpha.dim != A.dim:
        raise ValueError("dimension mismatch")
    env["a"] = alpha
    return _scan("centroid", (_group(2, "C1", "C2"),), env, A, cap)


def check_class(A: HomAlgebra, class_name: str, *, cap: int = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Run the named identity check; classical names force an identity twist."""
    if class_name == "multiplicative":
        return check_multiplicative(A, cap=cap)
    if class_name == "rota-baxter":
        return check_rota_baxter(A, cap=cap)
    hom = class_name if class_name in _CLASSES else f"hom-{class_name}"
    if hom not in _CLASSES:
        raise ValueError(f"unknown check {class_name!r}; known: {CLASS_CHECK_NAMES}")
    if hom != class_name:
        A = A.with_identity_twist()
    ops, groups = _CLASSES[hom]
    return _scan(class_name, groups, _bind(A, hom, ops), A, cap)
