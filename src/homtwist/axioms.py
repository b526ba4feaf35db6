"""Exact verification of twisted algebra identities on basis tuples.

Every operation is bilinear and the twist is linear, so an identity holds on
all of the algebra iff it holds on all basis tuples.  Each identity is a row of
``_IDENTITIES``: its residual, left-hand side minus right-hand side, as a term.
A term is an argument index (``X, Y, Z``), ``(map, t)``, ``(op, s, t)`` or a
linear combination ``((c, t), ...)`` whose coefficients are rationals or the
name of a bound Scalar.  Names are bound per check: ``o`` is the operation and
``a`` the twist, ``l``, ``r``, ``d`` are left, right and dot, ``R`` and
``theta`` the Rota-Baxter data; a scan group ``(arity, compiled rows, names)``
may bind more, such as the operation of its ``M:<op>`` row.  One engine scans
the basis tuples of each group in lexicographic order, evaluates the rows in
turn on each tuple (so D1, D2 and D3 interleave) and records every nonzero
residual.  ``_expand`` reads the same rows with one map unknown: they give the
equations of the Rota-Baxter search and of the centroid solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import add, attrgetter, sub

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


# -- the residual engine --------------------------------------------------------


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
                key, i = (name, "columns"), args[0]
                return lambda ix, v, d: d[key][ix[i]]
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
        # lhs - rhs: the scan compares the sides and subtracts only for a witness
        if isinstance(term[0], tuple) and [c for c, _ in term] == [1, -1]:
            plan.append((ident, steps, slot(term[0][1]), slot(term[1][1])))
        else:
            plan.append((ident, steps, slot(term), None))
    return plan, frozenset(columns)


_canonical = attrgetter("params", "terms")  # equal exactly when the Scalars are


def _scan(name: str, groups, data: dict, A: HomAlgebra, cap: int) -> AxiomReport:
    """Evaluate each group's rows on its basis tuples; stop at the witness cap.

    ``data`` is the check's own binding of names; the groups' names and the
    columns of maps are added to it.
    """
    witnesses: list[Witness] = []
    for arity, (plan, columns), names in groups:
        data.update(names)
        for f_name in columns:
            if (f_name, "columns") not in data:
                f = data.get(f_name)
                data[f_name, "columns"] = [f.col(i) if f else basis_vector(i, A.dim, A.params)
                                           for i in range(A.dim)]
        for ix in product(range(A.dim), repeat=arity):
            values = []
            for ident, steps, lhs, rhs in plan:
                for step in steps:
                    values.append(step(ix, values, data))
                residual = values[lhs]
                if rhs is not None:
                    if list(map(_canonical, residual)) == list(map(_canonical, values[rhs])):
                        continue
                    residual = tuple(map(sub, residual, values[rhs]))
                if vec_is_zero(residual):
                    continue
                # the witness ids of M and morphism rows name the group's operation
                label = ident.replace("<op>", names.get("<op>", ""))
                witnesses.append(Witness(label, ix, residual))
                if len(witnesses) >= cap:
                    return AxiomReport(name, False, witnesses[:cap])
    return AxiomReport(name, not witnesses, witnesses)


@lru_cache(maxsize=None)
def _group(arity: int, *ids: str):
    """A scan group of identity rows, compiled once; it binds no names."""
    return arity, _compile(tuple((ident, _IDENTITIES[ident]) for ident in ids)), {}


# -- equations in an unknown map --------------------------------------------------


def _expand(ids, arity: int, data: dict, unknown: str, d: int) -> list[dict]:
    """The rows' residual coordinates as polynomials in the entries of one map.

    Entry (p, i) of the map named ``unknown``, coordinate p of the image of
    e_i, is variable p*d + i.  ``data`` binds each operation to its structure
    constants c[i][j][k] and each named coefficient to a number.  For every
    basis tuple in lexicographic order, id and coordinate k in ascending
    order, a coordinate that is not identically zero is returned as
    ``{sorted variable tuple: coefficient}``.  Each distinct subterm is one
    step, whose value is ``{(coordinate, variable tuple): coefficient}``.
    """
    slots: dict = {}
    steps: list = []
    support = {name: [[[(k, c) for k, c in enumerate(vec) if c] for vec in row]
                      for row in tensor]
               for name, tensor in data.items() if isinstance(tensor, list)}

    def slot(term) -> int:
        if term not in slots:
            step = compile_step(term)
            slots[term] = len(slots)
            steps.append(step)
        return slots[term]

    def summed(terms) -> dict:
        out: dict = {}
        for key, c in terms:
            out[key] = out.get(key, 0) + c
        return out

    def compile_step(term):
        if isinstance(term, int):
            return lambda ix, v: {(ix[term], ()): 1}
        if isinstance(term[0], tuple):  # a linear combination
            parts = [(data[c] if isinstance(c, str) else c, slot(t)) for c, t in term]
            return lambda ix, v: summed((key, c * val) for c, x in parts
                                        for key, val in v[x].items())
        name, *args = term
        if len(args) == 1:
            assert name == unknown, f"the rows may apply no map but {unknown!r}"
            x = slot(args[0])
            return lambda ix, v: summed(((p, tuple(sorted((*mono, p * d + m)))), c)
                                        for (m, mono), c in v[x].items() for p in range(d))
        sup = support[name]
        if all(isinstance(arg, int) for arg in args):
            i, j = args
            return lambda ix, v: {(k, ()): c for k, c in sup[ix[i]][ix[j]]}
        x, y = slot(args[0]), slot(args[1])
        return lambda ix, v: summed(((k, tuple(sorted(mu + mv))), cu * cv * c)
                                    for (p, mu), cu in v[x].items()
                                    for (q, mv), cv in v[y].items() for k, c in sup[p][q])

    roots = [slot(_IDENTITIES[ident]) for ident in ids]
    polys = []
    for ix in product(range(d), repeat=arity):
        values = []
        for step in steps:
            values.append(step(ix, values))
        for root in roots:
            coords: dict = {}
            for (k, mono), c in values[root].items():
                if c:
                    coords.setdefault(k, {})[mono] = c
            polys += (coords[k] for k in sorted(coords))
    return polys


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
    _, compiled, _ = _group(2, "M:<op>")
    groups = [(2, compiled, {"o": A.ops[name], "<op>": name}) for name in A.signature.op_names]
    return _scan("multiplicative", groups, {"a": A.alpha}, A, cap)


def check_morphism(
    f: LinearMap, A: HomAlgebra, B: HomAlgebra, *, cap: int = DEFAULT_WITNESS_CAP
) -> AxiomReport:
    """f intertwines every operation and the twist maps of A and B."""
    if A.signature != B.signature:
        raise ValueError("signature mismatch between source and target")
    if A.dim != B.dim or f.dim != A.dim:
        raise ValueError("dimension mismatch")
    _, compiled, _ = _group(2, "morphism:<op>")
    groups = [(2, compiled, {"o": A.ops[name], "o'": B.ops[name], "<op>": name})
              for name in A.signature.op_names]
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
