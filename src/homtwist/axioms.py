"""Exact verification of twisted algebra identities on basis tuples.

Every operation is bilinear and the twist is linear, so an identity holds on
all of the algebra iff it holds on all basis tuples.  Each identity is a row of
``_IDENTITIES``: its residual, left-hand side minus right-hand side, as a term.
A term is an argument index (``X, Y, Z``), ``(map, t)``, ``(op, s, t)`` or a
linear combination ``((c, t), ...)`` whose coefficients are rationals or the
name of a bound Scalar.  Names are bound per check: ``o`` is the operation and
``a`` the twist, ``l``, ``r``, ``d`` are left, right and dot, ``R`` and
``theta`` the Rota-Baxter data; a scan group ``(arity, compiled rows, names)``
may bind more, such as the operation of its ``M:<op>`` row.  One engine,
``_compile`` and ``_residuals``, evaluates rows on sparse values: it scans the
basis tuples of each group in lexicographic order and evaluates the rows in
turn on each tuple (so D1, D2 and D3 interleave).  ``_scan`` records every
nonzero residual of a check; ``_expand`` reads the same rows with one map
unknown, for the equations of the Rota-Baxter search and the centroid solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .core import BilinearOp, HomAlgebra, LinearMap
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


def _compile(ids, unknown: str | None) -> tuple[list, bool]:
    """Compile the rows of one group, once, into steps over one list of values.

    A value is sparse, ``{(coordinate, monomial): coefficient}``; a monomial
    is the sorted tuple of the entries of the map named ``unknown`` that the
    coefficient multiplies, ``()`` for every other map.  A step maps (basis
    tuple, values so far, data) to a value.  Each distinct subterm is one step,
    so C1 and C2 share a(x o y); each row lists only its new steps, so it is
    evaluated only when the scan reaches it.  The data binds operations to
    their supports, maps to their sparse columns (the unknown map's hold entry
    indices), coefficients to numbers, and ``"1"`` to the unit if the returned
    flag says a basis argument reads it.  Zeros are kept until the residual:
    testing each one costs more than carrying it.
    """
    slots: dict = {}

    def slot(term) -> int:
        if term not in slots:
            step = compile_step(term)
            slots[term] = len(slots)
            steps.append(step)
        return slots[term]

    def compile_step(term):
        if isinstance(term, int):  # a basis argument
            return lambda ix, v, data: {(ix[term], ()): data["1"]}
        if isinstance(term[0], tuple):  # a linear combination
            parts = [(c, slot(t)) for c, t in term]
            return lambda ix, v, data: _combination(parts, v, data)
        name, *args = term
        if len(args) == 2:
            if all(isinstance(arg, int) for arg in args):
                i, j = args
                return lambda ix, v, data: {(k, ()): c for k, c in data[name][ix[i]][ix[j]]}
            x, y = slot(args[0]), slot(args[1])
            return lambda ix, v, data: _product(data[name], v[x], v[y])
        i, is_unknown = args[0], name == unknown
        if isinstance(i, int) and not is_unknown:  # read the column: multiplying by 1 costs
            return lambda ix, v, data: {(p, ()): c for p, c in data[name][ix[i]]}
        x = slot(i)
        return lambda ix, v, data: _image(data[name], v[x], is_unknown)

    plan = []
    for ident in ids:
        steps: list = []
        parts = [(c, slot(t)) for c, t in _IDENTITIES[ident]]
        # lhs - rhs: the sides are compared, and subtracted only when they differ
        sides = [x for _, x in parts] if [c for c, _ in parts] == [1, -1] else None
        plan.append((ident, steps, parts, sides))
    return plan, any(isinstance(term, int) for term in slots)


def _combination(parts, v, data) -> dict:
    """The sum of c * v[x] over the parts (c, x); a named c is read from the data."""
    out: dict = {}
    for c, x in parts:
        terms = v[x].items()
        if c == -1:
            terms = [(key, -val) for key, val in terms]
        elif c != 1:
            terms = [(key, data.get(c, c) * val) for key, val in terms]
        for key, val in terms:
            out[key] = out[key] + val if key in out else val
    return out


def _product(support, u: dict, v: dict) -> dict:
    """u o v for the operation with this support."""
    out: dict = {}
    for (p, mu), cu in u.items():
        row = support[p]
        for (q, mv), cv in v.items():
            if row[q]:
                cc = cu * cv
                mono = tuple(sorted(mu + mv)) if mu and mv else mu + mv
                for k, c in row[q]:
                    key, val = (k, mono), cc * c
                    out[key] = out[key] + val if key in out else val
    return out


def _image(columns, v: dict, unknown: bool) -> dict:
    """The image of v under the map with these sparse columns.  The columns of
    the unknown map hold entry indices, which join the monomial."""
    out: dict = {}
    for (m, mono), c in v.items():
        for p, a in columns[m]:
            if unknown:
                key, val = (p, tuple(sorted((*mono, a)))), c
            else:
                key, val = (p, mono), a * c
            out[key] = out[key] + val if key in out else val
    return out


def _residuals(plan, arity: int, dim: int, data: dict):
    """Every nonzero residual as (basis tuple, id, its nonzero coefficients),
    for the basis tuples in lexicographic order and the rows in turn."""
    for ix in product(range(dim), repeat=arity):
        values: list = []
        for ident, steps, parts, sides in plan:
            for step in steps:
                values.append(step(ix, values, data))
            if sides and values[sides[0]] == values[sides[1]]:
                continue
            residual = {key: c for key, c in _combination(parts, values, data).items() if c}
            if residual:
                yield ix, ident, residual


def _scan(name: str, groups, data: dict, A: HomAlgebra, cap: int) -> AxiomReport:
    """Evaluate each group's rows on its basis tuples; stop at the witness cap.

    ``data`` is the check's own binding of names; each group's names are added
    to it.  A group whose data is not all over ``A.params`` is refused.
    """
    witnesses: list[Witness] = []
    for arity, (plan, bare), names in groups:
        bound = {**data, **names, "1": Scalar.one(A.params) if bare else None}
        for key, x in bound.items():
            if isinstance(x, (BilinearOp, LinearMap, Scalar)):
                if x.params != A.params:
                    raise ValueError(f"parameter list mismatch: {x.params!r} vs {A.params!r}")
                bound[key] = x if isinstance(x, Scalar) else x.support
        for ix, ident, residual in _residuals(plan, arity, A.dim, bound):
            # the witness ids of M and morphism rows name the group's operation
            label = ident.replace("<op>", names.get("<op>", ""))
            zero = Scalar.zero(A.params)
            witnesses.append(Witness(label, ix, tuple(residual.get((k, ()), zero)
                                                      for k in range(A.dim))))
            if len(witnesses) >= cap:
                return AxiomReport(name, False, witnesses[:cap])
    return AxiomReport(name, not witnesses, witnesses)


@lru_cache(maxsize=None)
def _group(arity: int, *ids: str, unknown: str | None = None):
    """A scan group of identity rows, compiled once; it binds no names."""
    return arity, _compile(ids, unknown), {}


# -- equations in an unknown map --------------------------------------------------


def _expand(ids, arity: int, data: dict, unknown: str, d: int) -> list[dict]:
    """The rows' residual coordinates as polynomials in the entries of one map.

    Entry (p, i) of the map named ``unknown``, coordinate p of the image of
    e_i, is variable p*d + i.  ``data`` binds each operation to its support,
    the nonzero (k, c[i][j][k]) of each basis pair, and each named coefficient
    to a number.  For every basis tuple in lexicographic order, id and
    coordinate k in ascending order, a coordinate that is not identically zero
    is returned as ``{sorted variable tuple: coefficient}``.
    """
    _, (plan, _), _ = _group(arity, *ids, unknown=unknown)
    bound = {**data, "1": 1, unknown: [[(p, p * d + i) for p in range(d)] for i in range(d)]}
    polys = []
    for _, _, residual in _residuals(plan, arity, d, bound):
        coords: dict = {}
        for (k, mono), c in residual.items():
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
    if ops is None:
        return _scan(class_name, groups, _bind_single_op(A), A, cap)
    if set(A.ops) != set(ops.values()):
        *first, last = map(repr, ops.values())
        raise ValueError(
            f"{hom.removeprefix('hom-')} check requires operations {', '.join(first)} and {last}"
        )
    data = {"a": A.alpha, **{letter: A.ops[op] for letter, op in ops.items()}}
    return _scan(class_name, groups, data, A, cap)
