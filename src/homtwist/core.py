"""Structure-constant representations of Hom-algebras.

Conventions, fixed once and used everywhere:

* vectors are tuples of Scalars in basis coordinates;
* a :class:`LinearMap` acts by columns: the image of basis vector ``e_j`` is
  ``sum_i entries[i][j] * e_i``;
* a :class:`BilinearOp` stores a rank-3 tensor ``c`` with
  ``e_i o e_j = sum_k c[i][j][k] * e_k``.

One sparse exact elimination engine serves ``rref``, ``nullspace`` and
``LinearMap.inverse``.  It is restricted to parameter-free entries; parametric
algebras must be specialized at a rational point first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, compress
from operator import add, methodcaller
from typing import Iterable, Mapping, Sequence

from .scalar import Scalar, _validated_params, as_rational

__all__ = [
    "LinearMap",
    "BilinearOp",
    "Signature",
    "RotaBaxter",
    "HomAlgebra",
    "nullspace",
    "vec_add",
    "vec_sub",
    "vec_scale",
    "basis_vector",
]


def _coerce_scalar(value, params: tuple[str, ...]) -> Scalar:
    if isinstance(value, Scalar):
        if value.params != params:
            raise ValueError(
                f"parameter list mismatch: expected {params!r}, got {value.params!r}"
            )
        return value
    return Scalar.constant(as_rational(value), params)


# -- vectors ------------------------------------------------------------------


def basis_vector(i: int, dim: int, params: tuple[str, ...] = ()) -> tuple[Scalar, ...]:
    one = Scalar.one(params)
    zero = Scalar.zero(params)
    return tuple(one if j == i else zero for j in range(dim))


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(s, u: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(s * a for a in u)


# -- tensors ------------------------------------------------------------------


def _cellwise(f, arrays, depth: int) -> list:
    """``f`` over the cells of equally shaped nested tuples, as nested lists."""
    if depth == 1:
        return list(map(f, *arrays))
    return [_cellwise(f, rows, depth - 1) for rows in zip(*arrays)]


class _Tensor:
    """Immutability and cell-by-cell arithmetic of the tensor classes; each sets
    ``_rank`` and exposes its nested tuple of Scalars as ``_cells``."""

    __slots__ = ("dim", "params", "_support")
    _rank: int

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self._cells, self.params)

    @classmethod
    def zero(cls, dim: int, params: Iterable[str] = ()):
        cells = 0
        for _ in range(cls._rank):
            cells = [cells] * dim
        return cls(cells, params)

    def _flat(self) -> Iterable[Scalar]:
        cells = self._cells
        for _ in range(self._rank - 1):
            cells = chain.from_iterable(cells)
        return cells

    def _map(self, f, *others):
        arrays = (self._cells, *(other._cells for other in others))
        return type(self)(_cellwise(f, arrays, self._rank), self.params)

    def scale(self, s):
        return self._map(_coerce_scalar(s, self.params).__mul__)

    def __add__(self, other):
        if not isinstance(other, type(self)) or other.dim != self.dim:
            return NotImplemented
        return self._map(add, other)

    def __sub__(self, other):
        return self.__add__(-other) if isinstance(other, _Tensor) else NotImplemented

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.dim == other.dim
            and self.params == other.params
            and self._cells == other._cells
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self._flat())

    def is_constant(self) -> bool:
        return all(x.is_constant() for x in self._flat())

    def substitute(self, assignment: Mapping[str, object]):
        cells = _cellwise(methodcaller("substitute", assignment), (self._cells,), self._rank)
        return type(self)(cells, tuple(p for p in self.params if p not in assignment))


class LinearMap(_Tensor):
    """A square matrix of Scalars acting on column coordinate vectors."""

    __slots__ = ("entries",)
    _rank = 2
    _cells = property(lambda self: self.entries)

    def __init__(self, entries: Sequence[Sequence[object]], params: Iterable[str] = ()):
        params = _validated_params(params)
        rows = tuple(tuple(_coerce_scalar(x, params) for x in row) for row in entries)
        dim = len(rows)
        if dim == 0 or any(len(row) != dim for row in rows):
            raise ValueError("linear map must be a nonempty square matrix")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, dim: int, params: Iterable[str] = ()) -> "LinearMap":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)], params)

    @classmethod
    def diagonal(cls, values: Sequence[object], params: Iterable[str] = ()) -> "LinearMap":
        dim = len(values)
        return cls(
            [[values[i] if i == j else 0 for j in range(dim)] for i in range(dim)],
            params,
        )

    @property
    def support(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """For each column j, its nonzero entries (i, entries[i][j]); built once."""
        if not hasattr(self, "_support"):
            object.__setattr__(self, "_support", tuple(
                tuple((i, row[j]) for i, row in enumerate(self.entries) if row[j])
                for j in range(self.dim)))
        return self._support

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i][j] for i in range(self.dim))

    def apply(self, vector: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vector) != self.dim:
            raise ValueError(f"dimension mismatch: map dim {self.dim}, vector {len(vector)}")
        support = [(j, x) for j, x in enumerate(vector) if not x.is_zero()]
        zero = Scalar.zero(self.params)
        out = []
        for row in self.entries:
            acc = zero
            for j, x in support:
                a = row[j]
                if not a.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other: (self.compose(other))(v) == self(other(v))."""
        if not isinstance(other, LinearMap) or other.dim != self.dim:
            raise ValueError("dimension mismatch in composition")
        zero = Scalar.zero(self.params)
        rows = []
        for row in self.entries:
            out = [zero] * self.dim
            for k, a in enumerate(row):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.entries[k]):
                    if not b.is_zero():
                        out[j] = out[j] + a * b
            rows.append(out)
        return LinearMap(rows, self.params)

    def power(self, n: int) -> "LinearMap":
        if n < 0:
            raise ValueError("negative power")
        result = LinearMap.identity(self.dim, self.params)
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            base = base.compose(base)
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self == LinearMap.identity(self.dim, self.params)

    def to_fraction_rows(self) -> list[list[Fraction]]:
        if not self.is_constant():
            raise ValueError("parametric entries; specialize at a rational point first")
        return [[x.constant_value() for x in row] for row in self.entries]

    def inverse(self) -> "LinearMap":
        """Exact inverse: the right half of the reduced form of [M | I].

        Restricted to parameter-free maps; raises on singular input.
        """
        n = self.dim
        one = Fraction(1)
        augmented = [row + [one if i == j else 0 for j in range(n)]
                     for i, row in enumerate(self.to_fraction_rows())]
        reduced, pivots = rref(augmented)
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return LinearMap([row[n:] for row in reduced], self.params)

    def commutes_with(self, other: "LinearMap") -> bool:
        return self.compose(other) == other.compose(self)

    def __repr__(self):
        rows = "; ".join(", ".join(str(x) for x in row) for row in self.entries)
        return f"LinearMap[{rows}]"


class BilinearOp(_Tensor):
    """A bilinear operation as a dim x dim x dim tensor of Scalars."""

    __slots__ = ("c",)
    _rank = 3
    _cells = property(lambda self: self.c)

    def __init__(self, c: Sequence[Sequence[Sequence[object]]], params: Iterable[str] = ()):
        params = _validated_params(params)
        tensor = tuple(
            tuple(tuple(_coerce_scalar(x, params) for x in vec) for vec in row)
            for row in c
        )
        dim = len(tensor)
        if dim == 0 or any(
            len(row) != dim or any(len(vec) != dim for vec in row) for row in tensor
        ):
            raise ValueError("structure constants must form a cubic tensor")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "c", tensor)

    @property
    def support(self) -> tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]:
        """For each basis pair (p, q), the nonzero (k, c[p][q][k]); built once."""
        if not hasattr(self, "_support"):
            object.__setattr__(self, "_support", tuple(
                tuple(tuple((k, x) for k, x in enumerate(vec) if x) for vec in row)
                for row in self.c))
        return self._support

    def pair(self, i: int, j: int) -> tuple[Scalar, ...]:
        """Coordinates of e_i o e_j."""
        return self.c[i][j]

    def apply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("dimension mismatch in bilinear application")
        out = [Scalar.zero(self.params)] * self.dim
        for p, up in enumerate(u):
            if up.is_zero():
                continue
            for q, vq in enumerate(v):
                if vq.is_zero():
                    continue
                coeff = up * vq
                for k, ck in enumerate(self.c[p][q]):
                    if not ck.is_zero():
                        out[k] = out[k] + coeff * ck
        return tuple(out)

    def compose_output(self, m: LinearMap) -> "BilinearOp":
        """The operation followed by m: (x, y) -> m(x o y)."""
        if m.dim != self.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        zero = Scalar.zero(self.params)
        c = [[[zero] * d for _ in range(d)] for _ in range(d)]
        for i, row in enumerate(self.support):
            for j, entries in enumerate(row):
                out = c[i][j]
                for t, x in entries:
                    for k, a in m.support[t]:
                        out[k] = out[k] + x * a
        return BilinearOp(c, self.params)

    def precompose(self, left: LinearMap | None = None, right: LinearMap | None = None) -> "BilinearOp":
        """(x, y) -> left(x) o right(y), identity where a side is None."""
        for m in (left, right):
            if m is not None and m.dim != self.dim:
                raise ValueError("dimension mismatch")
        d = self.dim
        zero = Scalar.zero(self.params)
        # the column supports of each side; e_i where a side is None
        unit = tuple(((i, Scalar.one(self.params)),) for i in range(d))
        lcols = unit if left is None else left.support
        rcols = unit if right is None else right.support
        support = self.support
        c = [[[zero] * d for _ in range(d)] for _ in range(d)]
        for i, lcol in enumerate(lcols):
            for j, rcol in enumerate(rcols):
                out = c[i][j]
                for p, x in lcol:
                    row = support[p]
                    for q, y in rcol:
                        xy = x * y
                        for k, a in row[q]:
                            out[k] = out[k] + xy * a
        return BilinearOp(c, self.params)

    def opposite(self) -> "BilinearOp":
        """Swap the arguments: c[i][j][k] -> c[j][i][k]."""
        d = self.dim
        return BilinearOp(
            [[self.c[j][i] for j in range(d)] for i in range(d)], self.params
        )

    def __repr__(self):
        return f"BilinearOp(dim={self.dim})"


# -- signatures and algebras ---------------------------------------------------

ONE_OP_CLASSES = ("associative", "lie", "prelie-left", "prelie-right", "zinbiel")
CLASSES = ONE_OP_CLASSES + ("dendriform", "tridendriform", "plain")
# classes whose operation names are fixed, in their canonical order
FIXED_OPS = {"dendriform": ("left", "right"), "tridendriform": ("left", "right", "dot")}


@dataclass(frozen=True)
class Signature:
    """Names the algebra class and its operation set."""

    cls: str
    op_names: tuple[str, ...]

    def __post_init__(self):
        if self.cls not in CLASSES:
            raise ValueError(f"unknown signature class {self.cls!r}")
        names = tuple(self.op_names)
        if len(set(names)) != len(names) or not names:
            raise ValueError("operation names must be nonempty and unique")
        if self.cls in ONE_OP_CLASSES and len(names) != 1:
            raise ValueError(f"class {self.cls!r} requires exactly one operation")
        fixed = FIXED_OPS.get(self.cls)
        if fixed and set(names) != set(fixed):
            *first, last = (repr(op) for op in fixed)
            raise ValueError(
                f"{self.cls} signature requires operations {', '.join(first)} and {last}"
            )
        object.__setattr__(self, "op_names", fixed or names)

    @classmethod
    def associative(cls, op: str = "mul") -> "Signature":
        return cls("associative", (op,))

    @classmethod
    def lie(cls, op: str = "bracket") -> "Signature":
        return cls("lie", (op,))

    @classmethod
    def prelie(cls, side: str = "left", op: str = "mul") -> "Signature":
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        return cls(f"prelie-{side}", (op,))

    @classmethod
    def zinbiel(cls, op: str = "circ") -> "Signature":
        return cls("zinbiel", (op,))

    @classmethod
    def dendriform(cls) -> "Signature":
        return cls("dendriform", FIXED_OPS["dendriform"])

    @classmethod
    def tridendriform(cls) -> "Signature":
        return cls("tridendriform", FIXED_OPS["tridendriform"])

    @classmethod
    def plain(cls, op_names: Iterable[str] = ("mul",)) -> "Signature":
        return cls("plain", tuple(op_names))


@dataclass(frozen=True)
class RotaBaxter:
    """Weight and operator of a Rota-Baxter structure."""

    theta: Scalar
    R: LinearMap


@dataclass(frozen=True)
class HomAlgebra:
    """A finite-dimensional algebra with named operations and a twist map."""

    dim: int
    params: tuple[str, ...]
    signature: Signature
    ops: dict[str, BilinearOp]
    alpha: LinearMap
    rb: RotaBaxter | None = None
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "ops", dict(self.ops))
        if set(self.ops) != set(self.signature.op_names):
            raise ValueError(
                f"operation names {sorted(self.ops)!r} do not match signature "
                f"{self.signature.op_names!r}"
            )
        for name, op in self.ops.items():
            if op.dim != self.dim or op.params != self.params:
                raise ValueError(f"operation {name!r} has mismatched dim or parameters")
        if self.alpha.dim != self.dim or self.alpha.params != self.params:
            raise ValueError("twist map has mismatched dim or parameters")
        if self.rb is not None:
            if self.rb.R.dim != self.dim or self.rb.R.params != self.params:
                raise ValueError("Rota-Baxter operator has mismatched dim or parameters")
            if self.rb.theta.params != self.params:
                raise ValueError("Rota-Baxter weight has mismatched parameters")
        labels = tuple(self.basis_labels) or tuple(f"x{i + 1}" for i in range(self.dim))
        if len(labels) != self.dim:
            raise ValueError("wrong number of basis labels")
        object.__setattr__(self, "basis_labels", labels)

    # -- accessors ----------------------------------------------------------

    @property
    def op(self) -> BilinearOp:
        """The unique operation of a one-operation algebra."""
        return self.ops[self.op_name]

    @property
    def op_name(self) -> str:
        if len(self.ops) != 1:
            raise ValueError("algebra has more than one operation; name it explicitly")
        return next(iter(self.ops))

    def resolve_op(self, name: str | None) -> tuple[str, BilinearOp]:
        if name is None:
            return self.op_name, self.op
        if name not in self.ops:
            raise ValueError(f"no operation named {name!r}; has {sorted(self.ops)!r}")
        return name, self.ops[name]

    def is_parameter_free(self) -> bool:
        rb = () if self.rb is None else (self.rb.R, self.rb.theta)
        return all(x.is_constant() for x in (*self.ops.values(), self.alpha, *rb))

    # -- derived copies -----------------------------------------------------

    def with_alpha(self, alpha: LinearMap) -> "HomAlgebra":
        return replace(self, alpha=alpha)

    def with_ops(self, ops: dict[str, BilinearOp], signature: Signature | None = None) -> "HomAlgebra":
        return replace(self, ops=ops, signature=signature or self.signature)

    def with_rb(self, rb: RotaBaxter | None) -> "HomAlgebra":
        return replace(self, rb=rb)

    def with_identity_twist(self) -> "HomAlgebra":
        return self.with_alpha(LinearMap.identity(self.dim, self.params))

    def specialize(self, assignment: Mapping[str, object]) -> "HomAlgebra":
        """Substitute rationals for a subset of the parameters."""
        for name in assignment:
            if name not in self.params:
                raise ValueError(f"unknown parameter {name!r} in assignment")
        kept = tuple(p for p in self.params if p not in assignment)
        ops = {name: op.substitute(assignment) for name, op in self.ops.items()}
        rb = None
        if self.rb is not None:
            rb = RotaBaxter(
                self.rb.theta.substitute(assignment), self.rb.R.substitute(assignment)
            )
        return replace(
            self,
            params=kept,
            ops=ops,
            alpha=self.alpha.substitute(assignment),
            rb=rb,
        )


# -- exact elimination ---------------------------------------------------------


def _rational(x) -> Fraction:
    return x.constant_value() if isinstance(x, Scalar) else as_rational(x)


def _sparse_rows(rows: Sequence[Sequence[object]]) -> list[dict[int, Fraction]]:
    """Dense rows of rationals or constant Scalars as dicts of their nonzero cells."""
    # zero ints, Fractions and Scalars are skipped before any coercion
    cells = [{j: _rational(row[j]) for j in compress(range(len(row)), row)} for row in rows]
    return [{j: v for j, v in row.items() if v} for row in cells]


def _eliminate(rows: Iterable[Mapping[int, object]]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Sparse Gauss-Jordan elimination; returns (pivot rows, pivot columns).

    A row maps columns, in any order, to nonzero rationals.  Each is scaled so that its
    leading entry is 1; zero rows and scaled repeats of an earlier row are dropped.
    Every unpivoted row has no entry left of the current column, so the
    candidates for column ``col`` are the rows that lead there.  The shortest
    of them becomes the pivot (Markowitz's sparsest-row rule), and ``col`` is
    cleared from every other row, earlier pivot rows included.
    """
    seen: set[tuple] = set()
    leading: dict[int, list[dict[int, Fraction]]] = {}
    for row in rows:
        if not row:
            continue
        lead = min(row)
        # through a Fraction: int / int would give a float
        scale = Fraction(row[lead])
        entries = {j: v / scale for j, v in row.items()} if scale != 1 else dict(row)
        key = tuple(sorted(entries.items()))
        if key not in seen:
            seen.add(key)
            leading.setdefault(lead, []).append(entries)
    reduced: list[dict[int, Fraction]] = []
    pivots: list[int] = []
    while leading:
        col = min(leading)
        candidates = leading.pop(col)
        chosen = min(candidates, key=len)
        p = Fraction(chosen[col])
        pivot = chosen if p == 1 else {j: v / p for j, v in chosen.items()}
        for row in candidates:
            if row is not chosen:
                _clear(row, pivot, col)
                if row:
                    leading.setdefault(min(row), []).append(row)
        for row in reduced:
            if col in row:
                _clear(row, pivot, col)
        reduced.append(pivot)
        pivots.append(col)
    return reduced, pivots


def _clear(row: dict[int, Fraction], pivot: dict[int, Fraction], col: int) -> None:
    """row -= row[col] * pivot, in place; pivot[col] is 1."""
    f = row[col]
    for j, v in pivot.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


def rref(rows: Sequence[Sequence[object]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Entries are rationals or constant Scalars.  Only the nonzero rows of the
    form are returned, ordered by pivot column.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced, pivots = _eliminate(_sparse_rows(rows))
    zero = Fraction(0)
    dense = []
    for entries in reduced:
        row = [zero] * ncols
        for j, v in entries.items():
            row[j] = v
        dense.append(row)
    return dense, pivots


def nullspace(rows: Sequence[Sequence[object]]) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the solution space of a homogeneous system.

    Rows may contain constant Scalars or rationals; parametric entries are
    refused.  Free coordinates are parameterized in ascending index order,
    each basis vector carrying a 1 in its free position.
    """
    if not rows:
        raise ValueError("no rows; the ambient dimension is unknown")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return _nullspace(_sparse_rows(rows), ncols)


def _nullspace(rows: Iterable[Mapping[int, object]], ncols: int) -> list[tuple[Fraction, ...]]:
    """``nullspace`` of sparse rows, as ``_eliminate`` takes them, in ``ncols`` unknowns."""
    reduced, pivots = _eliminate(rows)
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, pcol in zip(reduced, pivots):
            if free in row:
                vec[pcol] = -row[free]
        basis.append(tuple(vec))
    return basis
