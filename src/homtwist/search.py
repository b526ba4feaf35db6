"""Desk-scale discovery: Rota-Baxter operator grids and exact centroids.

``search_rb`` finds every matrix over a finite rational entry grid that
satisfies the Rota-Baxter identity.  Its equations are the ``RB`` row of
``axioms._IDENTITIES``, expanded by ``axioms._expand``, the checks' engine
with R unknown: after clearing denominators, the identity on each basis
triple (i, j, k) is one quadratic equation with integer coefficients in the
d*d entries of R.  The entries are assigned one at a time in row-major order,
each over the grid in ascending order, and an equation is checked as soon as
its last entry is set, so a partial matrix that already breaks one is
abandoned with its whole subtree (depth-first backtracking).  Hits therefore
come out in lexicographic order of the flattened entries.  ``search_rb_oracle``
is an independent naive implementation used to cross-validate the search; it
shares nothing with it beyond rational arithmetic.  ``centroid_basis`` solves
the linear conditions of rows ``C1`` and ``C2`` exactly.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import lcm

from .axioms import _expand
from .core import HomAlgebra, LinearMap, _nullspace
from .scalar import Scalar, as_rational

__all__ = [
    "SearchConfig",
    "search_rb",
    "search_rb_oracle",
    "centroid_basis",
    "search_budget",
    "DEFAULT_SEARCH_BUDGET",
    "BUDGET_ENV_VAR",
]

DEFAULT_SEARCH_BUDGET = 10**8
BUDGET_ENV_VAR = "HOMTWIST_SEARCH_BUDGET"


class SearchConfig:
    """Normalized search parameters.

    The entry grid is deduplicated and sorted ascending; the weight must be
    parameter-free.  ``op_name`` defaults to the algebra's single operation
    and ``limit`` truncates the result list.
    """

    __slots__ = ("entry_set", "weight", "op_name", "limit")

    def __init__(self, entry_set, weight=0, op_name: str | None = None,
                 limit: int | None = None):
        entries = sorted({as_rational(e) for e in entry_set})
        if not entries:
            raise ValueError("entry set must be nonempty")
        self.entry_set: tuple[Fraction, ...] = tuple(entries)
        if isinstance(weight, Scalar):
            weight = weight.constant_value()
        self.weight: Fraction = as_rational(weight)
        self.op_name = op_name
        if limit is not None and (not isinstance(limit, int) or limit < 1):
            raise ValueError("limit must be a positive integer")
        self.limit = limit

    def __repr__(self):
        entries = ",".join(str(e) for e in self.entry_set)
        return f"SearchConfig(entries=[{entries}], weight={self.weight}, op={self.op_name}, limit={self.limit})"


def search_budget() -> int:
    """Candidate budget; the environment variable overrides the default."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_SEARCH_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def _require_parameter_free(A: HomAlgebra):
    if not A.is_parameter_free():
        raise ValueError("parametric algebra; evaluate its parameters at rationals first")


def _check_budget(A: HomAlgebra, cfg: SearchConfig) -> int:
    count = len(cfg.entry_set) ** (A.dim * A.dim)
    budget = search_budget()
    if count > budget:
        raise ValueError(
            f"search budget exceeded: {count} candidates over a budget of {budget} "
            f"(override with {BUDGET_ENV_VAR})"
        )
    return count


def _integer_support(A: HomAlgebra, op_name: str | None):
    """One operation's support, its coefficients times their common denominator."""
    _, op = A.resolve_op(op_name)
    support = [[[(k, x.constant_value()) for k, x in vec] for vec in row] for row in op.support]
    dc = lcm(*(x.denominator for row in support for vec in row for _, x in vec))
    return [[[(k, x.numerator * (dc // x.denominator)) for k, x in vec] for vec in row]
            for row in support]


def _backtrack(grid: list[int], by_depth, limit: int) -> list[tuple[int, ...]]:
    """Depth-first search over the grid, entry by entry in index order.

    Values are tried in grid order, so with an ascending grid the hits (tuples
    of grid indices) come out in lexicographic order.  A positive limit stops
    the search after that many hits; 0 finds them all.
    """
    n = len(by_depth)
    x = [0] * n + [1]
    digits = [-1] * n
    last = len(grid) - 1
    hits: list[tuple[int, ...]] = []
    pos = 0
    while pos >= 0:
        digit = digits[pos]
        if digit == last:
            digits[pos] = -1
            pos -= 1
            continue
        digit += 1
        digits[pos] = digit
        x[pos] = grid[digit]
        for eq in by_depth[pos]:
            if sum(coeff * x[a] * x[b] for coeff, a, b in eq):
                break
        else:
            if pos + 1 < n:
                pos += 1
            else:
                hits.append(tuple(digits))
                if len(hits) == limit:
                    break
    return hits


def _lex_key(m: LinearMap):
    return tuple(x.constant_value() for row in m.entries for x in row)


def search_rb(A: HomAlgebra, cfg: SearchConfig) -> list[LinearMap]:
    """All matrices over the entry grid satisfying the Rota-Baxter identity.

    Deterministic: results come in lexicographic order of flattened entries.
    Raises when the candidate count exceeds the budget or the algebra is
    parametric.
    """
    _require_parameter_free(A)
    _check_budget(A, cfg)
    d = A.dim
    # x = s*R is an integer on the grid and so is s*theta: the RB row in x is
    # s^2 times the identity, one equation per basis triple, a list of terms
    # coeff*x[a]*x[b]; a linear term's b is d*d, the slot of the constant 1
    s = lcm(cfg.weight.denominator, *(f.denominator for f in cfg.entry_set))
    data = {"o": _integer_support(A, cfg.op_name), "theta": int(cfg.weight * s)}
    by_depth = [[] for _ in range(d * d)]
    for poly in _expand(("RB",), 2, data, "R", d):
        by_depth[max(mono[-1] for mono in poly)].append(
            [(coeff, *mono) if len(mono) == 2 else (coeff, mono[0], d * d)
             for mono, coeff in poly.items()])
    found = _backtrack([int(f * s) for f in cfg.entry_set], by_depth, cfg.limit or 0)
    return [LinearMap([[cfg.entry_set[x] for x in digits[p * d:(p + 1) * d]] for p in range(d)],
                      A.params) for digits in found]


def search_rb_oracle(A: HomAlgebra, cfg: SearchConfig) -> list[LinearMap]:
    """Naive reference search: per-pair identity evaluation, no pruning.

    Kept deliberately independent of search_rb (plain Fraction arithmetic on
    nested lists) so that agreement between the two is meaningful evidence.
    """
    _require_parameter_free(A)
    _check_budget(A, cfg)
    _, op = A.resolve_op(cfg.op_name)
    c = [[[x.constant_value() for x in vec] for vec in row] for row in op.c]
    theta = cfg.weight
    d = A.dim
    zero = Fraction(0)

    def bilinear(u, v):
        out = [zero] * d
        for p in range(d):
            if u[p]:
                for q in range(d):
                    if v[q]:
                        coeff = u[p] * v[q]
                        for k in range(d):
                            out[k] += coeff * c[p][q][k]
        return out

    results = []
    for combo in itertools.product(cfg.entry_set, repeat=d * d):
        rows = [list(combo[p * d:(p + 1) * d]) for p in range(d)]
        cols = [[rows[p][i] for p in range(d)] for i in range(d)]
        residuals = []
        for i in range(d):
            e_i = [Fraction(1) if p == i else zero for p in range(d)]
            for j in range(d):
                e_j = [Fraction(1) if q == j else zero for q in range(d)]
                lhs = bilinear(cols[i], cols[j])
                inner = bilinear(cols[i], e_j)
                for k, x in enumerate(bilinear(e_i, cols[j])):
                    inner[k] += x
                for k in range(d):
                    inner[k] += theta * c[i][j][k]
                for k in range(d):
                    rhs_k = sum(rows[k][m] * inner[m] for m in range(d))
                    residuals.append(lhs[k] - rhs_k)
        if all(x == 0 for x in residuals):
            results.append(LinearMap(rows, A.params))
            if cfg.limit is not None and len(results) >= cfg.limit:
                break
    results.sort(key=_lex_key)
    return results


def centroid_basis(A: HomAlgebra) -> list[LinearMap]:
    """Exact basis of the centroid of a parameter-free one-operation algebra.

    Solves the homogeneous linear system expressing a(x o y) = a(x) o y and
    a(x o y) = x o a(y) on all basis pairs; the basis ordering follows the
    pivot structure of the reduced system (unknowns a[r][c] flattened
    row-major).
    """
    _require_parameter_free(A)
    d = A.dim
    polys = _expand(("C1", "C2"), 2, {"o": _integer_support(A, None)}, "a", d)
    rows = [{entry: coeff for (entry,), coeff in poly.items()} for poly in polys]
    return [LinearMap([vec[r * d:(r + 1) * d] for r in range(d)], A.params)
            for vec in _nullspace(rows, d * d)]
