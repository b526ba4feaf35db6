"""Desk-scale discovery: Rota-Baxter operator grids and exact centroids.

``search_rb`` finds every matrix over a finite rational entry grid that
satisfies the Rota-Baxter identity.  Its equations are the ``RB`` row of
``axioms._IDENTITIES``, expanded by ``axioms._expand``, the checks' engine
with R unknown: after clearing denominators, the identity on each basis
triple (i, j, k) is one quadratic equation with integer coefficients in the
d*d entries of R.  The entries are assigned one at a time (depth-first
backtracking), and each equation is solved for its deepest entry as soon as
the entries before it are set (forward checking): only the grid values that
solve every equation at that entry are tried, in ascending order, and a
partial matrix that leaves none is abandoned with its whole subtree.  The
entries are assigned in an order read off the equations, those of the
equations with fewest entries first, so that each equation prunes as shallow
as it can; the hits are then sorted into lexicographic order of the flattened
(row-major) entries.  Under a limit the order is row-major, in which the hits
come out in lexicographic order as they are found.
``search_rb_oracle`` is an independent naive implementation used to
cross-validate the search; it shares nothing with it beyond rational
arithmetic.  ``centroid_basis`` solves the linear conditions of rows ``C1``
and ``C2`` exactly.
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


def _check_budget(d: int, cfg: SearchConfig | None = None):
    """Refuse a search on a d-dimensional algebra that is over the budget: the
    Rota-Baxter search over ``cfg``'s grid, or the centroid when ``cfg`` is
    None.  Only the dimension counts, so this can run before the algebra is
    built."""
    if cfg is not None:
        count, what = len(cfg.entry_set) ** (d * d), "candidates"
    else:
        # d^2 unknowns in 2*d^3 equations (C1 and C2 per basis pair and coordinate)
        count, what = d * d * 2 * d**3, f"system cells ({d * d} unknowns x {2 * d**3} equations)"
    budget = search_budget()
    if count > budget:
        raise ValueError(
            f"search budget exceeded: {count} {what} over a budget of {budget} "
            f"(override with {BUDGET_ENV_VAR})"
        )


def _integer_support(A: HomAlgebra, op_name: str | None):
    """One operation's support, its coefficients times their common denominator."""
    _, op = A.resolve_op(op_name)
    support = [[[(k, x.constant_value()) for k, x in vec] for vec in row] for row in op.support]
    dc = lcm(*(x.denominator for row in support for vec in row for _, x in vec))
    return [[[(k, x.numerator * (dc // x.denominator)) for k, x in vec] for vec in row]
            for row in support]


def _backtrack(grid: list[int], by_depth, limit: int) -> list[tuple[int, ...]]:
    """Depth-first search over the grid, entry by entry in index order.

    ``by_depth[v]`` lists the equations whose deepest entry is v, each a list
    of terms (coeff, a, b) meaning coeff*x[a]*x[b]; slot ``len(by_depth)`` is
    the constant 1.  Each equation is split once by its degree in v, and at
    each node it is evaluated once, as a + b*v + c*v^2 with a, b read off the
    entries already set, and solved for v: if c = 0 and b != 0, only -a/b,
    when the quotient is exact and on the grid; if b = c = 0, the whole grid
    when a = 0 and nothing otherwise; if c != 0, the grid values that solve
    it.  The values every equation at v allows are tried in grid order, so
    with an ascending grid the hits (tuples of grid indices) come out in
    lexicographic order.  A positive limit stops the search after that many
    hits; 0 finds them all.
    """
    n = len(by_depth)
    # each equation as (terms without v, terms linear in v with v left out, c)
    split = []
    for v, eqs in enumerate(by_depth):
        rows = []
        for eq in eqs:
            free, lin, sq = [], [], 0
            for coeff, a, b in eq:
                if a == b == v:
                    sq += coeff
                elif v in (a, b):
                    lin.append((coeff, a + b - v))
                else:
                    free.append((coeff, a, b))
            rows.append((free, lin, sq))
        split.append(rows)
    index = {g: k for k, g in enumerate(grid)}
    everything = range(len(grid))
    x = [0] * n + [1]
    digits = [0] * n
    hits: list[tuple[int, ...]] = []

    def candidates(v):
        # the grid indices that every equation at depth v allows, given x[:v]
        found = everything
        for free, lin, sq in split[v]:
            a = sum([coeff * x[i] * x[j] for coeff, i, j in free])
            b = sum([coeff * x[i] for coeff, i in lin])
            if sq:
                found = [k for k in found if a + (b + sq * grid[k]) * grid[k] == 0]
            elif b:
                q, r = divmod(-a, b)
                k = None if r else index.get(q)
                found = [k] if k is not None and k in found else []
            elif a:
                return ()
            if not found:
                return ()
        return found

    todo = [iter(candidates(0))] + [None] * (n - 1)
    pos = 0
    while pos >= 0:
        k = next(todo[pos], None)
        if k is None:
            pos -= 1
            continue
        digits[pos] = k
        x[pos] = grid[k]
        if pos + 1 < n:
            pos += 1
            todo[pos] = iter(candidates(pos))
        else:
            hits.append(tuple(digits))
            if len(hits) == limit:
                break
    return hits


def _search_order(polys, n: int) -> list[int]:
    """The order in which the search assigns the n unknowns: the equations'
    unknowns, equations with fewest unknowns first (ties in the given order),
    each equation's unseen ones ascending; then the unknowns no equation uses."""
    order = {}
    for used in sorted((sorted({v for mono in poly for v in mono}) for poly in polys), key=len):
        order.update(dict.fromkeys(used))
    order.update(dict.fromkeys(range(n)))
    return list(order)


def _lex_key(m: LinearMap):
    return tuple(x.constant_value() for row in m.entries for x in row)


def search_rb(A: HomAlgebra, cfg: SearchConfig) -> list[LinearMap]:
    """All matrices over the entry grid satisfying the Rota-Baxter identity.

    Deterministic: results come in lexicographic order of flattened entries.
    The entries are assigned in ``_search_order``'s order, or in row-major
    order under a limit, which keeps only the first hits in that order.
    The hits share one (immutable) ``Scalar`` per grid value, over
    ``A.params``.  Raises when the candidate count exceeds the budget or the
    algebra is parametric.
    """
    _require_parameter_free(A)
    _check_budget(A.dim, cfg)
    d = A.dim
    # x = s*R is an integer on the grid and so is s*theta: the RB row in x is
    # s^2 times the identity, one equation per basis triple, a list of terms
    # coeff*x[a]*x[b]; a linear term's b is d*d, the slot of the constant 1
    s = lcm(cfg.weight.denominator, *(f.denominator for f in cfg.entry_set))
    data = {"o": _integer_support(A, cfg.op_name), "theta": int(cfg.weight * s)}
    n = d * d
    polys = _expand(("RB",), 2, data, "R", d)
    # under a limit, only row-major order finds the first hits without finding them all
    order = list(range(n)) if cfg.limit else _search_order(polys, n)
    depth = [0] * n
    for k, v in enumerate(order):
        depth[v] = k
    by_depth = [[] for _ in range(n)]
    for poly in polys:
        by_depth[max(depth[v] for mono in poly for v in mono)].append(
            [(coeff, depth[mono[0]], depth[mono[1]] if len(mono) == 2 else n)
             for mono, coeff in poly.items()])
    found = _backtrack([int(f * s) for f in cfg.entry_set], by_depth, cfg.limit or 0)
    if order != list(range(n)):
        found = sorted(tuple(digits[depth[p]] for p in range(n)) for digits in found)
    cells = [Scalar.constant(f, A.params) for f in cfg.entry_set]
    return [LinearMap([[cells[x] for x in digits[p * d:(p + 1) * d]] for p in range(d)], A.params)
            for digits in found]


def search_rb_oracle(A: HomAlgebra, cfg: SearchConfig) -> list[LinearMap]:
    """Naive reference search: per-pair identity evaluation, no pruning.

    Kept deliberately independent of search_rb (plain Fraction arithmetic on
    nested lists) so that agreement between the two is meaningful evidence.
    """
    _require_parameter_free(A)
    _check_budget(A.dim, cfg)
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
    _check_budget(A.dim)
    d = A.dim
    polys = _expand(("C1", "C2"), 2, {"o": _integer_support(A, None)}, "a", d)
    rows = [{entry: coeff for (entry,), coeff in poly.items()} for poly in polys]
    return [LinearMap([vec[r * d:(r + 1) * d] for r in range(d)], A.params)
            for vec in _nullspace(rows, d * d)]
