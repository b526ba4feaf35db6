"""Desk-scale discovery: Rota-Baxter operator grids and exact centroids.

``search_rb`` finds every matrix over a finite rational entry grid that
satisfies the Rota-Baxter identity.  After clearing denominators, the identity
on each basis triple (i, j, k) is one quadratic equation with integer
coefficients in the d*d entries of R.  The entries are assigned one at a time
in row-major order, each over the grid in ascending order, and an equation is
checked as soon as its last entry is set, so a partial matrix that already
breaks one is abandoned with its whole subtree (depth-first backtracking).
Hits therefore come out in lexicographic order of the flattened entries.
``search_rb_oracle`` is an independent naive implementation used to
cross-validate the search; it shares nothing with it beyond rational
arithmetic.  ``centroid_basis`` solves the linear centroid conditions exactly.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import lcm

from .core import HomAlgebra, LinearMap, nullspace
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


def _fraction_tensor(A: HomAlgebra, op_name: str | None):
    _, op = A.resolve_op(op_name)
    return [[[x.constant_value() for x in vec] for vec in row] for row in op.c]


def _scaled_problem(A: HomAlgebra, cfg: SearchConfig):
    """Clear denominators: integer entry grid, tensor and weight plus their scales."""
    c = _fraction_tensor(A, cfg.op_name)
    de = lcm(*(f.denominator for f in cfg.entry_set))
    dc = lcm(*(x.denominator for row in c for vec in row for x in vec))
    dt = cfg.weight.denominator
    entries_scaled = [int(f * de) for f in cfg.entry_set]
    c_flat = [int(x * dc) for row in c for vec in row for x in vec]
    t_scaled = int(cfg.weight * dt)
    return entries_scaled, c_flat, t_scaled, de, dt


def _equations(d: int, c_flat, t: int, de: int, dt: int) -> list[list[list[tuple[int, int, int]]]]:
    """The scaled identity as sparse integer equations, grouped by check depth.

    Basis triple (i, j, k) gives dt*(lhs - rhs_main) - de*t*rhs_theta = 0 in
    the scaled entries x[p*d + i] = de*R[p][i]; c_flat is the scaled structure
    tensor flattened as c[(p*d + q)*d + k].  Each equation is a list of terms
    (coeff, a, b) meaning coeff*x[a]*x[b] with a <= b; slot d*d holds the
    constant 1, so the linear weight terms are (coeff, a, d*d).  Equal
    monomials are merged and zero coefficients dropped; an equation with no
    terms left holds everywhere and is dropped.  Entry ``depth`` of the result
    lists the equations whose highest entry index is ``depth``.
    """
    one = d * d
    by_depth = [[] for _ in range(one)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                terms: dict[tuple[int, int], int] = {}

                def add(coeff, a, b):
                    key = (a, b) if a <= b else (b, a)
                    terms[key] = terms.get(key, 0) + coeff

                for p in range(d):
                    for q in range(d):
                        add(dt * c_flat[(p * d + q) * d + k], p * d + i, q * d + j)
                for m in range(d):
                    for p in range(d):
                        add(-dt * c_flat[(p * d + j) * d + m], k * d + m, p * d + i)
                        add(-dt * c_flat[(i * d + p) * d + m], k * d + m, p * d + j)
                    add(-de * t * c_flat[(i * d + j) * d + m], k * d + m, one)
                eq = [(coeff, a, b) for (a, b), coeff in terms.items() if coeff]
                if eq:
                    depth = max(a if b == one else b for _, a, b in eq)
                    by_depth[depth].append(eq)
    return by_depth


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


def _digits_to_map(A: HomAlgebra, cfg: SearchConfig, digits) -> LinearMap:
    d = A.dim
    rows = [
        [cfg.entry_set[digits[p * d + i]] for i in range(d)]
        for p in range(d)
    ]
    return LinearMap(rows, A.params)


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
    entries_scaled, c_flat, t_scaled, de, dt = _scaled_problem(A, cfg)
    by_depth = _equations(A.dim, c_flat, t_scaled, de, dt)
    found = _backtrack(entries_scaled, by_depth, cfg.limit or 0)
    return [_digits_to_map(A, cfg, digits) for digits in found]


def search_rb_oracle(A: HomAlgebra, cfg: SearchConfig) -> list[LinearMap]:
    """Naive reference search: per-pair identity evaluation, no pruning.

    Kept deliberately independent of search_rb (plain Fraction arithmetic on
    nested lists) so that agreement between the two is meaningful evidence.
    """
    _require_parameter_free(A)
    _check_budget(A, cfg)
    c = _fraction_tensor(A, cfg.op_name)
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
    c = _fraction_tensor(A, None)
    d = A.dim
    n2 = d * d
    # the nonzero constants c[p][j][k] over p, and c[i][q][k] over q
    left = [[[(p, c[p][j][k]) for p in range(d) if c[p][j][k]] for k in range(d)]
            for j in range(d)]
    right = [[[(q, c[i][q][k]) for q in range(d) if c[i][q][k]] for k in range(d)]
             for i in range(d)]
    rows = []
    for i in range(d):
        for j in range(d):
            image = [(m, x) for m, x in enumerate(c[i][j]) if x]
            for k in range(d):
                row1 = [0] * n2
                row2 = [0] * n2
                for m, x in image:
                    row1[k * d + m] += x
                    row2[k * d + m] += x
                for p, x in left[j][k]:
                    row1[p * d + i] -= x
                for q, x in right[i][k]:
                    row2[q * d + j] -= x
                rows.append(row1)
                rows.append(row2)
    basis = nullspace(rows)
    return [
        LinearMap([[vec[r * d + s] for s in range(d)] for r in range(d)], A.params)
        for vec in basis
    ]
