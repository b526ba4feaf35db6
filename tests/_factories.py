"""Randomized valid algebras for pipeline tests.

The generators only ever return instances whose defining identities have been
verified exactly: small classical algebras are enumerated over a tiny entry
grid and filtered by the checkers (or by brute-force integer arithmetic for
the dim-2 associative pool), larger ones are assembled as block sums, which
preserve every identity involved.  Rota-Baxter operators and endomorphisms
are discovered with the package's own grid search and filters.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from homtwist.axioms import check_morphism
from homtwist.catalog import catalog_get
from homtwist.core import BilinearOp, HomAlgebra, LinearMap, RotaBaxter, Signature
from homtwist.scalar import Scalar
from homtwist.search import SearchConfig, search_rb

GRID = (Fraction(-1), Fraction(0), Fraction(1))


def one_op_algebra(dim: int, tensor, cls: str = "associative", alpha=None) -> HomAlgebra:
    sig = {
        "associative": Signature.associative(),
        "lie": Signature.lie(),
        "plain": Signature.plain(("mul",)),
    }[cls]
    op = BilinearOp(tensor)
    return HomAlgebra(dim, (), sig, {sig.op_names[0]: op},
                      alpha or LinearMap.identity(dim))


def _tensor_from_flat(dim: int, flat):
    it = iter(flat)
    return [[[next(it) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]


def _is_associative_int(dim: int, c) -> bool:
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for r in range(dim):
                    lhs = sum(c[i][j][m] * c[m][k][r] for m in range(dim))
                    rhs = sum(c[j][k][m] * c[i][m][r] for m in range(dim))
                    if lhs != rhs:
                        return False
    return True


_ASSOC2_POOL: list | None = None


def assoc2_pool() -> list:
    """Every classical associative dim-2 algebra with entries in the grid."""
    global _ASSOC2_POOL
    if _ASSOC2_POOL is None:
        pool = []
        for flat in itertools.product((-1, 0, 1), repeat=8):
            c = _tensor_from_flat(2, flat)
            if _is_associative_int(2, c):
                pool.append(c)
        _ASSOC2_POOL = pool
    return _ASSOC2_POOL


def lie2_pool() -> list:
    """Every skew dim-2 bracket over the grid (all satisfy the Jacobi identity)."""
    pool = []
    for x in (-1, 0, 1):
        for y in (-1, 0, 1):
            pool.append([[[0, 0], [x, y]], [[-x, -y], [0, 0]]])
    return pool


def _block_sum(tensors):
    """Direct sum of structure-constant tensors (all cross products zero)."""
    dims = [len(t) for t in tensors]
    total = sum(dims)
    c = [[[Fraction(0)] * total for _ in range(total)] for _ in range(total)]
    offset = 0
    for t, d in zip(tensors, dims):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    c[offset + i][offset + j][offset + k] = Fraction(t[i][j][k])
        offset += d
    return c


def _permuted(c, perm):
    d = len(c)
    out = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[perm[i]][perm[j]][perm[k]] = Fraction(c[i][j][k])
    return out


def random_classical(rng: random.Random, dim: int, cls: str = "associative") -> HomAlgebra:
    """A random classical (identity-twist) algebra of the requested class."""
    if cls == "associative":
        if dim == 1:
            lam = rng.choice([-1, 0, 1, 2])
            return one_op_algebra(1, [[[lam]]])
        if dim == 2:
            return one_op_algebra(2, rng.choice(assoc2_pool()))
        blocks = [rng.choice(assoc2_pool()), [[[rng.choice([-1, 0, 1])]]]]
    elif cls == "lie":
        if dim == 1:
            return one_op_algebra(1, [[[0]]], "lie")
        if dim == 2:
            return one_op_algebra(2, rng.choice(lie2_pool()), "lie")
        blocks = [rng.choice(lie2_pool()), [[[0]]]]
    else:
        raise ValueError(cls)
    perm = list(range(3))
    rng.shuffle(perm)
    return one_op_algebra(3, _permuted(_block_sum(blocks), perm), cls)


def _structural_key(A: HomAlgebra):
    ops = tuple(
        (name, tuple(x.constant_value() for row in A.ops[name].c for vec in row for x in vec))
        for name in A.signature.op_names
    )
    alpha = tuple(x.constant_value() for row in A.alpha.entries for x in row)
    return (A.dim, A.signature.cls, ops, alpha)


_ENDO_CACHE: dict = {}


def endomorphisms(A: HomAlgebra, grid=GRID, invertible: bool | None = None) -> list[LinearMap]:
    """Every multiplicative self-map of A over the grid commuting with its twist."""
    key = (_structural_key(A), tuple(grid), invertible)
    if key in _ENDO_CACHE:
        return _ENDO_CACHE[key]
    d = A.dim
    found = []
    for flat in itertools.product(grid, repeat=d * d):
        m = LinearMap([list(flat[r * d:(r + 1) * d]) for r in range(d)], A.params)
        if not m.commutes_with(A.alpha):
            continue
        if not check_morphism(m, A, A, cap=1).passed:
            continue
        if invertible is not None:
            try:
                m.inverse()
                is_inv = True
            except ValueError:
                is_inv = False
            if is_inv != invertible:
                continue
        found.append(m)
    _ENDO_CACHE[key] = found
    return found


_RB_CACHE: dict = {}


def rb_operators(A: HomAlgebra, theta, grid=GRID) -> list[LinearMap]:
    """Grid Rota-Baxter operators for A's single operation, commuting with the twist."""
    key = (_structural_key(A), Fraction(theta), tuple(grid))
    if key in _RB_CACHE:
        return _RB_CACHE[key]
    cfg = SearchConfig(grid, weight=theta, op_name=A.op_name)
    found = [R for R in search_rb(A, cfg) if R.commutes_with(A.alpha)]
    _RB_CACHE[key] = found
    return found


def attach_rb(A: HomAlgebra, theta, R: LinearMap) -> HomAlgebra:
    return A.with_rb(RotaBaxter(Scalar.constant(theta, A.params), R))


def block_rb_instance(rng: random.Random, theta, cls: str = "associative") -> HomAlgebra:
    """A dim-3 classical instance with a block-diagonal Rota-Baxter operator."""
    if cls == "associative":
        block2 = rng.choice(assoc2_pool())
        lam = rng.choice([-1, 0, 1])
        block1 = [[[lam]]]
    else:
        block2 = rng.choice(lie2_pool())
        block1 = [[[0]]]
    A2 = one_op_algebra(2, block2, cls)
    A1 = one_op_algebra(1, block1, cls)
    rs2 = rb_operators(A2, theta)
    rs1 = rb_operators(A1, theta)
    if not rs2 or not rs1:
        return None
    r2 = rng.choice(rs2).to_fraction_rows()
    r1 = rng.choice(rs1).to_fraction_rows()
    R = LinearMap([
        [r2[0][0], r2[0][1], 0],
        [r2[1][0], r2[1][1], 0],
        [0, 0, r1[0][0]],
    ])
    A = one_op_algebra(3, _block_sum([block2, block1]), cls)
    return attach_rb(A, theta, R)


def rb_instances(rng: random.Random, theta, count: int, cls: str = "associative") -> list[HomAlgebra]:
    """Classical instances of dims 1-3 with verified Rota-Baxter data attached."""
    out = []
    guard = 0
    while len(out) < count and guard < count * 40:
        guard += 1
        dim = rng.choice([1, 2, 2, 3])
        if dim == 3:
            instance = block_rb_instance(rng, theta, cls)
            if instance is not None:
                out.append(instance)
            continue
        A = random_classical(rng, dim, cls)
        options = rb_operators(A, theta)
        if options:
            out.append(attach_rb(A, theta, rng.choice(options)))
    assert len(out) == count, f"could not assemble {count} instances of weight {theta}"
    return out


def twisted_rb_instances(rng: random.Random, theta, count: int, cls: str = "associative") -> list[tuple[HomAlgebra, LinearMap]]:
    """(classical instance with rb, endomorphism commuting with R) pairs."""
    out = []
    guard = 0
    while len(out) < count and guard < count * 60:
        guard += 1
        A = random_classical(rng, rng.choice([1, 2, 2]), cls)
        rs = rb_operators(A, theta)
        if not rs:
            continue
        R = rng.choice(rs)
        maps = [m for m in endomorphisms(A) if m.commutes_with(R)]
        if not maps:
            continue
        out.append((attach_rb(A, theta, R), rng.choice(maps)))
    assert len(out) == count
    return out


def block_rb_twist_triple(rng: random.Random, theta, cls: str = "associative"):
    """A dim-3 block-sum instance with block-diagonal R and endomorphism."""
    if cls == "associative":
        block2 = rng.choice(assoc2_pool())
        block1 = [[[rng.choice([-1, 0, 1])]]]
    else:
        block2 = rng.choice(lie2_pool())
        block1 = [[[0]]]
    A2 = one_op_algebra(2, block2, cls)
    A1 = one_op_algebra(1, block1, cls)
    rs2, rs1 = rb_operators(A2, theta), rb_operators(A1, theta)
    if not rs2 or not rs1:
        return None
    R2, R1 = rng.choice(rs2), rng.choice(rs1)
    m2s = [m for m in endomorphisms(A2) if m.commutes_with(R2)]
    m1s = [m for m in endomorphisms(A1) if m.commutes_with(R1)]
    if not m2s or not m1s:
        return None
    m2 = rng.choice(m2s).to_fraction_rows()
    m1 = rng.choice(m1s).to_fraction_rows()
    r2 = R2.to_fraction_rows()
    r1 = R1.to_fraction_rows()

    def block_diag(b2, b1):
        return LinearMap([
            [b2[0][0], b2[0][1], 0],
            [b2[1][0], b2[1][1], 0],
            [0, 0, b1[0][0]],
        ])

    A = one_op_algebra(3, _block_sum([block2, block1]), cls)
    return attach_rb(A, theta, block_diag(r2, r1)), block_diag(m2, m1)


def rb_twist_triples(rng: random.Random, theta, count: int, cls: str = "associative"):
    """(classical instance with rb, endomorphism commuting with R) pairs, dims 1-3."""
    out = []
    guard = 0
    while len(out) < count and guard < count * 80:
        guard += 1
        if rng.random() < 0.25:
            triple = block_rb_twist_triple(rng, theta, cls)
            if triple is not None:
                out.append(triple)
            continue
        A = random_classical(rng, rng.choice([1, 2, 2]), cls)
        rs = rb_operators(A, theta)
        if not rs:
            continue
        R = rng.choice(rs)
        maps = [m for m in endomorphisms(A) if m.commutes_with(R)]
        if not maps:
            continue
        out.append((attach_rb(A, theta, R), rng.choice(maps)))
    assert len(out) == count, f"could not assemble {count} twist triples"
    return out


def classical_twist_pairs(rng: random.Random, count: int, cls: str = "associative",
                          invertible: bool | None = None):
    """(classical instance, endomorphism) pairs, dims 1-3."""
    out = []
    guard = 0
    while len(out) < count and guard < count * 60:
        guard += 1
        dim = rng.choice([1, 2, 2, 3])
        if dim == 3:
            triple = block_rb_twist_triple(rng, 0, cls)
            if triple is None:
                continue
            instance, alpha = triple
            if invertible:
                try:
                    alpha.inverse()
                except ValueError:
                    continue
            out.append((instance.with_rb(None), alpha))
            continue
        A = random_classical(rng, dim, cls)
        maps = endomorphisms(A, invertible=invertible)
        if not maps:
            continue
        out.append((A, rng.choice(maps)))
    assert len(out) == count
    return out


def centroid_pairs(rng: random.Random, count: int, cls: str = "associative"):
    """(classical instance, nonzero centroid element) pairs."""
    from homtwist.search import centroid_basis

    out = []
    while len(out) < count:
        A = random_classical(rng, rng.choice([1, 2, 2, 3]), cls)
        basis = centroid_basis(A)  # never empty: the identity is centroidal
        combo = LinearMap.zero(A.dim, A.params)
        for m in basis:
            combo = combo + m.scale(Fraction(rng.randint(-2, 2)))
        if all(x.is_zero() for row in combo.entries for x in row):
            combo = basis[0]
        out.append((A, combo))
    return out


_CENTROID_CACHE: dict = {}


def centroid_grid_bruteforce(A: HomAlgebra, grid):
    """Integer brute force for the centroid equalities; the flat entry tuples.

    Independent of centroid_basis: direct per-pair evaluation of
    a(x o y) = a(x) o y = x o a(y) over the raw structure constants.  Cached
    per (structure constants, grid): two tests run the same 4^9 candidates.
    """
    c = [[[x.constant_value() for x in vec] for vec in row] for row in A.op.c]
    d = A.dim
    key = (d, tuple(x for row in c for vec in row for x in vec), tuple(grid))
    if key in _CENTROID_CACHE:
        return _CENTROID_CACHE[key]

    def is_centroidal(m):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    image = sum(c[i][j][t] * m[k][t] for t in range(d))
                    left = sum(m[p][i] * c[p][j][k] for p in range(d))
                    right = sum(m[q][j] * c[i][q][k] for q in range(d))
                    if image != left or image != right:
                        return False
        return True

    found = [flat for flat in itertools.product(grid, repeat=d * d)
             if is_centroidal([list(flat[r * d:(r + 1) * d]) for r in range(d)])]
    _CENTROID_CACHE[key] = found
    return found


def reference_rref(rows):
    """Dense Gauss-Jordan reduced row echelon form; returns (rows, pivot columns).

    The elimination ``homtwist.core.rref`` used before it went sparse, kept as
    an independent reference for it.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reference_nullspace(rows):
    """Nullspace basis of Fraction rows from ``reference_rref``, in the order
    ``homtwist.core.nullspace`` promises: one vector per free column, ascending."""
    ncols = len(rows[0])
    reduced, pivots = reference_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            vec[pcol] = -row[free]
        basis.append(tuple(vec))
    return basis


def span_membership_tester(maps):
    """A predicate deciding membership in the rational span of the given maps."""
    rows = [[x.constant_value() for row in m.entries for x in row] for m in maps]
    reduced, pivots = reference_rref(rows)

    def contains(flat) -> bool:
        vec = [Fraction(x) for x in flat]
        for row, p in zip(reduced, pivots):
            factor = vec[p]
            if factor:
                vec = [a - factor * b for a, b in zip(vec, row)]
        return all(a == 0 for a in vec)

    return contains


def catalog_points(rng: random.Random):
    """All catalog fixtures, parametric ones evaluated at random small rationals."""
    def point(names):
        return {n: Fraction(rng.randint(-3, 3)) for n in names}

    return [
        catalog_get("ex_assoc3", point(["a", "b"])),
        catalog_get("ex_homlie3", point(["a", "b", "c", "d"])),
        catalog_get("jackson_sl2", point(["q"])),
        catalog_get("zero_algebra", dim=rng.choice([1, 2, 3])),
        catalog_get("unital_field"),
    ]
