import itertools
import random
from fractions import Fraction

import pytest

from homtwist import search
from homtwist.axioms import _expand, check_centroid, check_rota_baxter
from homtwist.catalog import catalog_get
from homtwist.constructions import matrix_algebra
from homtwist.core import BilinearOp, HomAlgebra, LinearMap, Signature
from homtwist.scalar import Scalar
from homtwist.search import (
    BUDGET_ENV_VAR,
    SearchConfig,
    centroid_basis,
    search_budget,
    search_rb,
    search_rb_oracle,
)

from _factories import one_op_algebra


def _entries(m):
    return [x.constant_value() for row in m.entries for x in row]


def _random_plain(rng, dim=2):
    flat = [rng.choice([-1, 0, 1]) for _ in range(dim ** 3)]
    it = iter(flat)
    c = [[[next(it) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return one_op_algebra(dim, c, "plain")


class TestSearchConfig:
    def test_normalization(self):
        cfg = SearchConfig([1, 0, 1, Fraction(-1)], weight=Fraction(1, 2))
        assert cfg.entry_set == (Fraction(-1), Fraction(0), Fraction(1))
        assert cfg.weight == Fraction(1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            SearchConfig([])

    def test_parametric_weight_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig([0, 1], weight=Scalar.variable("q", ["q"]))

    def test_bad_limit(self):
        for limit in (-2, 0):
            with pytest.raises(ValueError, match="limit"):
                SearchConfig([0], limit=limit)

    def test_huge_decimal_exponent_refused(self):
        for grid, weight in ((["1e999999999"], 0), ([0, 1], "1e-999999999")):
            with pytest.raises(ValueError, match="decimal exponent"):
                SearchConfig(grid, weight)


class TestSearchRb:
    def test_one_dim_idempotent_weight_one(self):
        U = catalog_get("unital_field")
        sols = search_rb(U, SearchConfig([-1, 0, 1], weight=1))
        assert [_entries(m) for m in sols] == [[Fraction(-1)], [Fraction(0)]]

    def test_zero_algebra_everything_passes(self):
        Z = catalog_get("zero_algebra", dim=2)
        sols = search_rb(Z, SearchConfig([-1, 0, 1], weight=1))
        assert len(sols) == 81

    def test_lexicographic_order(self):
        Z = catalog_get("zero_algebra", dim=2)
        sols = search_rb(Z, SearchConfig([0, 1], weight=0))
        flats = [tuple(_entries(m)) for m in sols]
        assert flats == sorted(flats)
        assert flats == list(itertools.product([Fraction(0), Fraction(1)], repeat=4))

    def test_limit(self):
        Z = catalog_get("zero_algebra", dim=2)
        sols = search_rb(Z, SearchConfig([-1, 0, 1], weight=0, limit=5))
        assert len(sols) == 5
        full = search_rb(Z, SearchConfig([-1, 0, 1], weight=0))
        assert sols == full[:5]

    def test_every_result_verifies(self):
        A12 = catalog_get("ex_assoc3", {"a": 1, "b": 2})
        theta = Scalar.constant(1)
        for R in search_rb(A12, SearchConfig([-1, 0, 1], weight=1)):
            assert check_rota_baxter(A12, R=R, theta=theta).passed

    def test_dim3_five_point_grid(self):
        # 5^9 candidates: the count here was fixed by a full brute-force scan
        A12 = catalog_get("ex_assoc3", {"a": 1, "b": 2})
        theta = Scalar.constant(1)
        sols = search_rb(A12, SearchConfig([-2, -1, 0, 1, 2], weight=1))
        assert len(sols) == 24
        flats = [tuple(_entries(m)) for m in sols]
        assert flats == sorted(flats)
        for R in sols:
            assert check_rota_baxter(A12, R=R, theta=theta).passed

    def test_parametric_rejected(self):
        with pytest.raises(ValueError, match="parametric"):
            search_rb(catalog_get("ex_assoc3"), SearchConfig([0, 1]))

    def test_budget_rejected(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "10")
        Z = catalog_get("zero_algebra", dim=2)
        with pytest.raises(ValueError, match="budget"):
            search_rb(Z, SearchConfig([-1, 0, 1]))

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "1000000")
        assert search_budget() == 1000000
        monkeypatch.setenv(BUDGET_ENV_VAR, "junk")
        with pytest.raises(ValueError, match="positive integer"):
            search_budget()
        monkeypatch.setenv(BUDGET_ENV_VAR, "-5")
        with pytest.raises(ValueError, match="positive integer"):
            search_budget()

    def test_fractional_grid(self):
        # r(r + theta) = 0 over a grid containing -theta = -1/2
        U = catalog_get("unital_field")
        sols = search_rb(U, SearchConfig([Fraction(-1, 2), 0, Fraction(1, 2)],
                                         weight=Fraction(1, 2)))
        assert [_entries(m) for m in sols] == [[Fraction(-1, 2)], [Fraction(0)]]


class TestOracleAgreement:
    def test_one_dim(self):
        U = catalog_get("unital_field")
        cfg = SearchConfig([-1, 0, 1], weight=1)
        assert search_rb(U, cfg) == search_rb_oracle(U, cfg)

    def test_zero_algebra(self):
        Z = catalog_get("zero_algebra", dim=2)
        cfg = SearchConfig([-1, 0, 1], weight=1)
        assert search_rb(Z, cfg) == search_rb_oracle(Z, cfg)

    def test_randomized_dim2(self):
        rng = random.Random(991)
        for trial in range(5):
            A = _random_plain(rng, 2)
            theta = rng.choice([0, 1, -1])
            cfg = SearchConfig([-1, 0, 1], weight=theta)
            assert search_rb(A, cfg) == search_rb_oracle(A, cfg), f"trial {trial}"

    def test_randomized_engine_matches_oracle(self):
        # fractional structure constants, grids and weights exercise every
        # scale factor; the limits check that the first hits come in lex order
        rng = random.Random(2011)
        coeffs = [0, 0, 0, 0, 0, 1, -1, Fraction(1, 2), 2]
        weights = [0, 1, -1, Fraction(1, 2), 2]
        halves = [Fraction(v, 2) for v in range(-4, 5) if v]
        multi_hit = 0
        for trial in range(45):
            dim = 1 if trial % 3 == 0 else 2
            flat = [rng.choice(coeffs) for _ in range(dim ** 3)]
            it = iter(flat)
            A = one_op_algebra(
                dim, [[[next(it) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)],
                "plain")
            cfg = SearchConfig([0, *rng.sample(halves, 6 if dim == 1 else 3)],
                               weight=weights[trial % 5],
                               limit=[None, 1, 3][trial // 3 % 3])
            found = search_rb(A, cfg)
            assert found == search_rb_oracle(A, cfg), f"trial {trial}: {flat} {cfg}"
            multi_hit += len(found) > 1
        assert multi_hit >= 10

    def test_shared_cells_keep_declared_params(self):
        # a parameter-free algebra over Q that still declares parameters: the
        # hits' shared cells carry them, and equal the oracle's fresh ones
        params = ("p", "q")
        c = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        A = HomAlgebra(2, params, Signature.plain(("mul",)), {"mul": BilinearOp(c, params)},
                       LinearMap.identity(2, params))
        assert A.is_parameter_free()
        cfg = SearchConfig([Fraction(-1, 2), 0, Fraction(1, 3), 1], weight=Fraction(1, 2))
        found = search_rb(A, cfg)
        assert len(found) > 1
        assert found == search_rb_oracle(A, cfg)
        assert {x.params for m in found for row in m.entries for x in row} == {params}

    def test_python_kernel_handles_big_scalars(self):
        # grid entries far beyond machine-word size stay exact in the one engine
        U = catalog_get("unital_field")
        big = 2**40
        cfg = SearchConfig([-big, 0, big], weight=0)
        sols = search_rb(U, cfg)
        assert [_entries(m) for m in sols] == [[Fraction(0)]]


class TestComplementClosure:
    def test_closure_under_complement(self):
        # whenever R is found and -theta*id - R stays on the grid, it is found too
        rng = random.Random(5)
        for theta in (0, 1, -1):
            for _ in range(3):
                A = _random_plain(rng, 2)
                cfg = SearchConfig([-1, 0, 1], weight=theta)
                sols = {tuple(_entries(m)) for m in search_rb(A, cfg)}
                grid = set(cfg.entry_set)
                for flat in sols:
                    # complement entries: -theta on the diagonal minus r
                    complement = (
                        -theta - flat[0], -flat[1], -flat[2], -theta - flat[3],
                    )
                    if all(x in grid for x in complement):
                        assert complement in sols


class TestCentroidBasis:
    def test_zero_algebra_full_space(self):
        Z = catalog_get("zero_algebra", dim=2)
        basis = centroid_basis(Z)
        assert len(basis) == 4
        expected = []
        for r in range(2):
            for s in range(2):
                expected.append(LinearMap([[1 if (i, j) == (r, s) else 0
                                            for j in range(2)] for i in range(2)]))
        assert basis == expected

    def test_one_dim_idempotent(self):
        U = catalog_get("unital_field")
        basis = centroid_basis(U)
        assert len(basis) == 1
        assert basis[0] == LinearMap([[1]])

    def test_all_elements_pass_check(self):
        for A in (catalog_get("ex_assoc3", {"a": 1, "b": 2}),
                  catalog_get("jackson_sl2", {"q": 2}),
                  catalog_get("zero_algebra", dim=3)):
            for m in centroid_basis(A):
                assert check_centroid(m, A).passed

    def test_brute_force_stays_in_span(self):
        # independent integer brute force over the grid finds nothing outside
        # the computed span
        from _factories import centroid_grid_bruteforce, span_membership_tester

        A = catalog_get("ex_assoc3", {"a": 1, "b": 2})
        in_span = span_membership_tester(centroid_basis(A))
        hits = 0
        for flat in centroid_grid_bruteforce(A, (-1, 0, 1, 2)):
            hits += 1
            assert in_span(flat)
        assert hits > 1  # at least the scalar multiples of the identity

    def test_matches_dense_reference(self):
        # the centroid conditions written out densely, solved by the reference
        # elimination
        from _factories import reference_nullspace

        # and random algebras with fractional structure constants, of unknown size
        rng = random.Random(31)
        fractions = [Fraction(n, q) for n in range(-3, 4) for q in (1, 2, 3)]
        pool = []
        for _ in range(60):
            d, density = rng.randint(1, 3), rng.choice([0.1, 0.3, 0.6, 0.9])
            c = [[[rng.choice(fractions) if rng.random() < density else 0 for _ in range(d)]
                  for _ in range(d)] for _ in range(d)]
            pool.append((one_op_algebra(d, c, "plain"), None))
        for A, size in ((matrix_algebra(catalog_get("unital_field"), 3), 1),
                        (catalog_get("ex_assoc3", {"a": 1, "b": 2}), 1),
                        (catalog_get("zero_algebra", dim=3), 9), *pool):
            d = A.dim
            c = [[[x.constant_value() for x in vec] for vec in row] for row in A.op.c]
            rows = []
            for i, j, k in itertools.product(range(d), repeat=3):
                left = [Fraction(0)] * (d * d)
                right = [Fraction(0)] * (d * d)
                for m in range(d):
                    left[k * d + m] += c[i][j][m]
                    right[k * d + m] += c[i][j][m]
                    left[m * d + i] -= c[m][j][k]
                    right[m * d + j] -= c[i][m][k]
                rows += [left, right]
            expected = [LinearMap([vec[r * d:(r + 1) * d] for r in range(d)])
                        for vec in reference_nullspace(rows)]
            assert size is None or len(expected) == size
            assert centroid_basis(A) == expected

    def test_parametric_rejected(self):
        with pytest.raises(ValueError, match="parametric"):
            centroid_basis(catalog_get("ex_assoc3"))

    def test_budget_refused_before_expansion(self, monkeypatch):
        # dim 3: 9 unknowns x 54 equations = 486 over a budget of 485
        monkeypatch.setenv(BUDGET_ENV_VAR, "485")
        monkeypatch.setattr(search, "_expand", lambda *args: pytest.fail("expanded"))
        with pytest.raises(ValueError, match=r"search budget exceeded: 486 system cells "
                                             r"\(9 unknowns x 54 equations\) over a budget of 485"):
            centroid_basis(catalog_get("zero_algebra", dim=3))


def _product_filter(grid, by_depth, limit):
    """The hits of _backtrack's equations by plain enumeration, in index order."""
    n = len(by_depth)
    hits = []
    for digits in itertools.product(range(len(grid)), repeat=n):
        x = [grid[k] for k in digits] + [1]
        if all(sum(coeff * x[a] * x[b] for coeff, a, b in eq) == 0
               for eqs in by_depth for eq in eqs):
            hits.append(digits)
            if len(hits) == limit:
                break
    return hits


class TestBacktrackKernel:
    """``search._backtrack`` against a plain ``itertools.product`` filter over
    the same integer equations; slot n is the constant 1."""

    def test_random_systems(self):
        rng = random.Random(1980)
        values = [0, 1, -1, 2, -2, 3, -5, 2**40, -(3**30)]
        coeffs = [1, -1, 2, -3, 5, 2**35]
        multi_hit = 0
        for trial in range(300):
            n = rng.randint(1, 6)
            grid = rng.sample(values, rng.randint(1, 4 if n < 5 else 3))
            if trial % 2:
                grid.sort()
            planted = [rng.choice(grid) for _ in range(n)] + [1]
            by_depth = [[] for _ in range(n)]
            for _ in range(rng.randint(1, 4)):
                v = rng.randrange(n)
                terms = []
                for _ in range(rng.randint(1, 4)):
                    kind = rng.choice(["linear", "bilinear", "square"])
                    a = rng.randint(0, v)
                    b = {"linear": n, "bilinear": rng.randint(0, v), "square": a}[kind]
                    if rng.random() < 0.5:
                        a, b = b, a
                    terms.append((rng.choice(coeffs), a, b))
                if all(v not in term[1:] for term in terms):
                    terms.append((rng.choice(coeffs), v, n))
                if rng.random() < 0.7:
                    # the planted point is a root
                    value = sum(c * planted[a] * planted[b] for c, a, b in terms)
                    terms.append((-value, n, n))
                by_depth[v].append(terms)
            for limit in (0, 1, 3):
                expected = _product_filter(grid, by_depth, limit)
                assert search._backtrack(grid, by_depth, limit) == expected, (trial, grid, by_depth)
            multi_hit += len(expected) > 1
        assert multi_hit >= 50

    @pytest.mark.parametrize("grid, eq, hits", [
        # 2*x - 6: the root 3 is off the grid, then on it
        ([-1, 0, 1], [(2, 0, 1), (-6, 1, 1)], []),
        ([0, 3], [(2, 0, 1), (-6, 1, 1)], [(1,)]),
        # 2*x - 3: the floor of 3/2 is on the grid, the root is not an integer
        ([1, 2], [(2, 0, 1), (-3, 1, 1)], []),
        # x^2 - x - 2 = (x + 1)(x - 2)
        ([-2, -1, 0, 1, 2], [(1, 0, 0), (-1, 0, 1), (-2, 1, 1)], [(1,), (4,)]),
        # x^2 + 1 has no root
        ([-1, 0, 1], [(1, 0, 0), (1, 1, 1)], []),
    ])
    def test_one_unknown(self, grid, eq, hits):
        assert search._backtrack(grid, [[eq]], 0) == hits

    @pytest.mark.parametrize("constant, hits", [
        # x0*x1 - x1*x0 + x0 + c: x1 drops out; a = x0 + c prunes every x0 but -c
        (-1, [(2, 0), (2, 1), (2, 2)]),
        (0, [(1, 0), (1, 1), (1, 2)]),
        (5, []),
    ])
    def test_deepest_entry_drops_out(self, constant, hits):
        eq = [(1, 0, 1), (-1, 1, 0), (1, 0, 2), (constant, 2, 2)]
        assert search._backtrack([-1, 0, 1], [[], [eq]], 0) == hits

    def test_deepest_entry_drops_out_with_a_zero(self):
        # x1*(x0 - x0): every prefix leaves a = b = c = 0, so nothing is pruned
        eq = [(1, 0, 1), (-1, 1, 0)]
        assert search._backtrack([-1, 0, 1], [[], [eq]], 0) == list(
            itertools.product(range(3), repeat=2))

    def test_quadratic_with_earlier_entries(self):
        # x1^2 - x0*x1 - 2*x0^2 = (x1 - 2*x0)(x1 + x0), with x0 at depth 0
        eq = [(1, 1, 1), (-1, 0, 1), (-2, 0, 0)]
        grid = [-2, -1, 0, 1, 2]
        assert search._backtrack(grid, [[], [eq]], 0) == _product_filter(grid, [[], [eq]], 0)
        assert search._backtrack(grid, [[], [eq]], 0) == [
            (0, 4), (1, 0), (1, 3), (2, 2), (3, 1), (3, 4), (4, 0)]


# (fixture, point, grid, weight) -> hits found by the search before forward
# checking, each a string of grid indices of the entries in row-major order
_HOMLIE3 = ("ex_homlie3", {"a": 2, "b": Fraction(-1, 2), "c": 3, "d": Fraction(1, 3)})
_SL2 = ("jackson_sl2", {"q": 2})
_PINNED_HITS = [
    (*_HOMLIE3, [-1, 0, 1], 0, "111101111 111111111 111121111"),
    (*_HOMLIE3, [-1, 0, 1], 1, "011101110 111111111"),
    (*_HOMLIE3, [Fraction(-3, 2), 0, Fraction(1, 2)], Fraction(-1, 2),
     "111021021 111021111 111111111 211011112 211121112"),
    (*_SL2, [-1, 0, 1], 0,
     "011111111 101111101 101111111 101111121 110110111 110111111 110112111 111110111 "
     "111111101 111111111 111111121 111112111 112110111 112111111 112112111 121111101 "
     "121111111 121111121 211111111"),
    (*_SL2, [-1, 0, 1], 1,
     "001111100 001111110 001111120 010100111 010101111 010102111 011100111 011101110 "
     "011101111 011102111 011111100 011111110 011111120 012100111 012101111 012102111 "
     "021111100 021111110 021111120 101101101 101101111 101101121 110110110 110111110 "
     "110112110 111101101 111101111 111101121 111110110 111111110 111111111 111112110 "
     "112110110 112111110 112112110 121101101 121101111 121101121 211101111 211111110"),
    (*_SL2, [-1, Fraction(-1, 2), 0], Fraction(1, 2),
     "022212222 022222221 102222201 102222211 102222221 112222201 112222211 112222221 "
     "120210222 120211222 120212222 121210222 121211222 121212222 122021221 122210222 "
     "122211222 122212012 122212221 122212222 122222201 122222211 122222221 202212202 "
     "202212212 202212222 212212202 212212212 212212222 220220221 220221221 220222221 "
     "221220221 221221221 221222221 222212202 222212212 222212222 222220221 222221221 "
     "222222221 222222222"),
]


class TestPinnedHits:
    @pytest.mark.parametrize("name, point, grid, weight, hits", _PINNED_HITS,
                             ids=[f"{c[0]}-{c[3]}-{len(c[4].split())}" for c in _PINNED_HITS])
    def test_dim3_lie_hits(self, name, point, grid, weight, hits):
        A = catalog_get(name, point)
        found = search_rb(A, SearchConfig(grid, weight=weight))
        assert [_entries(m) for m in found] == [[grid[int(k)] for k in hit] for hit in hits.split()]
        theta = Scalar.constant(weight)
        for R in found:
            assert check_rota_baxter(A, R=R, theta=theta).passed


def _search_order(A, weight=0):
    data = {"o": search._integer_support(A, None), "theta": weight}
    return search._search_order(_expand(("RB",), 2, data, "R", A.dim), A.dim ** 2)


_DIM3_POINTS = [_HOMLIE3, _SL2, ("ex_assoc3", {"a": 1, "b": 2})]


class TestSearchOrder:
    """``search._search_order``: the order in which ``search_rb`` assigns the
    unknowns, read off the equations' unknowns."""

    def test_is_a_permutation(self):
        rng = random.Random(16)
        algebras = [catalog_get(name, point) for name, point in _DIM3_POINTS]
        algebras += [_random_plain(rng, dim) for dim in (1, 2, 2, 3, 3)]
        for A in algebras:
            for weight in (0, 1):
                assert sorted(_search_order(A, weight)) == list(range(A.dim ** 2))

    def test_identity_without_equations_and_in_dim_one(self):
        rng = random.Random(17)
        algebras = [catalog_get("zero_algebra", dim=d) for d in (1, 2, 3)]
        algebras += [catalog_get("unital_field")] + [_random_plain(rng, 1) for _ in range(4)]
        for A in algebras:
            for weight in (0, 1, -2):
                assert _search_order(A, weight) == list(range(A.dim ** 2))

    @pytest.mark.parametrize("name, point", _DIM3_POINTS, ids=[n for n, _ in _DIM3_POINTS])
    def test_reorders_the_dim3_fixtures(self, name, point):
        A = catalog_get(name, point)
        for weight in (0, 1):
            assert _search_order(A, weight) != list(range(9))

    def test_reordered_search_matches_oracle(self):
        c = [[[0, 0], [-1, 0]], [[1, 0], [-1, Fraction(1, 2)]]]
        A = one_op_algebra(2, c, "plain")
        assert _search_order(A) != list(range(4))
        grid = [-1, Fraction(-1, 2), 0, 1]
        full = search_rb(A, SearchConfig(grid))
        assert len(full) > 3
        for limit in (None, 1, 3):
            cfg = SearchConfig(grid, limit=limit)
            assert search_rb(A, cfg) == search_rb_oracle(A, cfg) == full[:limit]
