import itertools
import random
from fractions import Fraction

import pytest

from homtwist import search
from homtwist.axioms import check_centroid, check_rota_baxter
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
