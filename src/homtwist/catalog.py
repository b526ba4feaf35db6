"""Built-in fixtures: small algebras with exactly pinned structure constants.

Each fixture can be requested symbolically (structure constants polynomial in
its parameters) or at a rational point via a full parameter assignment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .core import BilinearOp, HomAlgebra, LinearMap, Signature, require_dim
from .scalar import Scalar, parse_scalar

__all__ = ["FixtureDescriptor", "catalog_get", "catalog_list"]


@dataclass(frozen=True)
class FixtureDescriptor:
    name: str
    params: tuple[str, ...]
    signature: Signature
    notes: str


def _tensor(dim: int, params: tuple[str, ...], table: Mapping[tuple[int, int], list[str]],
            skew: bool = False) -> BilinearOp:
    """Build structure constants from sparse product rows of expression strings.

    With skew=True, unspecified (j, i) products are filled as the negatives of
    given (i, j) ones and diagonals default to zero.
    """
    zero = Scalar.zero(params)
    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coords in table.items():
        c[i][j] = [parse_scalar(s, params) for s in coords]
    if skew:
        for (i, j), coords in table.items():
            if (j, i) not in table:
                c[j][i] = [-x for x in c[i][j]]
    return BilinearOp(c, params)


def _matrix(params: tuple[str, ...], rows: list[list[str]]) -> LinearMap:
    return LinearMap([[parse_scalar(s, params) for s in row] for row in rows], params)


def _ex_assoc3() -> HomAlgebra:
    params = ("a", "b")
    mul = _tensor(3, params, {
        (0, 0): ["a", "0", "0"],
        (0, 1): ["0", "a", "0"],
        (1, 0): ["0", "a", "0"],
        (0, 2): ["0", "0", "b"],
        (2, 0): ["0", "0", "b"],
        (1, 1): ["0", "a", "0"],
        (1, 2): ["0", "0", "b"],
    })
    alpha = _matrix(params, [["a", "0", "0"], ["0", "a", "0"], ["0", "0", "b"]])
    return HomAlgebra(3, params, Signature.associative(), {"mul": mul}, alpha)


def _ex_homlie3() -> HomAlgebra:
    params = ("a", "b", "c", "d")
    bracket = _tensor(3, params, {
        (0, 1): ["a", "0", "b"],
        (0, 2): ["0", "c", "0"],
        (1, 2): ["d", "0", "2*a"],
    }, skew=True)
    alpha = _matrix(params, [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]])
    return HomAlgebra(3, params, Signature.lie(), {"bracket": bracket}, alpha)


def _jackson_sl2() -> HomAlgebra:
    params = ("q",)
    bracket = _tensor(3, params, {
        (0, 1): ["0", "-2*q", "0"],
        (0, 2): ["0", "0", "2"],
        (1, 2): ["-1/2*(1+q)", "0", "0"],
    }, skew=True)
    alpha = _matrix(params, [["q", "0", "0"], ["0", "q^2", "0"], ["0", "0", "q"]])
    return HomAlgebra(3, params, Signature.lie(), {"bracket": bracket}, alpha)


def _zero_algebra(dim: int) -> HomAlgebra:
    return HomAlgebra(
        dim, (), Signature.plain(("mul",)),
        {"mul": BilinearOp.zero(dim)}, LinearMap.identity(dim),
    )


def _unital_field() -> HomAlgebra:
    mul = BilinearOp([[[1]]])
    return HomAlgebra(1, (), Signature.associative(), {"mul": mul}, LinearMap.identity(1))


# name -> (builder taking the dimension, notes); params and signature are read
# off the built fixture
_FIXTURES: dict[str, tuple] = {
    "ex_assoc3": (lambda dim: _ex_assoc3(),
                  "3-dimensional two-parameter family with twisted associativity; "
                  "not associative when a != b and b != 0"),
    "ex_homlie3": (lambda dim: _ex_homlie3(),
                   "3-dimensional four-parameter bracket with diag(1,2,2) twist; "
                   "fails the untwisted Jacobi identity when a*c != 0"),
    "jackson_sl2": (lambda dim: _jackson_sl2(),
                    "q-deformation of sl2; the classical sl2 is recovered at q = 1"),
    "zero_algebra": (_zero_algebra,
                     "all products zero, identity twist; dimension selectable (default 3)"),
    "unital_field": (lambda dim: _unital_field(),
                     "1-dimensional algebra with e*e = e and identity twist"),
}

DEFAULT_ZERO_ALGEBRA_DIM = 3


def _selected_dim(name: str, dim: int | None) -> int | None:
    """Refuse what catalog_get refuses before a build; the zero algebra's dimension."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; known: {sorted(_FIXTURES)}")
    if name == "zero_algebra":
        dim = DEFAULT_ZERO_ALGEBRA_DIM if dim is None else dim
        if not isinstance(dim, int) or dim < 1:
            raise ValueError("zero_algebra dimension must be a positive integer")
        require_dim(dim)
    elif dim is not None:
        raise ValueError(f"fixture {name!r} has a fixed dimension")
    return dim


def catalog_get(name: str, assignment: Mapping[str, object] | None = None, *,
                dim: int | None = None) -> HomAlgebra:
    """Fetch a fixture, symbolically or fully evaluated at a rational point.

    ``dim`` selects the dimension of ``zero_algebra``, at most ``MAX_DIM``, and
    is rejected for the fixed-dimension fixtures.  A non-None assignment must
    cover every parameter of the fixture.
    """
    dim = _selected_dim(name, dim)
    algebra = _FIXTURES[name][0](dim)
    if assignment is None:
        return algebra
    missing = [p for p in algebra.params if p not in assignment]
    if missing:
        raise ValueError(f"incomplete assignment: missing {missing!r}")
    return algebra.specialize(assignment)


@functools.cache
def _descriptors() -> tuple[FixtureDescriptor, ...]:
    descriptors = []
    for name, (build, notes) in sorted(_FIXTURES.items()):
        algebra = build(DEFAULT_ZERO_ALGEBRA_DIM)
        descriptors.append(FixtureDescriptor(name, algebra.params, algebra.signature, notes))
    return tuple(descriptors)


def catalog_list() -> list[FixtureDescriptor]:
    """Descriptors of every fixture, sorted by name; zero_algebra at its default dimension.

    The fixtures are built on the first call only; each call returns a new list.
    """
    return list(_descriptors())
