"""Exact structure-constant toolkit for twisted algebras.

Represents finite-dimensional algebras with a twisting linear map by exact
rational/polynomial structure constants, verifies their defining identities
with basis-level counterexamples, runs the standard constructions between the
classes (twisting, untwisting, derived algebras, centroid twists, commutator,
dendriform/tridendriform/pre-Lie splittings of Rota-Baxter operators), and
searches finite grids for Rota-Baxter operators with an independent oracle.
"""

from .scalar import ParseError, Scalar, parse_scalar
from .core import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    RotaBaxter,
    Signature,
    nullspace,
)
from .axioms import (
    AxiomReport,
    Witness,
    check_centroid,
    check_class,
    check_hom_associative,
    check_hom_dendriform,
    check_hom_lie,
    check_hom_prelie,
    check_hom_tridendriform,
    check_hom_zinbiel,
    check_morphism,
    check_multiplicative,
    check_rota_baxter,
)
from .constructions import (
    PreconditionError,
    centroid_twist,
    commutator,
    dendriform_prelie,
    dendriform_star,
    derived_algebra,
    diagram_commutes,
    embed_dendriform_as_tridendriform,
    matrix_algebra,
    rb_complement,
    rb_dendriform,
    rb_lie_prelie,
    rb_prelie,
    rb_tridendriform,
    star_derived,
    tridendriform_star,
    untwist,
    yau_twist,
)
from .catalog import FixtureDescriptor, catalog_get, catalog_list
from .search import (
    SearchConfig,
    centroid_basis,
    search_rb,
    search_rb_oracle,
)

__version__ = "0.1.0"
