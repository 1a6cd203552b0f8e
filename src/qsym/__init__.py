"""Exact spectral and diagrammatic calculus for Cayley graphs of finite
abelian groups: cyclotomic scalars, character-basis spectra, a set-partition
diagram algebra with loop-parameter coefficients, exact sparse tensor
functors, and verification suites for the operator identities they satisfy.
"""

from .cyclotomic import Cyclotomic, cyc, euler_phi
from .groups import AbelianGroup, GroupElement, make_group
from .polyq import PolyQ, N_POLY
from .partitions import (
    Partition,
    PartLin,
    antisym2,
    antisymmetrize,
    compose,
    compose_partitions,
    tensor,
    two_point_swap,
)
from .sparse import SparseTensor
from .functors import (
    antisymmetrizer,
    antisym_coisometry,
    evaluate_partlin,
    functor_T,
    functor_T_deformed,
    permanent_via_wedge,
    sign_sigma,
)
from .cayley import (
    CayleyGraph,
    GeneratingSet,
    SpectralDecomposition,
    cartesian_adjacency,
    conjugate_by_fourier,
    eigenvalue,
    family_graph,
    fourier_matrix,
    is_automorphism,
    make_generating_set,
    perm_matrix,
    wreath_rep,
)
from .intertwiners import (
    EigenprojectionBasis,
    brute_hat_intertwiner,
    check_intertwiner,
    HammingOperators,
    hat_block_intertwiner,
    project,
)
from .dsl import eval_text, load_fixture_file
from .lemmas import lemma_suite
from .report import VerificationReport
from .errors import InvalidInputError, ParseError, QsymError, SizeGuardError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
