"""Exact spectral and diagrammatic calculus for Cayley graphs of finite
abelian groups: cyclotomic scalars, character-basis spectra, a set-partition
diagram algebra with loop-parameter coefficients, exact sparse tensor
functors, and verification suites for the operator identities they satisfy.

The package namespace holds the names the README and the demos use; the
rest of the API lives in the submodules (``qsym.cayley``, ``qsym.verify``,
...).
"""

from .cyclotomic import Cyclotomic
from .groups import make_group
from .partitions import Partition, PartLin, antisymmetrize, compose, two_point_swap
from .sparse import SparseTensor
from .functors import evaluate_partlin, functor_T
from .cayley import (
    CayleyGraph,
    SpectralDecomposition,
    conjugate_by_fourier,
    family_graph,
    fourier_matrix,
    make_generating_set,
)
from .intertwiners import (
    EigenprojectionBasis,
    HammingOperators,
    brute_hat_intertwiner,
    hat_block_intertwiner,
    project,
)
from .dsl import eval_text
from .lemmas import lemma_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
