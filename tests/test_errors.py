"""Bad input that no other test reaches: each row gives an input and the
error, with its exact message, that it raises."""

import pytest

from qsym.cayley import (
    CayleyGraph,
    SpectralDecomposition,
    conjugate_by_fourier,
    coordinate_perm,
    family_graph,
    fourier_matrix,
    make_generating_set,
    perm_matrix,
    wreath_rep,
)
from qsym.cli import main
from qsym.cyclotomic import Cyclotomic, euler_phi
from qsym.dsl import eval_text, load_fixture_file
from qsym.errors import InvalidInputError, ParseError, SizeGuardError
from qsym.functors import antisymmetrizer, evaluate_partlin, functor_T, permanent_via_wedge
from qsym.groups import make_group
from qsym.intertwiners import EigenprojectionBasis, hat_block_intertwiner, project
from qsym.partitions import Partition, PartLin, compose, two_point_swap
from qsym.polyq import N_POLY
from qsym.report import VerificationReport
from qsym.sparse import SparseTensor

from oracles import Cyc

Z3, Z4, Z22 = make_group([3]), make_group([4]), make_group([2, 2])
CROSS, MERGE = PartLin.of(Partition.crossing()), PartLin.of(Partition.merge())
# the square's three eigenspaces, for the eigenvalues 2, 0 and -2
SQUARE = SpectralDecomposition(family_graph("hypercube", 2))
MATRIX = SparseTensor.identity((2,))
# the command line exits 2 and prints one error line
CLI = "exit 2"

ROWS = [
    # cayley
    ("cayley-foreign-generators",
     lambda: CayleyGraph(Z4, make_generating_set(Z3, [[1]])),
     InvalidInputError, "generating set belongs to a different group"),
    ("cayley-conjugate-shape", lambda: conjugate_by_fourier(Z3, MATRIX),
     InvalidInputError, "matrix shape (2, 2) does not match group order 3"),
    ("cayley-coordinate-perm-bijection", lambda: coordinate_perm(Z22, [0, 0]),
     InvalidInputError, "coordinate permutation must be a bijection"),
    ("cayley-coordinate-perm-unequal", lambda: coordinate_perm(make_group([2, 3]), [1, 0]),
     InvalidInputError, "coordinate permutation mixes unequal factors"),
    ("cayley-wreath-no-factor", lambda: wreath_rep([], []),
     InvalidInputError, "wreath representation needs at least one factor"),
    ("cayley-wreath-unequal",
     lambda: wreath_rep([perm_matrix([1, 0]), perm_matrix([0, 2, 1])], [0, 1]),
     InvalidInputError, "all factors must be square matrices of equal size"),
    ("cayley-wreath-w", lambda: wreath_rep([MATRIX, MATRIX], [1, 1]),
     InvalidInputError, "w must be a permutation of 0..n-1"),
    # N * phi(M) eigenvalue coordinates and N * labels * phi(M) numerators,
    # refused although N * |S| and N * labels are under the default cap
    ("cayley-spectrum-phi",
     lambda: SpectralDecomposition(family_graph("circulant:4096,(1;4095)")),
     SizeGuardError, "eigenvalue rows needs 8388608 dense entries, over the cap 1000000 "
     "(raise QSYM_MAX_DENSE to override)"),
    ("cayley-fourier-matrix-phi", lambda: fourier_matrix(make_group([4096]), range(244)),
     SizeGuardError, "Fourier matrix needs 2046820352 dense entries, over the cap 1000000 "
     "(raise QSYM_MAX_DENSE to override)"),
    # cli
    ("cli-block", ["intertwiner", "--family", "hypercube:2", "--block", "1"],
     CLI, "--block needs 'k,l', got '1'"),
    ("cli-project", ["intertwiner", "--family", "hypercube:2", "--block", "1,1",
                     "--project", "W1"],
     CLI, "eigenspace selector must look like V1, got 'W1'"),
    # cyclotomic
    ("cyclotomic-phi-0", lambda: euler_phi(0),
     InvalidInputError, "euler_phi needs m >= 1, got 0"),
    ("cyclotomic-level-0", lambda: Cyclotomic(0, []),
     InvalidInputError, "cyclotomic level must be >= 1, got 0"),
    # the field arithmetic of the test oracle, oracles.Cyc
    ("cyclotomic-lift", lambda: Cyc.zeta(4).lift(6),
     InvalidInputError, "cannot lift level 4 into non-multiple level 6"),
    ("cyclotomic-galois", lambda: Cyc.zeta(4).galois(2),
     InvalidInputError, "galois exponent 2 not coprime to level 4"),
    ("cyclotomic-as-fraction", lambda: Cyclotomic.zeta(3).as_fraction(),
     InvalidInputError, "value of level 3 is not rational"),
    ("cyclotomic-divide-by-zero", lambda: Cyc.zeta(3) / 0,
     ZeroDivisionError, "division by zero"),
    ("cyclotomic-add-string", lambda: Cyc.zeta(3) + "1",
     TypeError, "cannot coerce str to Cyclotomic"),
    # functors
    ("functors-functor-T-0", lambda: functor_T(Partition.cap(), 0),
     InvalidInputError, "functor needs N >= 1, got 0"),
    ("functors-evaluate-0", lambda: evaluate_partlin(CROSS, 0),
     InvalidInputError, "functor needs N >= 1, got 0"),
    ("functors-antisymmetrizer", lambda: antisymmetrizer(-1, 3),
     InvalidInputError, "antisymmetrizer needs k >= 0, n >= 1"),
    ("functors-permanent-square", lambda: permanent_via_wedge([[1, 2], [3]]),
     InvalidInputError, "matrix must be square"),
    # groups
    ("groups-element-at", lambda: Z3.element_at(3),
     InvalidInputError, "element index 3 out of range 0..2"),
    ("groups-element-coordinates", lambda: Z22.element([1]),
     InvalidInputError, "element needs 2 coordinates, got 1"),
    # intertwiners
    ("intertwiners-duplicate-labels", lambda: EigenprojectionBasis(Z3, [[1], [1]]),
     InvalidInputError, "duplicate labels in eigenprojection basis"),
    ("intertwiners-from-spectrum", lambda: EigenprojectionBasis.from_spectrum(SQUARE, [3]),
     InvalidInputError, "eigenspace index 3 out of range 0..2"),
    ("intertwiners-hat-block-empty", lambda: hat_block_intertwiner(Z3, 0, 0),
     InvalidInputError, "block intertwiner needs k+l >= 1, got (0,0)"),
    ("intertwiners-project-legs",
     lambda: project(MATRIX, EigenprojectionBasis(Z3, [[0]]), None),
     InvalidInputError, "tensor legs must all have the group order as dimension"),
    ("intertwiners-project-no-input-basis",
     lambda: project(SparseTensor.identity((3,)), EigenprojectionBasis(Z3, [[0]]), None),
     InvalidInputError, "input legs present but no input basis given"),
    # partitions
    ("partitions-assignment-length", lambda: Partition(1, 1, [0]),
     InvalidInputError, "assignment covers 1 points, expected 1+1"),
    ("partitions-empty-block", lambda: Partition.from_blocks(1, 0, [[1], []]),
     InvalidInputError, "empty block"),
    ("partitions-block-0-0", lambda: Partition.block(0, 0),
     InvalidInputError, "block partition needs at least one point"),
    ("partitions-cycle-0", lambda: Partition.cycle(0),
     InvalidInputError, "cycle needs k >= 1"),
    ("partitions-bad-literal", lambda: Partition.parse("P(1){1}"),
     InvalidInputError, "bad partition literal: 'P(1){1}'"),
    ("partitions-label-range", lambda: Partition.from_blocks(1, 1, [[2, "1'"]]),
     InvalidInputError, "point 2 out of range for P(1,1)"),
    # a negative int is no lower point, in a block list or in the text format
    ("partitions-label-negative", lambda: Partition.from_blocks(1, 1, [[1, -1]]),
     InvalidInputError, "point -1 out of range for P(1,1)"),
    ("partitions-label-type", lambda: Partition.from_blocks(1, 1, [[1, 1.0]]),
     InvalidInputError, "bad point label 1.0"),
    ("partitions-term-shape", lambda: PartLin(2, 2, {Partition.cap(): 1}),
     InvalidInputError, "term P(2,0){1 2} has shape (2,0), expected (2,2)"),
    ("partitions-add-shapes", lambda: CROSS + MERGE,
     InvalidInputError, "shape mismatch: (2,2) vs (2,1)"),
    ("partitions-compose-arity", lambda: compose(MERGE, MERGE),
     InvalidInputError, "arity mismatch: cannot compose shapes (2,1) after (2,1)"),
    ("partitions-swap-odd-lower", lambda: two_point_swap(MERGE, 1),
     InvalidInputError, "lower row is not two-point structured"),
    ("partitions-swap-odd-upper", lambda: two_point_swap(MERGE.adjoint(), 1, "upper"),
     InvalidInputError, "upper row is not two-point structured"),
    ("partitions-swap-position", lambda: two_point_swap(CROSS, 1),
     InvalidInputError, "two-point position 1 out of range 1..0"),
    ("partitions-swap-row", lambda: two_point_swap(CROSS, 1, "middle"),
     InvalidInputError, "unknown row 'middle'"),
    # polyq
    ("polyq-negative-power", lambda: N_POLY ** -1,
     InvalidInputError, "negative polynomial power"),
    # report
    ("report-verdict", lambda: VerificationReport("s").add("c", "subject", "maybe"),
     ValueError, "bad verdict 'maybe'"),
    # sparse
    ("sparse-out-axes", lambda: SparseTensor((2,), 2),
     InvalidInputError, "out_axes 2 out of range for (2,)"),
    ("sparse-add-shapes", lambda: MATRIX + SparseTensor.identity((3,)),
     InvalidInputError, "shape mismatch: (2, 2)/1 vs (3, 3)/1"),
    ("sparse-compose-shapes", lambda: MATRIX @ SparseTensor.identity((3,)),
     InvalidInputError, "cannot compose: input shape (2,) vs output shape (3,)"),
    # the entries view of a one-leg tensor as the matrix
    ("sparse-leg-transform",
     lambda: MATRIX.transform_in_leg(0, SparseTensor((2,), 0, {(0,): 1}).entries, 2),
     InvalidInputError, "a leg transform needs a two-index matrix"),
    ("sparse-leg-matrix-key", lambda: MATRIX.transform_in_leg(0, {(0,): 1}, 2),
     InvalidInputError, "a leg transform needs a two-index matrix"),
    ("sparse-trace", lambda: SparseTensor((2, 3), 1).trace(),
     InvalidInputError, "trace needs matching input/output shapes"),
    ("sparse-hash", lambda: hash(MATRIX),
     TypeError, "SparseTensor is not hashable"),
    # dsl
    ("dsl-let-name", lambda: load_fixture_file("let 2a = cap"),
     ParseError, "bad let name '2a' (line 1, column 1)"),
    ("dsl-negative-label", lambda: eval_text("P(1,1){1 -1}"),
     ParseError, "point -1 out of range for P(1,1) (line 1, column 1)"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_bad_input_raises_its_error(capsys, call, error, message):
    if error == CLI:
        assert main(call) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message
    assert type(e.value) is error
