import itertools

import numpy as np
import pytest

import qsym.verify
from qsym import partitions
from qsym.errors import InvalidInputError
from qsym.verify import (
    run_suite,
    six_pairing_combination,
    suite_folded,
    suite_fourier_check,
    suite_functoriality,
    suite_hamming,
)

from oracles import block_sizes


def verdicts(rep):
    return {r.check_id: r.verdict for r in rep.results}


def test_folded_closed_form_verdict_is_computed(monkeypatch):
    # with the one-line form as the direct sum the two forms agree, so the
    # closed-form check passes instead of recording a finding
    monkeypatch.setattr(qsym.verify, "folded_eigenvalue_formula",
                        lambda n, d: n - 4 * ((d + 1) // 2))
    assert verdicts(suite_folded(4))["closed-form"] == "pass"
    assert verdicts(suite_fourier_check("folded", 4))["closed-form"] == "pass"


def test_functoriality_suite_checks_the_production_compose(monkeypatch):
    """With ``compose`` dropping its loop factors, T_q T_p = N^loops T_(q
    after p) fails on the suite's pairs."""
    glue_block = partitions._glue_block

    def loops_dropped(*args):
        rows, loops = glue_block(*args)
        return rows, np.zeros_like(loops)

    monkeypatch.setattr(partitions, "_glue_block", loops_dropped)
    assert verdicts(suite_functoriality(20)) == {"compose": "fail"}


def test_hamming_suite_records_both_discrepancies():
    rep = suite_hamming(2, 3)
    v = verdicts(rep)
    assert v["zero-products"] == "pass"
    assert v["connecter-split"] == "pass"
    assert v["square-display"] == "finding"
    assert v["cube-display"] == "fail"
    assert not rep.passed


def test_run_suite_dispatch():
    assert run_suite("complete:3").passed
    with pytest.raises(InvalidInputError):
        run_suite("bogus:1")


def test_six_pairing_combination_shape():
    combo = six_pairing_combination()
    assert (combo.k, combo.l) == (0, 8)
    assert all(block_sizes(p) == [2] * 4 for p in combo.terms)


def _pairable(*index_pairs) -> bool:
    """Whether every index occurs an even number of times."""
    counts = {}
    for p in index_pairs:
        for v in p:
            counts[v] = counts.get(v, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("size", [3, 4, 5])
def test_pairing_rows_match_tuple_loop(size, r):
    # the two-points of the pairing tensor, and fork-style pairs (i, size)
    for pairs in (list(itertools.permutations(range(size), 2)),
                  [(i, j) for i in range(size) for j in range(i + 1, size + 1)]):
        expected = [list(x) for x in itertools.product(range(len(pairs)), repeat=r)
                    if _pairable(*(pairs[i] for i in x))]
        assert qsym.verify._pairing_rows(pairs, r).tolist() == expected
