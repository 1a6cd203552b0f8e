import pytest

import qsym.verify
from qsym.errors import InvalidInputError
from qsym.verify import (
    run_suite,
    six_pairing_combination,
    suite_complete,
    suite_folded,
    suite_fourier_check,
    suite_functoriality,
    suite_hamming,
    suite_wreath,
)


def verdicts(rep):
    return {r.check_id: r.verdict for r in rep.results}


def test_folded_closed_form_verdict_is_computed(monkeypatch):
    # with the one-line form as the direct sum the two forms agree, so the
    # closed-form check passes instead of recording a finding
    monkeypatch.setattr(qsym.verify, "folded_eigenvalue_formula",
                        lambda n, d: n - 4 * ((d + 1) // 2))
    assert verdicts(suite_folded(4, heavy=False))["closed-form"] == "pass"
    assert verdicts(suite_fourier_check("folded", 4))["closed-form"] == "pass"


def test_hamming_suite_records_both_discrepancies():
    rep = suite_hamming(2, 3)
    v = verdicts(rep)
    assert v["zero-products"] == "pass"
    assert v["connecter-split"] == "pass"
    assert v["square-display"] == "finding"
    assert v["cube-display"] == "fail"
    assert not rep.passed


def test_complete_and_small_suites():
    assert suite_complete(5).passed
    assert suite_functoriality(samples=40).passed
    assert suite_wreath(2, 2, samples=5).passed


def test_run_suite_dispatch():
    assert run_suite("complete:3").passed
    with pytest.raises(InvalidInputError):
        run_suite("bogus:1")


def test_six_pairing_combination_shape():
    combo = six_pairing_combination()
    assert (combo.k, combo.l) == (0, 8)
    assert all(p.is_pairing() for p in combo.terms)
