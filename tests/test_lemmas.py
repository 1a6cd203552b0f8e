from fractions import Fraction

from qsym.dsl import load_fixture_file
from qsym.functors import partlin_evaluates_to_zero
from qsym.lemmas import (
    FIXTURE_FILES,
    check_identities,
    fixture_text,
    lemma_suite,
    load_all_fixtures,
)
from qsym.partitions import Partition, PartLin, antisymmetrize
from qsym.report import VerificationReport

from oracles import N_POLY


def test_all_fixture_checks_hold_formally():
    for fname, checks in load_all_fixtures().items():
        for chk in checks:
            if chk.kind == "check":
                assert chk.lhs == chk.rhs, f"{fname}:{chk.name}"


def test_flagged_identity_residual_is_the_two_double_bonds():
    checks = {
        c.name: c for c in load_fixture_file(fixture_text("five_cycle_chain.pcalc"))
    }
    flagged = checks["chain-insert-as-drawn"]
    assert flagged.kind == "flag"
    residual = flagged.lhs - flagged.rhs
    assert not residual.is_zero()
    corr1 = antisymmetrize(
        Partition.parse("P(0,10){1' 9' | 2' 10' | 3' 5' | 4' 7' | 6' 8'}")
    )
    corr2 = antisymmetrize(
        Partition.parse("P(0,10){1' 7' | 2' 9' | 3' 5' | 4' 6' | 8' 10'}")
    )
    assert residual == -(corr1 + corr2)
    # and its failure is not a size accident: nonzero at every oracle size
    for n in (8, 9, 10):
        assert not partlin_evaluates_to_zero(residual, n)


def test_scalar_isolation_coefficient():
    checks = {
        c.name: c for c in load_fixture_file(fixture_text("square_expansion.pcalc"))
    }
    iso = checks["scalar-isolation"]
    # the right-hand side is alpha * chain with alpha = (n-4)(n-6)(n-8);
    # the antisymmetrized chain expands into 16 raw terms of weight +-1/16
    alpha = (N_POLY - 4) * (N_POLY - 6) * (N_POLY - 8)
    assert all(
        c == alpha * Fraction(1, 16) or c == alpha * Fraction(-1, 16)
        for c in iso.rhs.terms.values()
    )
    assert len(iso.rhs.terms) == 16


def test_five_ring_isolation_target():
    checks = {
        c.name: c for c in load_fixture_file(fixture_text("five_cycle_chain.pcalc"))
    }
    final = checks["five-ring-isolation"]
    ring5 = antisymmetrize(PartLin.of(Partition.cycle(5)))
    assert final.rhs == ring5.scale(N_POLY - 4)
    assert final.lhs == final.rhs


def test_lemma_suite_report():
    rep = lemma_suite()
    assert rep.passed
    counts = rep.counts
    assert counts["fail"] == 0
    assert counts["finding"] == 1
    assert counts["pass"] >= 20
    ids = [r.check_id for r in rep.results]
    assert "square_expansion/scalar-isolation" in ids
    assert "five_cycle_chain/five-ring-isolation" in ids


def test_fixture_files_all_present():
    assert set(FIXTURE_FILES) == {
        "basics.pcalc",
        "cycle_extension.pcalc",
        "square_expansion.pcalc",
        "five_cycle_chain.pcalc",
    }


def test_flagged_identity_that_holds_passes():
    checks = load_fixture_file("flag loop: cap * cup == scale(poly(n), P(0,0){})\n"
                               "flag drawn: cap * cup == P(0,0){}")
    rep = check_identities(VerificationReport("f"), checks)
    assert [(r.check_id, r.subject, r.verdict) for r in rep.results] == [
        ("loop", "flagged identity holds after all", "pass"),
        ("drawn", "identity as drawn does not hold", "finding"),
    ]
