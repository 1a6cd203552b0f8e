"""The antisymmetrized two-point calculus: fixture identities and oracles.

The displayed identities of the calculus are shipped as editable fixture
files (see ``qsym/fixtures``), so a disagreement about how a drawn diagram
should be read is a data change, not a code change.  Each fixture identity is
verified formally, in the span of partitions with polynomial coefficients;
the formal difference is then evaluated through the tensor functor with the
loop parameter specialized to concrete sizes (exact, via the kernel
decomposition of blockwise deltas).  That difference is empty whenever the
formal check passes, so the tensor step cannot disagree with it.

One drawn identity (``chain-insert-as-drawn``) does not hold as stated: the
exact expansion carries two extra double-bond diagrams.  The fixture keeps
the stated form as a ``flag`` entry whose exact residual is reported, next to
the corrected identity and the final ring isolation, which do hold.
"""

from __future__ import annotations

from importlib import resources

from .dsl import FixtureCheck, load_fixture_file
from .functors import partlin_evaluates_to_zero
from .report import VerificationReport

FIXTURE_FILES = (
    "basics.pcalc",
    "cycle_extension.pcalc",
    "square_expansion.pcalc",
    "five_cycle_chain.pcalc",
)

ORACLE_SIZES = (8, 9, 10)


def fixture_text(name: str) -> str:
    return resources.files("qsym").joinpath("fixtures", name).read_text()


def load_all_fixtures() -> dict[str, list[FixtureCheck]]:
    return {name: load_fixture_file(fixture_text(name)) for name in FIXTURE_FILES}


def check_identities(report: VerificationReport, checks, prefix: str = "") -> VerificationReport:
    """Add one verdict per fixture identity to ``report``: formal, then
    through the tensor oracle at ``ORACLE_SIZES``.  A ``check`` that fails
    either way fails; a ``flag`` that fails is a finding."""
    for chk in checks:
        diff = chk.lhs - chk.rhs
        formal_ok = diff.is_zero()
        ok = formal_ok and all(partlin_evaluates_to_zero(diff, n) for n in ORACLE_SIZES)
        cid = prefix + chk.name
        if chk.kind == "flag":
            if ok:
                report.add(cid, "flagged identity holds after all", "pass")
            else:
                detail = (
                    f"residual has {len(diff.assign)} partition terms; the "
                    f"corrected identity in the same fixture pins it exactly"
                )
                report.add(cid, "identity as drawn does not hold", "finding", detail)
        elif ok:
            report.add(cid, "formal + tensor oracle", "pass",
                       f"oracle sizes {ORACLE_SIZES}")
        elif formal_ok:
            report.add(cid, "tensor oracle disagrees with formal check",
                       "fail", f"sizes {ORACLE_SIZES}")
        else:
            report.add(cid, "formal identity fails", "fail",
                       f"difference: {diff}")
    return report


def lemma_suite() -> VerificationReport:
    """Run every fixture identity, formally and under the tensor oracle."""
    report = VerificationReport("lemmas")
    for fname, checks in load_all_fixtures().items():
        check_identities(report, checks, f"{fname.removesuffix('.pcalc')}/")
    return report
