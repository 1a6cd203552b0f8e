"""The benchmark's workloads and its correctness gate.

Each workload is a list of items; an item is one call into the entry points
``qsym verify`` uses (``run_suite`` and the suite functions it dispatches to,
``suite_fourier_check``, ``evaluate_partlin``).  ``TIMED`` holds the sizes a
timed run repeats; ``FULL`` holds the full-size calls, which together cover
every sub-suite of ``qsym verify all`` and run once under ``run.py --full``.

Every item's output is compared with the output the program gave when the
benchmark was defined, stored in ``pins/<item>.json``: a report's JSON, or
the nnz and sha256 of a tensor's JSON.  The two deliberate failures
(``halved-5`` top-block, ``hamming-2-3`` cube-display) are pinned as the
``fail`` verdicts they are.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PINS = Path(__file__).resolve().parent / "pins"

# ``qsym verify all`` runs these suites in this order.
VERIFY_ALL = (
    "hypercube-3", "hypercube-6", "halved-4", "halved-5", "folded-4",
    "hamming-2-3", "complete-4", "eqthat", "functoriality", "wreath-2-3",
    "eigenspace", "antisym", "lemmas",
)


@dataclass(frozen=True)
class Item:
    name: str
    # (qsym modules, inputs, seed keyword arguments) -> report or tensor
    call: Callable


def _suite(spec):
    return lambda q, inputs, seed_kw: q.verify.run_suite(spec)


def _six_pairing(size):
    def call(q, inputs, seed_kw):
        return q.functors.evaluate_partlin(inputs["six_pairing"], size, deformed=True)
    return call


def _items(**calls):
    return tuple(Item(name.replace("_", "-"), call) for name, call in calls.items())


# Seeded suites receive the workload seed; without one they keep their defaults.
TIMED = {
    "certify": _items(
        antisym_5=lambda q, i, s: q.verify.suite_antisymmetrizers(5, **s),
    ),
    "fourier": _items(
        hypercube_3=_suite("hypercube:3"),
        hypercube_6=_suite("hypercube:6"),
        halved_4=_suite("halved:4"),
        hamming_2_3=_suite("hamming:2,3"),
        eigenspace=lambda q, i, s: q.verify.suite_eigenspace_invariance(**s),
        eqthat_8_4=lambda q, i, s: q.verify.suite_eqthat(8, 4),
        fourier_check_hamming_2_6=lambda q, i, s: q.verify.suite_fourier_check(
            "hamming", 2, 6),
    ),
    "calculus": _items(
        lemmas=_suite("lemmas"),
        functoriality_10=lambda q, i, s: q.verify.suite_functoriality(10, **s),
        folded_4=_suite("folded:4"),
        wreath_2_3=lambda q, i, s: q.verify.suite_wreath(2, 3, **s),
        complete_4=_suite("complete:4"),
        six_pairing_4=_six_pairing(4),
    ),
}

# Full-size calls in place of the timed items they enlarge.
_FULL_SIZE = {
    "antisym-5": Item(
        "antisym", lambda q, i, s: q.verify.suite_antisymmetrizers(**s)),
    "eqthat-8-4": Item("eqthat", _suite("eqthat")),
    "fourier-check-hamming-2-6": Item(
        "fourier-check-hamming-2-8",
        lambda q, i, s: q.verify.suite_fourier_check("hamming", 2, 8)),
    "functoriality-10": Item(
        "functoriality", lambda q, i, s: q.verify.suite_functoriality(**s)),
    "six-pairing-4": Item("six-pairing-6", _six_pairing(6)),
}
FULL = {workload: tuple(_FULL_SIZE.get(item.name, item) for item in items)
        for workload, items in TIMED.items()}
FULL["fourier"] += (Item("halved-5", _suite("halved:5")),)


def build_inputs(q) -> dict:
    """Inputs shared by the items, built once per process."""
    return {"six_pairing": q.verify.six_pairing_combination()}


def seed_kwargs(seed: int | None) -> dict:
    return {} if seed is None else {"seed": seed}


def canonical(output) -> str:
    """Deterministic text of an item's output: a report's JSON, or the nnz
    and digest of a tensor's JSON."""
    if hasattr(output, "results"):
        data = output.to_json()
    else:
        blob = json.dumps(output.to_json(), sort_keys=True, separators=(",", ":"))
        data = {"nnz": output.nnz(),
                "sha256": hashlib.sha256(blob.encode()).hexdigest()}
    return json.dumps(data, sort_keys=True)


class Gate:
    """Compares item outputs with their pins and tallies the outcome."""

    def __init__(self, pins: dict[str, str]):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @classmethod
    def load(cls, names, pins_dir: Path = PINS) -> "Gate":
        pins = {}
        for name in names:
            with open(pins_dir / f"{name}.json") as fh:
                pins[name] = json.dumps(json.load(fh), sort_keys=True)
        return cls(pins)

    def record(self, name: str, output=None, error: BaseException | None = None) -> bool:
        """Count one attempted output; False when it raised or differs."""
        self.attempted += 1
        ok = error is None and canonical(output) == self.pins[name]
        if not ok:
            self.failed += 1
            why = f"raised {error!r}" if error is not None else "differs from its pin"
            self.failures.append(f"{name}: {why}")
        return ok
