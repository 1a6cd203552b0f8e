"""Write the benchmark's pins from the program as it stands.

    python3 perfbench/pin.py [ITEM ...]

Runs every timed and full-size item (or only the named ones) once with the
suites' default seeds and stores each output's canonical JSON in
``pins/<item>.json``; without names it also stores the output of
``qsym verify all --json`` in ``pins/verify-all.json``.  Pins
define correct output, so rewrite them only when a change to qsym is meant
to change what it reports.  Takes several minutes.
"""

from __future__ import annotations

import os
import subprocess
import sys

from run import SRC, load_qsym
import workloads


def main(names) -> int:
    q = load_qsym()
    inputs = workloads.build_inputs(q)
    workloads.PINS.mkdir(exist_ok=True)
    items = {item.name: item for table in (workloads.TIMED, workloads.FULL)
             for group in table.values() for item in group}
    for name, item in items.items():
        if names and name not in names:
            continue
        text = workloads.canonical(item.call(q, inputs, {}))
        (workloads.PINS / f"{name}.json").write_text(text + "\n")
        print(f"pinned {name}", file=sys.stderr)
    if names:
        return 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "qsym.cli", "verify", "all", "--json"],
        env=env, capture_output=True, text=True, check=False,
    )
    (workloads.PINS / "verify-all.json").write_text(done.stdout)
    print(f"pinned verify-all (exit {done.returncode})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
