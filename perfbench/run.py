"""qsym benchmark runner.

    python3 perfbench/run.py --workload certify|fourier|calculus \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --full [--seed N]

A timed run repeats its workload's items for ``--seconds`` seconds in this
single-threaded process, checks every output against its pin, and prints
one JSON line as the last line of stdout.  With ``--trace 0`` it reports the
end-to-end metrics: ``wall_s`` and ``cpu_s`` (median over passes of the time
spent inside the item calls), ``setup_s`` (median of 15 fresh processes
importing qsym and building the inputs) and ``peak_rss_mib``.  The three
times are scaled to a reference CPU speed (see ``speed.py``); the raw pass
times go to stderr.  With
``--trace 1`` it spends half the time on untraced passes, then makes one
pass with every layer wrapped (see ``tracer.py``) and reports the per-layer
metrics, with the traced pass scaled by the reference kernel timed just
before and after it; the spans go to ``perfbench/out/``.

``--full`` runs the full-size calls once, which between the three workloads
cover every sub-suite of ``qsym verify all``, and exits 1 if any differs
from its pin.  Progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (benchmark modules next to this file)
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, install  # noqa: E402

SETUP_PROBES = 15
# Set-up (reading modules, loading numpy's extensions) slows down less than
# the interpreter when the host is busy: over 40 probes on a 2-vCPU Xeon its
# time grew as the reference kernel's to the power 0.81.
SETUP_SLOWDOWN = 0.8
REF_SAMPLES = 5


def load_qsym():
    """Import qsym from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qsym" / "__init__.py").is_file():
        raise SystemExit(f"error: no qsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsym

    if Path(qsym.__file__).resolve().parent != SRC / "qsym":
        raise SystemExit(f"error: imported qsym from {qsym.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"qsym.{m}") for m in LAYERS})


def run_pass(items, q, inputs, seed_kw, meter=None):
    """Call each item once; return ({item: (wall s, cpu s, raw wall s)},
    [(item, output, error)]).  With a meter, wall and cpu are at the
    reference speed.  Outputs are checked by the caller, outside the timing."""
    times, outputs = {}, []
    for item in items:
        gc.collect()
        if meter:
            meter.sample()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out, err = item.call(q, inputs, seed_kw), None
        except Exception as exc:  # a raising item counts as failed, the run goes on
            out, err = None, exc
            traceback.print_exc(file=sys.stderr)
        w1, c1 = time.perf_counter(), time.process_time()
        wall, cpu = meter.scaled(w0, w1, c1 - c0) if meter else (w1 - w0, c1 - c0)
        times[item.name] = (wall, cpu, w1 - w0)
        outputs.append((item.name, out, err))
    return times, outputs


def check(gate, outputs):
    for name, out, err in outputs:
        gate.record(name, out, err)


def run_for(seconds, items, q, inputs, seed_kw, gate, meter=None):
    """Repeat checked passes while the next one is expected to end within
    ``seconds``; return each pass's item times."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        times, outputs = run_pass(items, q, inputs, seed_kw, meter)
        check(gate, outputs)
        passes.append(times)
        typical = statistics.median(pass_total(p, 2) for p in passes)
        if time.perf_counter() + typical > deadline:
            return passes


def pass_total(p, which):
    return sum(t[which] for t in p.values())


def setup_seconds(workload: str) -> float:
    """Median over fresh processes of importing qsym and building the
    inputs, at the reference speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def probe_setup(workload: str) -> None:
    with speed.RateMeter() as meter:
        for _ in range(REF_SAMPLES):
            meter.sample()
        t0 = time.perf_counter()
        q = load_qsym()
        workloads.build_inputs(q)
        workloads.Gate.load(item.name for item in workloads.TIMED[workload])
        t1 = time.perf_counter()
        for _ in range(REF_SAMPLES):
            meter.sample()
    inside = sum(sec for sec, start in zip(meter.seconds, meter.starts) if t0 <= start < t1)
    print(repr((t1 - t0 - inside) * speed.factor(meter.seconds) ** SETUP_SLOWDOWN))


def ref_samples():
    return [speed.time_ref_kernel() for _ in range(REF_SAMPLES)]


def end_to_end(passes, workload):
    return {
        "setup_s": (setup_seconds(workload), "s"),
        "wall_s": (statistics.median(pass_total(p, 0) for p in passes), "s"),
        "cpu_s": (statistics.median(pass_total(p, 1) for p in passes), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tr, passes, traced_wall, scale):
    """Per-layer metrics of one traced pass whose times ``scale`` brings to
    the reference speed; ``verify.suite_s.*`` are the median untraced item
    times of the same run, already at the reference speed."""
    calls, c = tr.calls, tr.counts

    def self_of(*prefixes):
        return scale * sum(v for k, v in tr.self_s.items() if k.startswith(prefixes))

    def ratio(num, den):
        return num / den if den else 0.0

    conj = calls["cayley.conjugate_by_fourier"]
    counts = {
        "cyclotomic.new.count": calls["cyclotomic.Cyclotomic.__init__"],
        "cyclotomic.add.count": calls["cyclotomic.Cyclotomic.__add__"],
        "cyclotomic.mul.count": calls["cyclotomic.Cyclotomic.__mul__"],
        "cyclotomic.mul_irrational.count": c["cyclotomic.mul_irrational"],
        "cyclotomic.minform.count": calls["cyclotomic.Cyclotomic.minform"],
        "sparse.new.count": calls["sparse.SparseTensor.__init__"],
        "sparse.new.entries": c["sparse.new.entries"],
        "sparse.compose.products": c["sparse.compose.products"],
        "sparse.eq.entries": c["sparse.eq.entries"],
        "sparse.add.entries_copied": c["sparse.add.entries_copied"],
        "sparse.transform_leg.products": c["sparse.transform_leg.products"],
        "sparse.peak_nnz": tr.peak_nnz,
        "functors.evaluate_partlin.terms": c["functors.evaluate_partlin.terms"],
        "functors.functor_T.entries": c["functors.functor_T.entries"],
        "functors.antisymmetrizer.entries": c["functors.antisymmetrizer.entries"],
        "functors.kernel_oracle.count": calls["functors.partlin_evaluates_to_zero"],
        "intertwiners.project.out_nnz": c["intertwiners.project.out_nnz"],
        "cayley.conjugate.count": conj,
        "groups.char_value.count": (calls["groups.AbelianGroup.char_value"]
                                    + calls["groups.char_value"]),
        "partitions.compose.count": calls["partitions.compose_partitions"],
    }
    ratios = {
        "intertwiners.project.useful_ratio": ratio(
            c["intertwiners.project.out_nnz"], c["intertwiners.project.leg_products"]),
        "cayley.conjugate.int_path_share": ratio(
            c["cayley._conjugate_hadamard_int"], conj),
    }
    times = {f"{layer}.self_s": self_of(layer + ".") for layer in (
        "cyclotomic", "groups", "sparse", "functors", "cayley", "intertwiners",
        "partitions", "polyq", "dsl")}
    times.update({
        "functors.evaluate_partlin.self_s": self_of("functors.evaluate_partlin"),
        "functors.kernel_oracle.self_s": self_of("functors.partlin_evaluates_to_zero"),
        "cayley.conjugate.self_s": self_of("cayley.conjugate_by_fourier"),
        "cayley.spectrum.self_s": self_of("cayley.spectrum", "cayley.SpectralDecomposition."),
        "intertwiners.project.self_s": self_of("intertwiners.project"),
        "intertwiners.brute_hat.self_s": self_of("intertwiners.brute_hat_intertwiner"),
        "intertwiners.closed_hat.self_s": self_of("intertwiners.hat_block_intertwiner"),
        "intertwiners.hamming_ops.self_s": self_of(
            "intertwiners.hamming_R_operators", "intertwiners.HammingOperators."),
        "verify.self_s": self_of("verify.", "lemmas."),
        "trace.overhead_s": (scale * traced_wall
                             - statistics.median(pass_total(p, 0) for p in passes)),
    })
    for items in workloads.TIMED.values():
        for item in items:
            samples = [p[item.name][0] for p in passes if item.name in p]
            times[f"verify.suite_s.{item.name}"] = statistics.median(samples) if samples else 0.0
    return {**{k: (v, "count") for k, v in counts.items()},
            **{k: (v, "ratio") for k, v in ratios.items()},
            **{k: (v, "s") for k, v in times.items()}}


def run_full(workload, q, inputs, seed_kw) -> int:
    items = workloads.FULL[workload]
    gate = workloads.Gate.load(item.name for item in items)
    times, outputs = run_pass(items, q, inputs, seed_kw)
    check(gate, outputs)
    for name, (wall, cpu, _) in times.items():
        print(f"{name}: wall {wall:.3f} s, cpu {cpu:.3f} s", file=sys.stderr)
    for line in gate.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"workload": workload, "attempted": gate.attempted,
                      "failed": gate.failed}))
    return 1 if gate.failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TIMED))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_probe:
        probe_setup(args.workload)
        return 0
    q = load_qsym()
    inputs = workloads.build_inputs(q)
    seed_kw = workloads.seed_kwargs(args.seed)
    if args.full:
        return run_full(args.workload, q, inputs, seed_kw)

    items = workloads.TIMED[args.workload]
    gate = workloads.Gate.load(item.name for item in items)
    if args.trace:
        with speed.RateMeter() as meter:
            passes = run_for(args.seconds / 2, items, q, inputs, seed_kw, gate, meter)
        tr = Tracer()
        refs = ref_samples()
        uninstall = install(tr)
        try:
            traced, outputs = run_pass(items, q, inputs, seed_kw)
        finally:
            uninstall()
        refs += ref_samples()
        check(gate, outputs)
        metrics = per_layer(tr, passes, pass_total(traced, 0), speed.factor(refs))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tr.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        with speed.RateMeter() as meter:
            passes = run_for(args.seconds, items, q, inputs, seed_kw, gate, meter)
        metrics = end_to_end(passes, args.workload)

    raw = sorted(round(pass_total(p, 2), 3) for p in passes)
    print(f"{args.workload}: {len(passes)} untraced passes (raw wall s {raw}), "
          f"{gate.attempted} outputs checked, {gate.failed} failed", file=sys.stderr)
    for line in gate.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
