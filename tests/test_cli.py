import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsym.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_hypercube(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "hypercube:3")
    assert code == 0
    assert "multiplicity 3" in out and "multiplicity 1" in out


def test_spectrum_json_schema(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "complete:4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == {"orders": [4]}
    assert data["symmetric"] is True
    assert [e["multiplicity"] for e in data["eigenvalues"]] == [1, 3]
    assert data["eigenvalues"][0]["value"]["coeffs"] == ["3"]


def test_spectrum_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "spectrum", "--family", "hamming:2,3", "--json")
    _, out2, _ = run_cli(capsys, "spectrum", "--family", "hamming:2,3", "--json")
    assert out1 == out2


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.filterwarnings("ignore:generating set not closed under negation")
@pytest.mark.parametrize("graph,pin", [
    (["--family", "hypercube:3"], "spectrum-hypercube-3.json"),
    (["--family", "halved:4"], "spectrum-halved-4.json"),
    (["--family", "folded:4"], "spectrum-folded-4.json"),
    (["--family", "hamming:2,3"], "spectrum-hamming-2-3.json"),
    (["--family", "complete:5"], "spectrum-complete-5.json"),
    (["--family", "circulant:5,(1)"], "spectrum-circulant-5-1.json"),
    (["--family", "circulant:8,(1;3)"], "spectrum-circulant-8-1-3.json"),
    (["--orders", "4", "2", "--gens", "1,0;3,0;0,1"], "spectrum-orders-4-2.json"),
])
def test_spectrum_json_matches_its_pin(capsys, graph, pin):
    # eigenvalues, their order and every label list, byte for byte
    code, out, _ = run_cli(capsys, "spectrum", *graph, "--json")
    assert code == 0
    assert out == (DATA / pin).read_text()


@pytest.mark.filterwarnings("ignore:generating set not closed under negation")
@pytest.mark.parametrize("graph,args,pin", [
    (["--family", "hypercube:4"], ["2,2", "V1"], "hypercube-4-b2-2-V1"),
    (["--family", "halved:4"], ["5,0", "V1"], "halved-4-b5-0-V1"),
    (["--family", "hypercube:3"], ["0,3", "V1+V2"], "hypercube-3-b0-3-V1-V2"),
    (["--family", "hypercube:3"], ["1,0", "V1"], "hypercube-3-b1-0-V1"),
    (["--family", "folded:4"], ["1,2", "V1"], "folded-4-b1-2-V1"),
    (["--family", "hamming:2,3"], ["2,2", "V1"], "hamming-2-3-b2-2-V1"),
    (["--family", "hamming:2,3"], ["2,1"], "hamming-2-3-b2-1"),
    (["--family", "circulant:8,(1;7)"], ["2,2", "V1"], "circulant-8-1-7-b2-2-V1"),
    (["--family", "circulant:8,(1;3)"], ["2,1", "V1+V2"], "circulant-8-1-3-b2-1-V1-V2"),
    (["--family", "circulant:5,(1)"], ["1,2", "V0+V1+V2"], "circulant-5-1-b1-2-V0-V1-V2"),
    (["--orders", "4", "2", "--gens", "1,0;3,0;0,1"], ["1,1", "V0+V1"],
     "orders-4-2-b1-1-V0-V1"),
])
def test_intertwiner_json_matches_its_pin(capsys, graph, args, pin):
    # the projected or whole transformed block, byte for byte
    block, *selection = args
    project = ["--project", *selection] if selection else []
    code, out, _ = run_cli(capsys, "intertwiner", *graph, "--block", block, *project)
    assert code == 0
    assert out == (DATA / f"intertwiner-{pin}.json").read_text()


def test_spectrum_explicit_group(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--orders", "2", "2", "--gens", "1,0;0,1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert sum(e["multiplicity"] for e in data["eigenvalues"]) == 4


def test_spectrum_rejects_empty_gens(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--orders", "1", "--gens", "")
    assert code == 2
    assert "error" in err


def test_spectrum_rejects_unknown_family(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--family", "moebius:3")
    assert code == 2


def test_fourier_check_families(capsys):
    for fam in ("hamming:2,3", "hypercube:3"):
        code, out, _ = run_cli(capsys, "fourier-check", "--family", fam)
        assert code == 0, out
        assert "PASS" in out
    code, out, _ = run_cli(capsys, "fourier-check", "--family", "folded:4")
    assert code == 0
    assert "FINDING" in out


def test_intertwiner_identity_block(capsys):
    code, out, _ = run_cli(
        capsys, "intertwiner", "--family", "complete:3", "--block", "1,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == [3, 3]
    assert all(e["idx"][0] == e["idx"][1] for e in data["entries"])


def test_intertwiner_projected(capsys):
    code, out, _ = run_cli(
        capsys,
        "intertwiner", "--family", "hypercube:4", "--block", "2,2",
        "--project", "V1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == [4, 4, 4, 4]
    # 2^n * entries are the paired-indices indicator: values 1/16
    assert {tuple(e["value"]["coeffs"]) for e in data["entries"]} == {("1/16",)}


def test_intertwiner_bad_selection(capsys):
    code, _, err = run_cli(
        capsys,
        "intertwiner", "--family", "hypercube:3", "--block", "2,2",
        "--project", "V9",
    )
    assert code == 2


def test_partition_eval(capsys):
    code, out, _ = run_cli(capsys, "partition", "eval", "compose(cap, cup)")
    assert code == 0
    assert "n * P(0,0){}" in out


def test_partition_eval_at_size(capsys):
    code, out, _ = run_cli(
        capsys, "partition", "eval", "asym(id(2))", "--at", "5"
    )
    assert code == 0
    stats = json.loads(out.splitlines()[-1])
    assert stats["shape"] == [5, 5, 5, 5]
    assert stats["trace"] == "10"  # C(5,2): trace of the exact projection


def test_partition_eval_large_index_space(capsys):
    # 40 legs of size 1000: indices are summed without a flat N**legs code
    code, out, _ = run_cli(capsys, "partition", "eval", "block(20,20)", "--at", "1000")
    assert code == 0
    stats = json.loads(out.splitlines()[-1])
    assert stats["nonzeros"] == 1000 and stats["trace"] == "1000"


def test_partition_eval_parse_error(capsys):
    code, _, err = run_cli(capsys, "partition", "eval", "cap * cap")
    assert code == 2


def test_partition_check_file(tmp_path, capsys):
    f = tmp_path / "own.pcalc"
    f.write_text("check triv: cap == cap\n")
    code, out, _ = run_cli(capsys, "partition", "check", str(f))
    assert code == 0 and "[PASS   ] triv: formal + tensor oracle" in out
    f.write_text("check bad: cap == adj(cup)\n")
    code, out, _ = run_cli(capsys, "partition", "check", str(f))
    # cap == adj(cup) actually holds; use a genuinely false identity
    f.write_text("check bad: cap == scale(poly(2), cap)\n")
    code, out, _ = run_cli(capsys, "partition", "check", str(f))
    assert code == 1 and "[FAIL   ] bad: formal identity fails" in out


def test_partition_check_error_names_its_line(tmp_path, capsys):
    f = tmp_path / "broken.pcalc"
    f.write_text("let a = cap\n\nlet b = a * a\n")
    code, out, err = run_cli(capsys, "partition", "check", str(f))
    assert code == 2 and out == ""
    assert err == ("error: cannot compose: left expects 2 inputs, right produces "
                   "0 outputs (line 3, column 11)\n")


def test_partition_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "partition", "check", "/nonexistent.pcalc")
    assert code == 2
    assert err.startswith("error: cannot read /nonexistent.pcalc: ")


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"check a: cap == cap\n\xff\xfe\n"),
], ids=["directory", "not-utf8"])
def test_partition_check_unreadable_file_is_invalid_input(tmp_path, capsys, make):
    path = tmp_path / "fixture.pcalc"
    make(path)
    code, out, err = run_cli(capsys, "partition", "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemmas")
    assert code == 0
    assert "scalar-isolation" in out
    assert "FINDING" in out  # the as-drawn insert display


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_hypercube_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "hypercube:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert any(r["check"] == "degree-major-display" for r in data["results"])


def test_verify_hamming_reports_failure_exit(capsys):
    # the cube-display check records a genuine discrepancy: exit code 1
    code, out, _ = run_cli(capsys, "verify", "hamming:2,3")
    assert code == 1
    assert "cube-display" in out
    assert "FAIL" in out


@pytest.mark.parametrize("text", [
    "(" * 199 + "cap" + ")" * 199,
    "(" * 10_000 + "cap" + ")" * 10_000,
    " + ".join(["cap"] * 3_000),
    "scale(poly(" + "-" * 3_000 + "1), cap)",
], ids=["parens-199", "parens-10000", "sum-3000", "poly-minus-3000"])
def test_partition_eval_deep_nesting_is_bad_input(capsys, text):
    code, out, err = run_cli(capsys, "partition", "eval", text)
    assert code == 2
    assert "nested deeper than" in err and "(line 1, column" in err


_DIGITS = "7" * 5_000


@pytest.mark.parametrize("text,message", [
    (f"id({_DIGITS})", "integer of 5000 digits is too long (line 1, column 4)"),
    (f"P({_DIGITS},0){{}}", "integer of 5000 digits is too long (line 1, column 1)"),
    (f"scale(poly({_DIGITS}), cap)", "integer of 5000 digits is too long (line 1, column 12)"),
    (f"P(1,1){{1 {_DIGITS}'}}", "bad point label"),
    ("pk(1000000000)", "partition P(0,2000000000) needs"),
    ("id(2000000)", "partition P(2000000,2000000) needs"),
    ("P(1000000000,0){}", "partition P(1000000000,0) needs"),
    ("scale(poly(n^100000), cap)", "polynomial power needs"),
    # a row of 2^18 terms on each side: refused before either is built
    ("asym(id(36))", "partition composition needs at least 2^36 "),
    # 3^10000 and 5^7000 index rows, counts past the int-to-text limit
    (("id(10000)", "--at", "3"), "needs at least 2^15849 stored entries"),
    (("id(7000)", "--at", "5"), "needs at least 2^16253 stored entries"),
], ids=["id-digits", "literal-digits", "poly-digits", "label-digits", "pk-points",
        "id-points", "literal-points", "poly-power", "asym-rows", "eval-3-pow-10000",
        "eval-5-pow-7000"])
def test_partition_eval_oversized_input_is_bad_input(capsys, text, message):
    # each is refused before a point list, a polynomial, a product or an
    # evaluation is built; a row may carry options after its expression
    start = time.perf_counter()
    argv = (text,) if isinstance(text, str) else text
    code, out, err = run_cli(capsys, "partition", "eval", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["scale(poly(" + "7" * 4_000 + " * " + "7" * 4_000 + "), cap)"],
    ["scale(poly(" + "9" * 4_299 + "), id(1))", "--at", "100"],
], ids=["result", "trace"])
def test_partition_eval_unprintable_coefficient_is_bad_input(capsys, argv):
    # past Python's 4,300-digit int-to-text limit: the product coefficient,
    # or the trace 100 * (10^4299 - 1) of a coefficient that still prints
    code, out, err = run_cli(capsys, "partition", "eval", *argv)
    assert code == 2
    assert err.startswith("error: result too long to print: ")


def test_verify_folded_below_two_is_bad_input(capsys):
    # at n = 1 the all-ones generator coincides with epsilon_1
    code, _, err = run_cli(capsys, "verify", "folded:1")
    assert code == 2
    assert "folded" in err


def test_circulant_family_string(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "circulant:8,(1;3;5;7)", "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(e["multiplicity"] for e in data["eigenvalues"]) == 8
    code, _, err = run_cli(capsys, "spectrum", "--family", "circulant:8,135")
    assert code == 2


def test_halved_block_projection_via_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "intertwiner", "--family", "halved:4", "--block", "5,0", "--project", "V1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == [5, 5, 5, 5, 5]
    idxs = {tuple(e["idx"]) for e in data["entries"]}
    import itertools
    assert idxs == set(itertools.permutations(range(5)))
    # entries carry the explicit scale N = 16
    assert {tuple(e["value"]["coeffs"]) for e in data["entries"]} == {("16",)}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "hypercube:x"],
    ["spectrum", "--family", "circulant:6,(1;2;x)"],
    ["fourier-check", "--family", "circulant:1,0"],
    ["spectrum", "--orders", "2", "2", "--gens", "a,0"],
    ["spectrum", "--orders", "2", "2", "--gens", "1.5,0"],
    ["spectrum", "--orders", "2", "2", "--gens", "1,0;0,1,"],
    ["intertwiner", "--family", "complete:3", "--block", "1,1", "--project", "Vx"],
], ids=["hypercube-x", "circulant-shift-x", "circulant-shift-not-a-list", "gens-letter",
        "gens-float", "gens-trailing-comma", "project-letter"])
def test_malformed_family_parameters_are_bad_input(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_fourier_check_circulant_family_string(capsys):
    with pytest.warns(UserWarning, match="directed"):
        code, out, _ = run_cli(capsys, "fourier-check", "--family", "circulant:8,(1;3)")
    assert code == 0, out
    assert "[PASS   ] diagonal" in out and "[PASS   ] matches-spectrum" in out


@pytest.mark.parametrize("family", ["FOLDED:4", " folded:4", "Folded : 4"])
def test_fourier_check_normalises_the_family_name(capsys, family):
    _, expected, _ = run_cli(capsys, "fourier-check", "--family", "folded:4", "--json")
    code, out, _ = run_cli(capsys, "fourier-check", "--family", family, "--json")
    assert code == 0
    assert json.loads(out)["results"] == json.loads(expected)["results"]
    assert json.loads(out)["results"][-1]["verdict"] == "finding"


@pytest.mark.parametrize("at_bound,below", [
    ("hypercube:1", "hypercube:0"),
    ("halved:1", "halved:0"),
    ("folded:2", "folded:1"),
    ("hamming:1,3", "hamming:0,3"),
    ("hamming:2,2", "hamming:2,1"),
    ("complete:2", "complete:1"),
    ("circulant:2,(1)", "circulant:1,(1)"),
])
def test_family_domain_bounds(capsys, at_bound, below):
    code, _, err = run_cli(capsys, "spectrum", "--family", at_bound)
    assert code == 0, err
    code, _, err = run_cli(capsys, "spectrum", "--family", below)
    assert code == 2
    assert err.startswith("error: family ") and ">=" in err


@pytest.mark.parametrize("cap,product", [("1000", "partition tensor product"),
                                         ("2048", "partition composition")])
def test_partition_products_are_size_guarded(capsys, monkeypatch, cap, product):
    # asym(id(20)) tensors 2^10 terms together, then composes 4^10 pairs of
    # terms; each guard fires before its pairs are formed
    monkeypatch.setenv("QSYM_MAX_DENSE", cap)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "partition", "eval", "asym(id(20))")
    assert code == 2
    assert err.startswith(f"error: {product} needs") and "QSYM_MAX_DENSE" in err
    assert time.perf_counter() - start < 5


def test_size_guard_exit_code(capsys, monkeypatch):
    # the generating-set closure of hypercube:3 counts 8 entries per generator, 24 in all
    monkeypatch.setenv("QSYM_MAX_DENSE", "4")
    code, _, err = run_cli(capsys, "spectrum", "--family", "hypercube:3")
    assert code == 2
    assert "QSYM_MAX_DENSE" in err


def test_size_guard_covers_explicit_orders(capsys, monkeypatch):
    # two generators: a closure of 16 * 2 entries on Z_4^2, of 8 * 2 on Z_2 x Z_4
    monkeypatch.setenv("QSYM_MAX_DENSE", "16")
    code, _, err = run_cli(capsys, "spectrum", "--orders", "4", "4", "--gens", "1,0;0,1")
    assert code == 2
    assert "QSYM_MAX_DENSE" in err
    code, _, _ = run_cli(capsys, "spectrum", "--orders", "2", "4", "--gens", "1,0;0,1")
    assert code == 0


@pytest.mark.parametrize("family,count", [
    ("hypercube:40", "1099511627776"),
    ("hypercube:200000", "at least 2^200000"),
])
def test_huge_rank_family_refuses_at_once(capsys, family, count):
    # the group order is one power per distinct order and the closure guard
    # reads it before any element's position: no product of 200,000 factors
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", "--family", family)
    assert code == 2 and out == ""
    assert err == (f"error: generating-set closure needs {count} dense entries, over the "
                   "cap 1000000 (raise QSYM_MAX_DENSE to override)\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_malformed_size_guard_env_exit_code(capsys, monkeypatch, value):
    # the intertwiner reads both caps: the closure's and its sparse count
    for var in ("QSYM_MAX_DENSE", "QSYM_MAX_SPARSE"):
        with monkeypatch.context() as env:
            env.setenv(var, value)
            code, _, err = run_cli(capsys, "intertwiner", "--family", "hypercube:3",
                                   "--block", "1,1")
        assert code == 2
        assert f"{var} must be a non-negative integer" in err


@pytest.mark.parametrize("suite", ["hypercube", "hamming:2", "hypercube:3,4",
                                   "eqthat:3", "halved:x"])
def test_verify_wrong_parameters_exit_code(capsys, suite):
    code, _, err = run_cli(capsys, "verify", suite)
    assert code == 2
    assert err.startswith("error: ")


def test_help_names_every_size_guard(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert set(re.findall(r"QSYM_\w+", out)) == {"QSYM_MAX_DENSE", "QSYM_MAX_SPARSE"}


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    import qsym.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(qsym.cli, "cmd_verify", broken)
    code, out, err = run_cli(capsys, "verify", "lemmas")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


# -- random command lines ------------------------------------------------------

_small = st.integers(-1, 4).map(str)
_params = st.lists(_small, max_size=3).map(",".join)
_families = st.one_of(
    st.tuples(st.sampled_from(["hypercube", "halved", "folded", "hamming",
                               "complete", "circulant", "moebius", ""]), _params)
    .map(":".join),
    st.sampled_from(["circulant:8,(1;3)", "circulant:6,(1;2;x)", "circulant:5,()",
                     "hamming:2", ":", "complete:3:4"]),
)
_suites = st.one_of(
    st.tuples(st.sampled_from(["all", "lemmas", "hypercube", "halved", "folded",
                               "hamming", "complete", "wreath", "eqthat",
                               "functoriality", "eigenspace", "antisym", "moebius"]),
              st.none() | _params)
    .map(lambda t: t[0] if t[1] is None else f"{t[0]}:{t[1]}"),
    st.text(alphabet="ahlz:,-19 ", max_size=8),
)
_leaves = st.sampled_from([
    "cap", "cup", "cross", "sing", "merge", "fork", "id(0)", "id(2)", "pk(1)",
    "pk(2)", "block(1,2)", "block(0,0)", "P(1,1){1 1'}", "P(2,2){1 2' | 2 1'}",
    "P(0,0){}", "P(1,1){1 | 1'}", "P(2,0){1 2}", "x", "n", "2",
])
_exprs = st.recursive(
    _leaves,
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from([" + ", " - ", " * ", " ox ", " == "]), e)
        .map("".join),
        st.tuples(st.sampled_from(["asym", "adj", "rotl", "rotr", ""]), e)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["compose", "tensor"]), e, e)
        .map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        st.tuples(st.sampled_from(["n - 1", "2*n^2", "0", "", "n^"]), e)
        .map(lambda t: f"scale(poly({t[0]}), {t[1]})"),
    ),
    max_leaves=4,
) | st.text(alphabet="P(){}|' ,+-*=^12nacpuox", max_size=24)
_pcalc_lines = st.one_of(
    _exprs.map(lambda e: f"let x = {e}"),
    st.tuples(_exprs, _exprs).map(lambda t: f"check c: {t[0]} == {t[1]}"),
    st.tuples(_exprs, _exprs).map(lambda t: f"flag f: {t[0]} == {t[1]}"),
    _exprs, st.sampled_from(["# note", "", "let n = cap", "check nosep: cap"]),
)
_pcalc = st.lists(_pcalc_lines, max_size=4).map("\n".join)
_json = st.sampled_from([[], ["--json"]])
_argv = st.one_of(
    st.tuples(st.just(["verify"]), _suites.map(lambda s: [s]), _json),
    st.tuples(st.just(["spectrum", "--family"]), _families.map(lambda f: [f]), _json),
    st.tuples(st.just(["spectrum", "--orders"]), st.lists(_small, min_size=1, max_size=3),
              st.sampled_from([[], ["--gens", "1,0;0,1"], ["--gens", "1"], ["--gens", ""],
                               ["--gens", "a,0"], ["--gens", "1.5,0"],
                               ["--gens", "1,0;0,1,"]])),
    st.tuples(st.just(["fourier-check", "--family"]), _families.map(lambda f: [f]), _json),
    st.tuples(st.just(["intertwiner", "--family"]), _families.map(lambda f: [f]),
              st.sampled_from(["1,1", "2,0", "0,2", "2,2", "1", "a,b", "-1,1"])
              .map(lambda b: ["--block", b]),
              st.sampled_from([[], ["--project", "V1"], ["--project", "V0+V1"],
                               ["--project", "x"], ["--project", "Vx"]])),
    st.tuples(st.just(["partition", "eval"]), _exprs.map(lambda e: [e]),
              st.sampled_from([[], ["--at", "-1"], ["--at", "0"], ["--at", "2"],
                               ["--at", "3", "--deformed"]])),
    st.tuples(st.just(["partition", "check"]), st.just([]), st.just([])),
    st.lists(st.sampled_from(["verify", "spectrum", "--json", "--at", "x", "partition"]),
             max_size=3).map(lambda a: (a, [], [])),
)


@given(argv=_argv, pcalc=_pcalc)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_command_lines_keep_the_exit_code_contract(capsys, monkeypatch, tmp_path,
                                                          argv, pcalc):
    monkeypatch.setenv("QSYM_MAX_DENSE", "512")
    monkeypatch.setenv("QSYM_MAX_SPARSE", "512")
    argv = [x for part in argv for x in part]
    if argv[:2] == ["partition", "check"]:
        f = tmp_path / "random.pcalc"
        f.write_text(pcalc)
        argv.append(str(f))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, pcalc, err)
    assert "internal error" not in out + err, (argv, pcalc, err)
