import json

import pytest

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


def test_partition_eval_parse_error(capsys):
    code, _, err = run_cli(capsys, "partition", "eval", "cap * cap")
    assert code == 2


def test_partition_check_file(tmp_path, capsys):
    f = tmp_path / "own.pcalc"
    f.write_text("check triv: cap == cap\n")
    code, out, _ = run_cli(capsys, "partition", "check", str(f))
    assert code == 0 and "triv: ok" in out
    f.write_text("check bad: cap == adj(cup)\n")
    code, out, _ = run_cli(capsys, "partition", "check", str(f))
    # cap == adj(cup) actually holds; use a genuinely false identity
    f.write_text("check bad: cap == scale(poly(2), cap)\n")
    code, out, _ = run_cli(capsys, "partition", "check", str(f))
    assert code == 1 and "FAILED" in out


def test_partition_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "partition", "check", "/nonexistent.pcalc")
    assert code == 2


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


def test_size_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("QSYM_MAX_N", "4")
    code, _, err = run_cli(capsys, "spectrum", "--family", "hypercube:3")
    assert code == 2
    assert "QSYM_MAX_N" in err


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_malformed_size_guard_env_exit_code(capsys, monkeypatch, value):
    monkeypatch.setenv("QSYM_MAX_N", value)
    code, _, err = run_cli(capsys, "spectrum", "--family", "hypercube:3")
    assert code == 2
    assert "QSYM_MAX_N must be a non-negative integer" in err


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
    for var in ("QSYM_MAX_N", "QSYM_MAX_DENSE", "QSYM_MAX_SPARSE"):
        assert var in out


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    import qsym.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(qsym.cli, "cmd_verify", broken)
    code, out, err = run_cli(capsys, "verify", "lemmas")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"
