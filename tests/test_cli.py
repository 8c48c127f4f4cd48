import json

import pytest

from codeplane.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main
from codeplane.codes import read_code_text, params


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_bounds_csv_endpoints_exact(tmp_path):
    assert run(tmp_path, "bounds", "--q", "2", "--grid", "256") == EXIT_OK
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    assert lines[1] == "delta,curve,lo_float,hi_float,precision_bits"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 256
    assert rows[0][0] == "0" and rows[0][2] == "0.5" and rows[0][3] == "0.5"
    assert rows[-1][0] == "1/2" and rows[-1][2] == "0" and rows[-1][3] == "0"


def test_bounds_q4_zero_region(tmp_path):
    assert run(tmp_path, "bounds", "--q", "4", "--grid", "16") == EXIT_OK
    rows = [ln.split(",") for ln in (tmp_path / "bounds.csv").read_text().splitlines()[2:]]
    assert rows[-1][0] == "3/4"
    assert rows[-1][2] == "0" and rows[-1][3] == "0"


def test_invalid_q_is_config_error(tmp_path):
    assert run(tmp_path, "bounds", "--q", "1") == EXIT_CONFIG


def test_enumerate_contains_hamming_point(tmp_path):
    assert run(tmp_path, "enumerate", "--q", "2", "--nmax", "8",
               "--strategy", "exhaustive-linear") == EXIT_OK
    body = (tmp_path / "cloud.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in body[2:]]
    assert any(r[0] == "7" and r[1] == "16" and r[2] == "3" and r[3] == "4/7" and r[4] == "3/7"
               for r in rows)


def test_sample_summary(tmp_path):
    assert run(tmp_path, "sample", "--q", "2", "--n", "16", "--m", "8",
               "--trials", "5", "--seed", "9") == EXIT_OK
    summary = json.loads((tmp_path / "sample_summary.json").read_text())
    assert summary["trials"] == 5
    assert "manifest" in summary
    rows = (tmp_path / "sample.csv").read_text().splitlines()[2:]
    assert len(rows) == 5


def test_oracle_best_and_exists(tmp_path):
    assert run(tmp_path, "oracle", "--q", "2", "--n", "7", "--m", "16", "--linear") == EXIT_OK
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["d"] == 3 and payload["status"] == "exact"
    assert (tmp_path / "witness.gen.txt").exists()

    assert run(tmp_path, "oracle", "--q", "2", "--n", "3", "--m", "2", "--d", "3") == EXIT_OK
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["status"] == "found"
    witness = read_code_text((tmp_path / "witness.code.txt").read_text())
    assert params(witness).triple() == (3, 2, 3)

    # unknown under a tiny budget exits with the budget code
    assert run(tmp_path, "oracle", "--q", "2", "--n", "20", "--m", "1024",
               "--d", "6", "--max-nodes", "10") == EXIT_BUDGET


def test_spoil_roundtrip(tmp_path):
    (tmp_path / "in.txt").write_text("2 3 2\n000\n111\n")
    assert main(["spoil", "--input", str(tmp_path / "in.txt"), "--op", "puncture",
                 "--out", str(tmp_path)]) == EXIT_OK
    spoiled = read_code_text((tmp_path / "spoiled.code.txt").read_text())
    assert params(spoiled).triple() == (2, 2, 2)
    trace = json.loads((tmp_path / "spoil_trace.json").read_text())
    assert trace["trace"]["final"]["d"] == 2


def test_realize_command(tmp_path):
    assert run(tmp_path, "realize", "--q", "2", "--target", "1/8,1/8", "--count", "3") == EXIT_OK
    summary = json.loads((tmp_path / "realize_summary.json").read_text())
    triples = [tuple(o["params"]) for o in summary["outputs"]]
    assert triples == [(8, 2, 1), (16, 4, 2), (24, 8, 3)]
    for out in summary["outputs"]:
        assert out["point"] == ["1/8", "1/8"]
        code = read_code_text((tmp_path / out["files"][0]).read_text())
        assert params(code).triple() == tuple(out["params"])


def test_strip_command_diag(tmp_path):
    assert run(tmp_path, "strip", "--curve", "synthetic:diag", "--N", "4", "--svg") == EXIT_OK
    payload = json.loads((tmp_path / "strip.json").read_text())
    balls = {tuple(b) for b in payload["strip"]["balls"]}
    assert balls == {(i, j) for i in range(4) for j in range(4) if i + j in (2, 3, 4)}
    svg = (tmp_path / "strip.svg").read_text()
    assert svg.splitlines()[1] == "<!-- codeplane-svg-1 -->"


def test_approx_command(tmp_path):
    assert run(tmp_path, "approx", "--curve", "synthetic:diag", "--N", "4") == EXIT_OK
    payload = json.loads((tmp_path / "approx.json").read_text())
    assert [tuple(c) for c in payload["admissible_set"]["exceptional"]] == [(1, 3), (2, 2), (3, 1)]
    rows = (tmp_path / "approx.csv").read_text().splitlines()[2:]
    assert len(rows) == 4


def test_outputs_are_byte_identical_across_runs(tmp_path):
    names = ("cloud.csv", "sample.csv", "sample_summary.json", "strip.json", "strip.svg")

    def run_all():
        assert main(["enumerate", "--q", "2", "--nmax", "6",
                     "--strategy", "greedy,seeded-family", "--seed", "123",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert main(["sample", "--q", "2", "--n", "12", "--m", "16", "--trials", "4",
                     "--seed", "123", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["strip", "--curve", "vg", "--q", "2", "--N", "8", "--svg",
                     "--out", str(tmp_path)]) == EXIT_OK
        return {name: (tmp_path / name).read_bytes() for name in names}

    first = run_all()
    second = run_all()
    for name in names:
        assert first[name] == second[name], name


def test_budget_env_var_sets_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CODEPLANE_MAX_NODES", "777")
    assert run(tmp_path, "strip", "--curve", "synthetic:diag", "--N", "2") == EXIT_OK
    payload = json.loads((tmp_path / "strip.json").read_text())
    assert payload["manifest"]["config"]["max_nodes"] == 777


def test_approx_non_admissible_input_is_internal_error(tmp_path):
    from codeplane.cli import EXIT_INTERNAL

    # a grid-aligned flat segment leaves several exceptional squares in one
    # row: not the domain of a strictly decreasing curve
    flat = "synthetic:0,1/2;1/2,1/2;1,0"
    assert run(tmp_path, "approx", "--curve", flat, "--N", "4") == EXIT_INTERNAL
    assert run(tmp_path, "approx", "--curve", flat, "--N", "4", "--lenient") == EXIT_OK
    payload = json.loads((tmp_path / "approx.json").read_text())
    assert payload["admissible_set"]["admissible"] is False


def test_manifest_echoes_config(tmp_path):
    assert run(tmp_path, "strip", "--curve", "synthetic:diag", "--N", "8", "--seed", "42") == EXIT_OK
    payload = json.loads((tmp_path / "strip.json").read_text())
    manifest = payload["manifest"]
    assert manifest["tool"] == "codeplane"
    assert manifest["config"]["n_grid"] == 8
    assert manifest["config"]["rng_seed"] == 42
    assert manifest["args"]["curve"] == "synthetic:diag"


@pytest.mark.parametrize("argv, env", [
    (("realize", "--target", "1/8"), {}),
    (("realize", "--target", "a,b"), {}),
    (("strip", "--curve", "synthetic:1/2"), {}),
    (("approx", "--curve", "synthetic:a,b;1,0"), {}),
    (("spoil", "--input", "/nonexistent/code.txt", "--op", "lengthen"), {}),
    (("strip",), {"CODEPLANE_MAX_NODES": "abc"}),
    (("strip", "--N", "0"), {}),
    (("approx", "--N", "0"), {}),
])
def test_bad_input_is_config_error_without_traceback(tmp_path, monkeypatch, capsys, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run(tmp_path, *argv) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
