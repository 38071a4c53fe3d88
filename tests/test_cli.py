"""End-to-end command line behavior: exit codes, JSON stability, reports."""

import json

import pytest

from tropctl.cli import main

import fixtures


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def square(tmp_path):
    return write_json(tmp_path / "square.json", fixtures.square_loop_doc())


@pytest.fixture()
def hv536(tmp_path):
    return write_json(tmp_path / "ex536.json", fixtures.ex536_doc())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys, square):
    code, rep = run_json(capsys, "validate", square, "--format", "json")
    assert code == 0
    assert rep["schema"] == "tropctl-report/1"
    assert rep["command"] == "validate"
    assert rep["valid"] is True
    assert rep["genus"] == 1
    assert rep["trivalent"] is True
    assert len(rep["inputs"]) == 1
    assert rep["inputs"][0]["path"] == square
    assert len(rep["inputs"][0]["sha256"]) == 64


def test_validate_batch_exit_code_and_array(capsys, tmp_path, square):
    bad = fixtures.square_loop_doc()
    bad["edges"][-1]["direction"] = [3, 1, 5]
    bad_path = write_json(tmp_path / "bad.json", bad)
    code, reps = run_json(capsys, "validate", square, bad_path, "--format", "json")
    assert code == 2
    assert isinstance(reps, list) and len(reps) == 2
    assert reps[0]["valid"] is True
    assert reps[1]["error"]["error_type"] == "unbalanced"


def test_validate_glob(capsys, tmp_path):
    write_json(tmp_path / "c2.json", fixtures.square_loop_doc())
    write_json(tmp_path / "c1.json", fixtures.gamma1_doc())
    pattern = str(tmp_path / "c*.json")
    code, reps = run_json(capsys, "validate", pattern, "--glob", "--format", "json")
    assert code == 0
    paths = [r["inputs"][0]["path"] for r in reps]
    assert paths == sorted(paths)


def test_validate_glob_no_match(capsys, tmp_path):
    code, rep = run_json(
        capsys, "validate", str(tmp_path / "nope*.json"), "--glob", "--format", "json"
    )
    assert code == 2
    assert rep["error"]["error_type"] == "no-input"


def test_validate_bad_json_and_missing_file(capsys, tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, rep = run_json(capsys, "validate", str(garbled), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "bad-json"
    code2, rep2 = run_json(
        capsys, "validate", str(tmp_path / "absent.json"), "--format", "json"
    )
    assert code2 == 2
    assert rep2["error"]["error_type"] == "unreadable-input"


def test_info_fields(capsys, square):
    code, rep = run_json(capsys, "info", square, "--format", "json")
    assert code == 0
    assert rep["expectedDim"] == 4
    assert rep["genus"] == 1
    assert rep["e"] == 4
    assert {"vector": [1, 1, 0], "multiplicity": 1} in rep["degree"]


def test_obstruction_chain_square(capsys, square):
    code, rep = run_json(capsys, "obstruction", square, "--format", "json")
    assert code == 0
    assert rep["method"] == "chain"
    assert rep["dimH"] == 1
    assert rep["paramDim"] == 5
    assert rep["superabundant"] is True
    assert len(rep["basis"]) == 1
    assert len(rep["basis"][0]) == len(rep["flags"])


def test_obstruction_json_is_byte_stable(capsys, square):
    _code, out1 = run(capsys, "obstruction", square, "--format", "json")
    _code, out2 = run(capsys, "obstruction", square, "--format", "json")
    assert out1 == out2


def test_obstruction_chain_rejects_higher_valent(capsys, hv536):
    code, rep = run_json(capsys, "obstruction", hv536, "--format", "json")
    assert code == 3
    assert rep["error"]["error_type"] == "not-trivalent"


def test_obstruction_xi_with_config(capsys, tmp_path, hv536):
    cfg = write_json(
        tmp_path / "cfg.json", {"vertices": {"V": {"coords": ["0", "1", "2"]}}}
    )
    code, rep = run_json(
        capsys, "obstruction", hv536, "--method", "xi", "--config", cfg, "--format", "json"
    )
    assert code == 0
    assert rep["dimH"] == 1
    assert "paramDim" not in rep
    assert any("paramDim omitted" in w for w in rep["warnings"])
    assert len(rep["inputs"]) == 2


def test_obstruction_xi_bad_config_rational(capsys, tmp_path, hv536):
    cfg = write_json(
        tmp_path / "cfg.json", {"vertices": {"V": {"coords": ["0", "nan", "2"]}}}
    )
    code, rep = run_json(
        capsys, "obstruction", hv536, "--method", "xi", "--config", cfg, "--format", "json"
    )
    assert code == 2
    assert rep["error"]["error_type"] == "bad-rational"
    assert rep["error"]["context"] == {"vertex": "V"}


def test_obstruction_xi_missing_config(capsys, hv536):
    code, rep = run_json(capsys, "obstruction", hv536, "--method", "xi", "--format", "json")
    assert code == 3
    assert rep["error"]["error_type"] == "missing-config"


def test_obstruction_xi_matches_chain_on_trivalent(capsys, square):
    code, rep = run_json(capsys, "obstruction", square, "--method", "xi", "--format", "json")
    assert code == 0
    assert rep["dimH"] == 1
    assert rep["paramDim"] == 5


def test_classify_square(capsys, square):
    code, rep = run_json(capsys, "classify", square, "--format", "json")
    assert code == 0
    assert rep["dimH"] == 1
    assert rep["expectedDim"] == 4
    assert rep["paramDim"] == 5
    assert rep["superabundantDef1"] is True
    assert rep["superabundantDef2"] is True
    assert rep["agree"] is True
    assert rep["verdict"] == "superabundant"
    assert rep["abundancyRank"] == 2
    assert rep["abundancyTargetDim"] == 3


def test_abundancy_square(capsys, square):
    code, rep = run_json(capsys, "abundancy", square, "--format", "json")
    assert code == 0
    assert rep["rank"] == 2
    assert rep["targetDim"] == 3
    assert rep["surjective"] is False
    assert rep["reducedRank"] == 1
    assert rep["reducedTargetDim"] == 2
    assert rep["reducedSurjective"] is False
    assert rep["cutEdges"] == ["s01"]
    assert rep["agree"] is True
    assert rep["verdict"] == "superabundant"


def laurent_doc_536():
    return {
        "vertices": {
            "V": {"series": [[], [[-3, "1"]], [[-5, "1"]]]}
        }
    }


def test_phylo_ex536(capsys, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", laurent_doc_536())
    code, rep = run_json(capsys, "phylo", hv536, "--laurent", lau, "--format", "json")
    assert code == 0
    v = rep["vertices"]["V"]
    assert v["leaves"] == ["e1_va", "e2_cv", "e3_vp"]
    assert v["clusters"] == [
        ["e1_va", "e2_cv"],
        ["e1_va", "e2_cv", "e3_vp"],
    ]
    assert v["tree"]["depth"] == -5


def test_phylo_unknown_vertex(capsys, tmp_path, square):
    lau = write_json(
        tmp_path / "lau.json", {"vertices": {"nope": {"series": [[], [[-1, "1"]]]}}}
    )
    code, rep = run_json(capsys, "phylo", square, "--laurent", lau, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "unknown-vertex"


def test_phylo_warns_on_missing_data(capsys, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", {"vertices": {}})
    code, rep = run_json(capsys, "phylo", hv536, "--laurent", lau, "--format", "json")
    assert code == 0
    assert any("V" in w for w in rep["warnings"])


def test_local_model_command(capsys, tmp_path):
    model = {
        "ambient_dim": 3,
        "edges": [
            {"label": "E1", "direction": [1, 0, 0]},
            {"label": "E2", "direction": [0, 1, 0]},
            {"label": "E3", "direction": [0, 0, 1]},
            {"label": "E4", "direction": [-1, -1, -1]},
        ],
    }
    path = write_json(tmp_path / "model.json", model)
    code, rep = run_json(capsys, "local-model", "--model", path, "--format", "json")
    assert code == 0
    assert rep["r"] == 2
    assert rep["dimH"] == 4  # r(s-2) + (n-r-1)(s-1) with s = 4, n = 3
    assert rep["infinitySlot"] == "E4"
    assert rep["variables"] == ["E1", "E2", "E3", "E4"]
    assert len(rep["basis"]) == 4


@pytest.mark.parametrize("coord", ["x", 0])
def test_local_model_bad_coord_rational(capsys, tmp_path, coord):
    model = {
        "ambient_dim": 2,
        "edges": [{"direction": [1, 0]}, {"direction": [0, 1]}, {"direction": [-1, -1]}],
        "coords": [coord, "1"],
    }
    path = write_json(tmp_path / "model.json", model)
    code, rep = run_json(capsys, "local-model", "--model", path, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "bad-rational"


def test_local_model_unbalanced(capsys, tmp_path):
    model = {
        "ambient_dim": 2,
        "edges": [
            {"direction": [1, 0]},
            {"direction": [0, 1]},
            {"direction": [-1, 0]},
        ],
    }
    path = write_json(tmp_path / "model.json", model)
    code, rep = run_json(capsys, "local-model", "--model", path, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "unbalanced"


def test_genus1_check(capsys, tmp_path, square):
    code, rep = run_json(capsys, "genus1-check", square, "--format", "json")
    assert code == 0
    assert rep["spans"] is False
    assert rep["guaranteedDimH"] == 1
    assert rep["spanDim"] == 2
    assert rep["verdict"] == "undetermined"
    assert rep["annihilatorBasis"] == [[0, 0, 1]]

    smooth = write_json(tmp_path / "ex534.json", fixtures.ex534_doc())
    code2, rep2 = run_json(capsys, "genus1-check", smooth, "--format", "json")
    assert code2 == 0
    assert rep2["spans"] is True
    assert rep2["guaranteedDimH"] == 0
    assert rep2["verdict"] == "smoothable"


def test_genus1_check_wrong_genus(capsys, tmp_path):
    path = write_json(tmp_path / "g2.json", fixtures.gamma1_doc())
    code, rep = run_json(capsys, "genus1-check", path, "--format", "json")
    assert code == 3
    assert rep["error"]["error_type"] == "not-genus1"


def test_compare_ex536(capsys, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", laurent_doc_536())
    code, rep = run_json(capsys, "compare", hv536, "--laurent", lau, "--format", "json")
    assert code == 0
    assert rep["d"] == 1
    assert rep["d0"] == 2
    assert rep["semicontinuous"] is True
    assert rep["stabilized"] is True
    assert rep["verdict"] == "semicontinuous"
    assert rep["clusters"]["V"] == [
        ["e1_va", "e2_cv"],
        ["e1_va", "e2_cv", "e3_vp"],
    ]


def test_compare_custom_t0(capsys, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", laurent_doc_536())
    code, rep = run_json(
        capsys, "compare", hv536, "--laurent", lau, "--t0", "1/100", "--format", "json"
    )
    assert code == 0
    assert rep["d"] == 1


def test_compare_bad_t0(capsys, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", laurent_doc_536())
    code, rep = run_json(
        capsys, "compare", hv536, "--laurent", lau, "--t0", "2", "--format", "json"
    )
    assert code == 2
    assert rep["error"]["error_type"] == "bad-evaluation-point"


def test_compare_t0_not_a_rational(capsys, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", laurent_doc_536())
    code, rep = run_json(
        capsys, "compare", hv536, "--laurent", lau, "--t0", "x", "--format", "json"
    )
    assert code == 2
    assert rep["error"]["error_type"] == "bad-rational"


def test_selftest_passes(capsys):
    code, rep = run_json(capsys, "selftest", "--seed", "3", "--cases", "6", "--format", "json")
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["failures"] == []


def test_usage_errors_exit_64(capsys, square):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc2:
        main(["frobnicate", square])
    assert exc2.value.code == 64
    with pytest.raises(SystemExit) as exc3:
        main(["obstruction", square, "--method", "bogus"])
    assert exc3.value.code == 64
    capsys.readouterr()  # drain argparse noise


def test_max_dim_env(capsys, monkeypatch, square):
    monkeypatch.setenv("TROPCTL_MAX_DIM", "2")
    code, rep = run_json(capsys, "validate", square, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "dimension-cap"
    monkeypatch.setenv("TROPCTL_MAX_DIM", "not-a-number")
    code2, rep2 = run_json(capsys, "validate", square, "--format", "json")
    assert code2 == 2
    assert rep2["error"]["error_type"] == "bad-env"


def test_text_mode_orders_dimensions_first(capsys, square):
    code, out = run(capsys, "obstruction", square)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[0].startswith("== obstruction")
    assert lines[1].startswith("dimH: 1")
    assert lines[2].startswith("paramDim: 5")
    assert "basis:" in out
    # each basis line shows vertex/edge/slot plus a covector tuple
    assert any(l.strip().startswith("a/s01/0:") for l in lines)


def test_text_mode_error(capsys, tmp_path):
    bad = fixtures.square_loop_doc()
    bad["edges"][-1]["direction"] = [3, 1, 5]
    path = write_json(tmp_path / "bad.json", bad)
    code, out = run(capsys, "validate", path)
    assert code == 2
    assert out.startswith("error[unbalanced]")


def test_obstruction_chain_solves_once(capsys, monkeypatch, square):
    import tropctl.cli
    import tropctl.obstruction

    calls = []
    original = tropctl.obstruction.dual_obstruction_chain

    def counting(obj):
        calls.append(obj)
        return original(obj)

    monkeypatch.setattr(tropctl.cli, "dual_obstruction_chain", counting)
    monkeypatch.setattr(tropctl.obstruction, "dual_obstruction_chain", counting)
    code, rep = run_json(capsys, "obstruction", square, "--format", "json")
    assert code == 0
    assert rep["paramDim"] == 5
    assert len(calls) == 1
