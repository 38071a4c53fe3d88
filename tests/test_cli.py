"""End-to-end command line behavior: exit codes, JSON stability, reports."""

import argparse
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tropctl import residues
from tropctl.cli import MAX_SELFTEST_CASES, _Basis, _basis_payload, _case_count, _parse_args, _print_json, build_parser, main
from tropctl.curves import serialize_curve
from tropctl.inputs import MAX_BITS, MAX_DIM, MAX_ID, read_doc
from tropctl.laurent import MAX_EXPONENT, parse_laurent_doc
from tropctl.randgen import random_loopchain_curve
from tropctl.residues import MAX_VALENCE

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
    assert reps[1]["inputs"] == [{"path": bad_path}]


def test_a_batch_reads_its_data_file_once(capsys, monkeypatch, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", laurent_doc_536())
    reads = []

    def counting_read_doc(path):
        reads.append(path)
        return read_doc(path)

    def counting_parse(doc):
        parses.append(doc)
        return parse_laurent_doc(doc)

    parses = []
    monkeypatch.setattr("tropctl.cli.read_doc", counting_read_doc)
    monkeypatch.setattr("tropctl.cli.parse_laurent_doc", counting_parse)
    code, reps = run_json(capsys, "compare", hv536, hv536, hv536, "--laurent", lau, "--format", "json")
    assert code == 0 and [rep["d"] for rep in reps] == [1, 1, 1]
    assert all(rep["inputs"][1]["path"] == lau for rep in reps)
    assert reads.count(lau) == 1 and reads.count(hv536) == 3
    # the document is parsed once too, and its series serve every report
    assert len(parses) == 1
    # each call reads it afresh: nothing is kept from one call to the next
    run_json(capsys, "compare", hv536, "--laurent", lau, "--format", "json")
    assert reads.count(lau) == 2 and len(parses) == 2


def test_a_data_file_that_fails_to_parse_fails_every_report_of_the_batch(capsys, tmp_path, hv536):
    # a parse error is raised again for each curve file, as a read error is
    lau = write_json(tmp_path / "lau.json", {"vertices": {"V": {"series": [[], [["x", "1"]], [[-5, "1"]]]}}})
    code, reps = run_json(capsys, "compare", hv536, hv536, "--laurent", lau, "--format", "json")
    assert code == 2
    assert [rep["error"]["error_type"] for rep in reps] == ["bad-series", "bad-series"]
    assert all(rep["inputs"] == [{"path": hv536}, {"path": lau}] for rep in reps)


def test_validate_glob(capsys, tmp_path):
    write_json(tmp_path / "c2.json", fixtures.square_loop_doc())
    write_json(tmp_path / "c1.json", fixtures.gamma1_doc())
    pattern = str(tmp_path / "c*.json")
    code, reps = run_json(capsys, "validate", pattern, "--glob", "--format", "json")
    assert code == 0
    paths = [r["inputs"][0]["path"] for r in reps]
    assert paths == sorted(paths)


def test_a_glob_passes_over_the_directories_it_matches(capsys, tmp_path):
    (tmp_path / "d" / "sub").mkdir(parents=True)
    curve = write_json(tmp_path / "d" / "sub" / "sq.json", fixtures.square_loop_doc())
    code, reps = run_json(capsys, "validate", str(tmp_path / "d" / "**"), "--glob", "--format", "json")
    assert code == 0
    assert reps["inputs"][0]["path"] == curve and reps["valid"] is True
    # a pattern that matches directories alone matches no file
    code, rep = run_json(capsys, "validate", str(tmp_path / "d" / "*"), "--glob", "--format", "json")
    assert code == 2 and rep["error"]["error_type"] == "no-input"
    # a directory named without --glob is still read, and cannot be
    code, rep = run_json(capsys, "validate", str(tmp_path / "d"), "--format", "json")
    assert code == 2 and rep["error"]["error_type"] == "unreadable-input"


def test_validate_glob_no_match(capsys, tmp_path):
    code, rep = run_json(
        capsys, "validate", str(tmp_path / "nope*.json"), "--glob", "--format", "json"
    )
    assert code == 2
    assert rep["error"]["error_type"] == "no-input"
    assert rep["inputs"] == []


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


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", ""],
        ["classify", ""],
        ["obstruction", "CURVE", "--method", "xi", "--config", ""],
        ["phylo", "CURVE", "--laurent", ""],
        ["compare", "CURVE", "--laurent", ""],
        ["local-model", "--model", ""],
    ],
    ids=["validate", "classify", "config", "phylo", "compare", "model"],
)
def test_an_empty_path_is_an_unreadable_input(capsys, square, argv):
    """An empty path argument names a file that cannot be read; it is not
    taken for an absent one."""
    argv = [square if arg == "CURVE" else arg for arg in argv]
    code, rep = run_json(capsys, *argv, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "unreadable-input"
    assert rep["inputs"] == [{"path": arg} for arg in argv if arg in (square, "")]


def test_an_empty_path_in_a_batch_keeps_the_other_reports(capsys, square):
    code, reps = run_json(capsys, "validate", square, "", square, "--format", "json")
    assert code == 2
    assert [rep.get("valid") for rep in reps] == [True, None, True]
    assert reps[1]["error"]["error_type"] == "unreadable-input"
    assert reps[1]["inputs"] == [{"path": ""}]


@pytest.mark.parametrize("command", [["validate"], ["local-model", "--model"]], ids=["curve", "model"])
def test_deeply_nested_json_is_bad_json(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, rep = run_json(capsys, *command, str(deep), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "bad-json"


_LONG = "7" * 5000  # longer than the 4,300 digits Python turns into an int by default


def _long_curve(tmp_path, hv536):
    doc = fixtures.square_loop_doc()
    doc["edges"][0]["weight"] = "LONG"
    return ["validate"], tmp_path / "long.json", doc


def _long_config(tmp_path, hv536):
    doc = {"vertices": {"V": {"coords": [0, "LONG", 2]}}}
    return ["obstruction", hv536, "--method", "xi", "--config"], tmp_path / "cfg.json", doc


def _long_model(tmp_path, hv536):
    doc = {"ambient_dim": 2, "edges": [{"direction": [1, 0], "weight": "LONG"}] + [{"direction": [0, 1]}] * 2}
    return ["local-model", "--model"], tmp_path / "model.json", doc


def _long_laurent(tmp_path, hv536):
    doc = {"vertices": {"V": {"series": [[], [[-3, "LONG"]], [[-5, 1]]]}}}
    return ["compare", hv536, "--laurent"], tmp_path / "lau.json", doc


@pytest.mark.parametrize(
    "case", [_long_curve, _long_config, _long_model, _long_laurent], ids=["curve", "config", "model", "laurent"]
)
def test_a_json_number_too_long_to_convert_is_bad_json(capsys, tmp_path, hv536, case):
    command, path, doc = case(tmp_path, hv536)
    path.write_text(json.dumps(doc).replace('"LONG"', _LONG))
    code, rep = run_json(capsys, *command, str(path), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "bad-json"
    assert rep["error"]["context"] == {"path": str(path)}
    assert rep["error"]["message"].endswith(f"a number literal has more than {sys.get_int_max_str_digits()} digits")


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
    assert rep["inputs"] == [{"path": hv536}, {"path": cfg}]


def test_obstruction_xi_missing_config(capsys, hv536):
    code, rep = run_json(capsys, "obstruction", hv536, "--method", "xi", "--format", "json")
    assert code == 3
    assert rep["error"]["error_type"] == "missing-config"


def _coords_at_a(tmp_path, hv536, coords):
    """obstruction --method xi on ex536 with coordinates at the 4-valent V
    and at the 3-valent A."""
    doc = {"vertices": {"A": {"coords": coords}, "V": {"coords": ["0", "1", "2"]}}}
    return _config_of(tmp_path, hv536, doc)


@pytest.mark.parametrize("coords", [["0"], ["1", "2"], ["0", "0"]], ids=["count", "first", "repeated"])
def test_config_coords_at_a_3_valent_vertex_are_checked(capsys, tmp_path, hv536, coords):
    # the residue sums at A add nothing, but the coordinates given for it
    # are checked as at any other vertex
    code, rep = run_json(capsys, *_coords_at_a(tmp_path, hv536, coords), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "bad-coords"
    assert rep["error"]["context"] == {"vertex": "A"}


def test_valid_config_coords_at_a_3_valent_vertex_leave_the_report(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "ex536.json", fixtures.ex536_doc())
    code, out = run(capsys, *_coords_at_a(Path("."), "ex536.json", ["0", "-1/2"]), "--format", "json")
    assert code == 0
    assert json.loads(out)["dimH"] == 1
    assert hashlib.sha256(out.encode()).hexdigest() == "9f93c2c7c431ac2c0e0ddda83fa967cbcc575d233f2fd2eb6044cebc77a477aa"


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


def merged_pair_doc():
    """Two 3-valent vertices a and b at one point, joined by a contracted edge
    with a virtual direction; contract_image merges b into a, which becomes
    4-valent like V of ex536."""
    return {
        "ambient_dim": 2,
        "vertices": [
            {"id": "a", "position": ["0", "0"]},
            {"id": "b", "position": ["0", "0"]},
        ],
        "edges": [
            {"id": "m", "ends": ["a", "b"], "weight": 2, "direction": [1, 0]},
            {"id": "p", "ends": ["a", None], "weight": 1, "direction": [-1, 1]},
            {"id": "q", "ends": ["a", None], "weight": 1, "direction": [-1, -1]},
            {"id": "r", "ends": ["b", None], "weight": 1, "direction": [1, 1]},
            {"id": "s", "ends": ["b", None], "weight": 1, "direction": [1, -1]},
        ],
    }


@pytest.mark.parametrize("command", ["obstruction", "phylo", "compare"])
@pytest.mark.parametrize(
    "doc, names, unknown",
    [(fixtures.ex536_doc(), ["V", "ZZ"], "ZZ"), (merged_pair_doc(), ["b"], "b")],
    ids=["typo", "merged-away"],
)
def test_per_vertex_data_for_an_unknown_vertex(capsys, tmp_path, command, doc, names, unknown):
    """An entry of --config or --laurent that names no vertex of the image
    gives the same unknown-vertex report, exit 2, in every command."""
    curve = write_json(tmp_path / "curve.json", doc)
    if command == "obstruction":
        entries = {v: {"coords": ["0", "1", "2"]} for v in names}
        argv = ["obstruction", curve, "--method", "xi", "--config"]
    else:
        entries = {v: laurent_doc_536()["vertices"]["V"] for v in names}
        argv = [command, curve, "--laurent"]
    data = write_json(tmp_path / "data.json", {"vertices": entries})
    code, rep = run_json(capsys, *argv, data, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "unknown-vertex"
    assert rep["error"]["message"].endswith(f"names unknown vertex {unknown}")
    assert rep["error"]["context"] == {"vertex": unknown}
    assert rep["inputs"] == [{"path": curve}, {"path": data}]


def _renamed(doc, old, new):
    """doc with vertex old renamed new, in its vertex list and edge ends."""
    doc["vertices"] = [{**v, "id": new} if v["id"] == old else v for v in doc["vertices"]]
    for e in doc["edges"]:
        e["ends"] = [new if end == old else end for end in e["ends"]]
    return doc


@pytest.mark.parametrize(
    "bad, command, error_type, vertex",
    [
        ("A", "phylo", "bad-laurent", "A"),
        ("A", "compare", "bad-laurent", "A"),
        ("W", "phylo", "bad-laurent", "W"),
        ("W", "compare", "missing-laurent", "V"),
    ],
    ids=["before-phylo", "before-compare", "after-phylo", "after-compare"],
)
def test_the_first_of_two_series_faults_is_reported_in_vertex_order(capsys, tmp_path, bad, command, error_type, vertex):
    """The 4-valent V has no series, and the 3-valent vertex A, renamed W to
    come after V, has one series too few: compare stops at whichever comes
    first, while phylo only warns about V and stops at the bad series."""
    doc = fixtures.ex536_doc() if bad == "A" else _renamed(fixtures.ex536_doc(), "A", "W")
    curve = write_json(tmp_path / "curve.json", doc)
    lau = write_json(tmp_path / "lau.json", {"vertices": {bad: {"series": [[]]}}})
    code, rep = run_json(capsys, command, curve, "--laurent", lau, "--format", "json")
    assert code == (3 if error_type == "missing-laurent" else 2)
    assert (rep["error"]["error_type"], rep["error"]["context"]) == (error_type, {"vertex": vertex})


@pytest.mark.parametrize("command", ["phylo", "compare"])
@pytest.mark.parametrize(
    "series, error_type",
    [
        ([[], [[-3, "1"]], [[-3, "2"]]], "incomparable-series"),
        ([[], [[-3, "1"]], [[-3, "1"]]], "not-ascending"),
        ([[[-1, "1"]], [[-3, "1"]], [[-5, "1"]]], "bad-laurent"),
    ],
    ids=["incomparable", "repeated", "nonzero-first"],
)
def test_series_that_give_no_tree(capsys, tmp_path, hv536, command, series, error_type):
    lau = write_json(tmp_path / "lau.json", {"vertices": {"V": {"series": series}}})
    code, rep = run_json(capsys, command, hv536, "--laurent", lau, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == error_type


def test_phylo_warns_on_missing_data(capsys, tmp_path, hv536):
    lau = write_json(tmp_path / "lau.json", {"vertices": {}})
    code, rep = run_json(capsys, "phylo", hv536, "--laurent", lau, "--format", "json")
    assert code == 0
    assert any("V" in w for w in rep["warnings"])


@pytest.mark.parametrize(
    "series, error_type",
    [
        ([[], [[-1, "1"]], [[-2, "1"]], [[-3, "1"]]], "bad-laurent"),
        ([[[-1, "1"]], [[-3, "1"]]], "bad-laurent"),
        ([[], []], "not-ascending"),
    ],
    ids=["count", "nonzero-first", "repeated"],
)
def test_series_at_a_3_valent_vertex_are_checked_alike(capsys, tmp_path, hv536, series, error_type):
    """`compare` checks the series of the 3-valent vertex A of ex536 as
    `phylo` does, though only the 4-valent V is resolved."""
    doc = laurent_doc_536()
    doc["vertices"]["A"] = {"series": series}
    lau = write_json(tmp_path / "lau.json", doc)
    errors = []
    for command in ("phylo", "compare"):
        code, rep = run_json(capsys, command, hv536, "--laurent", lau, "--format", "json")
        assert code == 2
        errors.append(rep["error"])
    assert errors[0]["error_type"] == error_type
    assert errors[1] == errors[0]


def test_valid_series_at_a_3_valent_vertex_leave_compare_unchanged(capsys, tmp_path, hv536):
    plain = write_json(tmp_path / "plain.json", laurent_doc_536())
    doc = laurent_doc_536()
    doc["vertices"]["A"] = {"series": [[], [[-2, "1"]]]}
    with_a = write_json(tmp_path / "with_a.json", doc)
    _code, rep = run_json(capsys, "compare", hv536, "--laurent", plain, "--format", "json")
    code, rep_a = run_json(capsys, "compare", hv536, "--laurent", with_a, "--format", "json")
    assert code == 0
    del rep["inputs"], rep_a["inputs"]
    assert rep_a == rep
    assert list(rep["clusters"]) == ["V"]


def test_an_error_report_stamps_the_curve_path_alone(capsys, tmp_path):
    curve = write_json(tmp_path / "ex534.json", fixtures.ex534_doc())
    code, rep = run_json(capsys, "classify", curve, "--format", "json")
    assert code == 3
    assert rep["inputs"] == [{"path": curve}]


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
    assert rep["inputs"] == [{"path": path}]


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


def test_long_shared_prefix_resolves(capsys, tmp_path, hv536):
    # two series agree on 1,000 leading terms before they separate
    shared = [[e, "1"] for e in range(-2000, -1000)]
    doc = {"vertices": {"V": {"series": [[], shared + [[-5, "1"]], shared + [[-7, "1"]]]}}}
    lau = write_json(tmp_path / "lau.json", doc)
    code, rep = run_json(capsys, "phylo", hv536, "--laurent", lau, "--format", "json")
    assert code == 0
    v = rep["vertices"]["V"]
    assert v["tree"] == {
        "depth": -2000,
        "children": [
            {"depth": -7, "children": [{"leaf": "e3_vp"}, {"leaf": "e2_cv"}]},
            {"leaf": "e1_va"},
        ],
    }
    code, rep = run_json(capsys, "compare", hv536, "--laurent", lau, "--format", "json")
    assert code == 0
    assert rep["clusters"]["V"] == v["clusters"]


def test_compare_long_series_returns_in_time(capsys, tmp_path, hv536):
    # two 1,000-term series at exponents near -MAX_EXPONENT (a 28 KB file):
    # evaluated at t = 10^-6 their terms are numbers of some 60,000 digits
    first = [[e, "1"] for e in range(-MAX_EXPONENT, -MAX_EXPONENT + 1000)]
    second = [[e, "1"] for e in range(-MAX_EXPONENT + 1, -MAX_EXPONENT + 1001)]
    doc = {"vertices": {"V": {"series": [[], first, second]}}}
    lau = write_json(tmp_path / "lau.json", doc)
    start = time.perf_counter()
    code, rep = run_json(capsys, "compare", hv536, "--laurent", lau, "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert rep["stabilized"] and rep["semicontinuous"]


@pytest.mark.parametrize("exponent", [-10**7, 10**7])
def test_compare_exponent_bound_returns_at_once(capsys, tmp_path, hv536, exponent):
    doc = {"vertices": {"V": {"series": [[], [[exponent, "1"]], [[-5, "1"]]]}}}
    lau = write_json(tmp_path / "lau.json", doc)
    start = time.perf_counter()
    code, rep = run_json(capsys, "compare", hv536, "--laurent", lau, "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert rep["error"]["error_type"] == "limit"


_HUGE = "1e10000000"  # ten characters for a 33-million-bit integer


def _huge_position(tmp_path, hv536, text=_HUGE):
    doc = fixtures.square_loop_doc()
    doc["vertices"][1]["position"][0] = text
    return ["validate", write_json(tmp_path / "huge.json", doc)]


def _huge_config(tmp_path, hv536, text=_HUGE):
    cfg = write_json(tmp_path / "cfg.json", {"vertices": {"V": {"coords": ["0", text, "2"]}}})
    return ["obstruction", hv536, "--method", "xi", "--config", cfg]


def _huge_model(tmp_path, hv536, text=_HUGE):
    model = {
        "ambient_dim": 2,
        "edges": [{"direction": [1, 0]}, {"direction": [0, 1]}, {"direction": [-1, -1]}],
        "coords": ["0", text],
    }
    return ["local-model", "--model", write_json(tmp_path / "model.json", model)]


def _huge_t0(tmp_path, hv536, text="1e-10000000"):
    lau = write_json(tmp_path / "lau.json", laurent_doc_536())
    return ["compare", hv536, "--laurent", lau, "--t0", text]


def _huge_coefficient(tmp_path, hv536, text=_HUGE):
    doc = {"vertices": {"V": {"series": [[], [[-3, text]], [[-5, "1"]]]}}}
    return ["compare", hv536, "--laurent", write_json(tmp_path / "lau.json", doc)]


# every place a rational string is read, and the error kind it gives there
_EACH_RATIONAL_READER = pytest.mark.parametrize(
    "argv, error_type",
    [
        (_huge_position, "bad-rational"),
        (_huge_config, "bad-rational"),
        (_huge_model, "bad-rational"),
        (_huge_t0, "bad-rational"),
        (_huge_coefficient, "bad-series"),
    ],
    ids=["position", "config", "model", "t0", "coefficient"],
)


@_EACH_RATIONAL_READER
def test_exponent_notation_is_rejected_at_once(capsys, tmp_path, hv536, argv, error_type):
    start = time.perf_counter()
    code, rep = run_json(capsys, *argv(tmp_path, hv536), "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert rep["error"]["error_type"] == error_type


@_EACH_RATIONAL_READER
def test_a_rational_string_too_long_to_convert_is_named_without_its_digits(capsys, tmp_path, hv536, argv, error_type):
    # a denominator of more digits than int() converts
    code, rep = run_json(capsys, *argv(tmp_path, hv536, f"1/{_LONG}"), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == error_type
    message = rep["error"]["message"]
    assert message.endswith(f"a number literal has more than {sys.get_int_max_str_digits()} digits")
    assert len(message) < 100


@_EACH_RATIONAL_READER
@pytest.mark.parametrize(
    "text",
    ["x" * 5000, "1" * 2500 + "e" + "1" * 2499, "7" * 4000 + "/0"],
    ids=["junk", "exponent", "zero-denominator"],
)
def test_a_rejected_rational_string_is_shown_only_in_part(capsys, tmp_path, hv536, argv, error_type, text):
    code, rep = run_json(capsys, *argv(tmp_path, hv536, text), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == error_type
    message = rep["error"]["message"]
    assert len(message) < 100
    assert f"({len(text)} characters)" in message


def _curve_vertex_id(tmp_path, hv536, vid):
    doc = fixtures.square_loop_doc()
    doc["vertices"][0]["id"] = vid
    for e in doc["edges"]:
        e["ends"] = [vid if end == "a" else end for end in e["ends"]]
    return ["validate", write_json(tmp_path / "curve.json", doc)]


def _curve_edge_id(tmp_path, hv536, eid):
    doc = fixtures.square_loop_doc()
    doc["edges"][0]["id"] = eid
    return ["validate", write_json(tmp_path / "curve.json", doc)]


def _config_key(tmp_path, hv536, vid):
    cfg = write_json(tmp_path / "cfg.json", {"vertices": {vid: {"coords": ["0", "1", "2"]}}})
    return ["obstruction", hv536, "--method", "xi", "--config", cfg]


def _laurent_key(tmp_path, hv536, vid):
    lau = write_json(tmp_path / "lau.json", {"vertices": {vid: laurent_doc_536()["vertices"]["V"]}})
    return ["phylo", hv536, "--laurent", lau]


def _model_label(tmp_path, hv536, label):
    edges = [{"label": label, "direction": [1, 0]}, {"direction": [0, 1]}, {"direction": [-1, -1]}]
    return ["local-model", "--model", write_json(tmp_path / "model.json", {"ambient_dim": 2, "edges": edges})]


@pytest.mark.parametrize(
    "argv",
    [_curve_vertex_id, _curve_edge_id, _config_key, _laurent_key, _model_label],
    ids=["curve-vertex", "curve-edge", "config-key", "laurent-key", "model-label"],
)
def test_ids_over_the_length_bound_give_a_limit_report(capsys, tmp_path, hv536, argv):
    _code, rep = run_json(capsys, *argv(tmp_path, hv536, "x" * MAX_ID), "--format", "json")
    # an id at the bound is read (a config or laurent key of x's then names no vertex of the curve)
    assert rep.get("error", {}).get("error_type") != "limit"
    code, rep = run_json(capsys, *argv(tmp_path, hv536, "x" * (MAX_ID + 1)), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "limit"
    assert rep["error"]["message"].endswith(f"({MAX_ID + 1} characters) is longer than {MAX_ID} characters")


def _long_config_key(tmp_path, hv536, vid):
    # an entry without a coords list, whose message names the vertex
    return ["obstruction", hv536, "--method", "xi", "--config", write_json(tmp_path / "cfg.json", {"vertices": {vid: {}}})]


def _long_vertex_id_junk_position(tmp_path, hv536, vid):
    # a position that is no rational, whose message names the vertex
    doc = fixtures.square_loop_doc()
    doc["vertices"][1].update(id=vid, position=["junk", "0", "0"])
    return ["validate", write_json(tmp_path / "curve.json", doc)]


@pytest.mark.parametrize("argv", [_long_config_key, _long_vertex_id_junk_position], ids=["config-key", "curve-vertex"])
def test_a_long_id_is_not_echoed(capsys, tmp_path, hv536, argv):
    code, out = run(capsys, *argv(tmp_path, hv536, "V" * 5000), "--format", "json")
    assert code == 2
    assert len(out.encode()) < 1024
    error = json.loads(out)["error"]
    assert error["error_type"] == "limit"
    assert len(error["message"]) < 100


_OVER = str(2**MAX_BITS)  # one bit more than the bound allows


def _over_position(tmp_path, hv536):
    doc = fixtures.square_loop_doc()
    doc["vertices"][1]["position"][0] = f"1/{_OVER}"
    return ["validate", write_json(tmp_path / "wide.json", doc)]


def _over_curve_direction(tmp_path, hv536):
    doc = fixtures.square_loop_doc()
    next(e for e in doc["edges"] if "direction" in e)["direction"][0] = -int(_OVER)
    return ["validate", write_json(tmp_path / "wide.json", doc)]


def _over_curve_weight(tmp_path, hv536):
    doc = fixtures.square_loop_doc()
    for e in doc["edges"]:  # the same weight everywhere keeps every vertex balanced
        e["weight"] = int(_OVER)
    return ["validate", write_json(tmp_path / "wide.json", doc)]


def _over_config(tmp_path, hv536):
    cfg = write_json(tmp_path / "cfg.json", {"vertices": {"V": {"coords": ["0", _OVER, "2"]}}})
    return ["obstruction", hv536, "--method", "xi", "--config", cfg]


def _over_model(tmp_path, hv536, coord="1", entry=1, weight=1):
    model = {
        "ambient_dim": 2,
        "edges": [
            {"weight": weight, "direction": [1, 0]},
            {"weight": weight, "direction": [entry, 1]},
            {"weight": weight, "direction": [-1 - entry, -1]},
        ],
        "coords": ["0", coord],
    }
    return ["local-model", "--model", write_json(tmp_path / "model.json", model)]


@pytest.mark.parametrize(
    "argv",
    [
        _over_position,
        _over_curve_direction,
        _over_curve_weight,
        _over_config,
        lambda tmp_path, hv536: _over_model(tmp_path, hv536, coord=f"-{_OVER}/3"),
        lambda tmp_path, hv536: _over_model(tmp_path, hv536, entry=int(_OVER)),
        lambda tmp_path, hv536: _over_model(tmp_path, hv536, weight=int(_OVER)),
        lambda tmp_path, hv536: _huge_t0(tmp_path, hv536, f"1/{_OVER}"),
    ],
    ids=["position", "curve-direction", "curve-weight", "config", "model-coord", "model-direction", "model-weight", "t0"],
)
def test_numbers_over_the_bit_bound_give_a_limit_report(capsys, tmp_path, hv536, argv):
    code, rep = run_json(capsys, *argv(tmp_path, hv536), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "limit"
    assert rep["error"]["message"].endswith(f"a number of {MAX_BITS + 1} bits exceeds the maximum {MAX_BITS}")


def test_a_thousand_digit_t0_gives_a_limit_report_at_once(tmp_path, hv536):
    # a term at exponent -10,000 evaluated at t0 = 10^-1000 is a number of
    # ten million digits; read unbounded, the t0 kept `compare` busy for tens of seconds
    doc = {"vertices": {"V": {"series": [[], [[-10000, "1"]], [[-5, "1"]]]}}}
    lau = write_json(tmp_path / "lau.json", doc)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["compare", hv536, "--laurent", lau, "--t0", "1/1" + "0" * 1000, "--format", "json"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tropctl", *argv], capture_output=True, env=env, timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["error_type"] == "limit"
    assert error["message"] == f"--t0: a number of 3322 bits exceeds the maximum {MAX_BITS}"


def test_numbers_at_the_bit_bound_are_read(capsys, tmp_path, hv536):
    top = 2**MAX_BITS - 1
    argv = _over_model(tmp_path, hv536, coord=f"-{top}/{top - 2}", entry=top - 1, weight=top)
    code, rep = run_json(capsys, *argv, "--format", "json")
    assert code == 0
    assert rep["coords"] == ["0", f"-{top}/{top - 2}"]


def _curve_with(tmp_path, change):
    doc = fixtures.square_loop_doc()
    change(doc)
    return ["validate", write_json(tmp_path / "curve.json", doc)]


def _model_with(tmp_path, edges):
    return ["local-model", "--model", write_json(tmp_path / "model.json", {"ambient_dim": 2, "edges": edges})]


def _config_of(tmp_path, hv536, doc):
    return ["obstruction", hv536, "--method", "xi", "--config", write_json(tmp_path / "cfg.json", doc)]


def _laurent_of(tmp_path, hv536, doc):
    return ["phylo", hv536, "--laurent", write_json(tmp_path / "lau.json", doc)]


# case: (error_type, context, argv builder); a context that names the
# file is a function of tmp_path
_SHARED_FIELD_FAULTS = {
    "curve-position-bits": ("limit", {"vertex": "b"}, _over_position),
    "config-coords-bits": ("limit", {"vertex": "V"}, _over_config),
    "model-coords-bits": ("limit", {}, lambda tmp_path, hv536: _over_model(tmp_path, hv536, coord=_OVER)),
    "curve-direction-entry": (
        "schema",
        {"edge": "u1"},
        lambda tmp_path, hv536: _curve_with(tmp_path, lambda doc: doc["edges"][5].update(direction=[1, 1.5, 0])),
    ),
    "model-direction-entry": (
        "bad-model",
        {"edge": "E2"},
        lambda tmp_path, hv536: _model_with(
            tmp_path, [{"direction": [1, 0]}, {"direction": [0, "1"]}, {"direction": [-1, -1]}]
        ),
    ),
    "curve-weight-0": (
        "bad-weight",
        {"edge": "s12"},
        lambda tmp_path, hv536: _curve_with(tmp_path, lambda doc: doc["edges"][1].update(weight=0)),
    ),
    "model-weight-0": ("bad-model", {"edge": "E1"}, lambda tmp_path, hv536: _over_model(tmp_path, hv536, weight=0)),
    "curve-weight-bits": ("limit", {"edge": "s01"}, _over_curve_weight),
    "model-weight-bits": ("limit", {"edge": "E1"}, lambda tmp_path, hv536: _over_model(tmp_path, hv536, weight=int(_OVER))),
    "curve-dimension-cap": (
        "dimension-cap",
        {},
        lambda tmp_path, hv536: _curve_with(tmp_path, lambda doc: doc.update(ambient_dim=MAX_DIM + 1)),
    ),
    "model-dimension-cap": (
        "dimension-cap",
        {},
        lambda tmp_path, hv536: [
            "local-model",
            "--model",
            write_json(tmp_path / "model.json", {"ambient_dim": MAX_DIM + 1, "edges": []}),
        ],
    ),
    "config-vertices": (
        "bad-config",
        lambda tmp_path: {"path": str(tmp_path / "cfg.json")},
        lambda tmp_path, hv536: _config_of(tmp_path, hv536, {"vertices": []}),
    ),
    "laurent-vertices": ("schema", {}, lambda tmp_path, hv536: _laurent_of(tmp_path, hv536, {"vertices": []})),
    "config-entry": (
        "bad-config",
        {"vertex": "V"},
        lambda tmp_path, hv536: _config_of(tmp_path, hv536, {"vertices": {"V": {"series": []}}}),
    ),
    "laurent-entry": (
        "schema",
        {"vertex": "V"},
        lambda tmp_path, hv536: _laurent_of(tmp_path, hv536, {"vertices": {"V": {"coords": []}}}),
    ),
}


@pytest.mark.parametrize("case", sorted(_SHARED_FIELD_FAULTS))
def test_a_shared_field_fault_reads_alike_in_every_file_kind(capsys, tmp_path, hv536, case):
    error_type, context, build = _SHARED_FIELD_FAULTS[case]
    code, rep = run_json(capsys, *build(tmp_path, hv536), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == error_type
    assert rep["error"].get("context", {}) == (context(tmp_path) if callable(context) else context)


def _contracted_square(direction):
    """The quick-start square with b moved onto a, so that its side s01 is
    contracted with the given virtual direction, and the legs rebalanced."""
    doc = fixtures.square_loop_doc()
    doc["vertices"][1]["position"] = ["0", "0", "0"]
    directions = {"s01": direction, "u0": [0, -1, 0], "u1": [-1, -1, 0], "u2": [2, 1, 0]}
    for e in doc["edges"]:
        if e["id"] in directions:
            e["direction"] = directions[e["id"]]
    return doc


def _command_on(command, doc):
    return lambda tmp_path, hv536: [command, write_json(tmp_path / "curve.json", doc)]


def _square_fault(change):
    return lambda tmp_path, hv536: _curve_with(tmp_path, change)


def _coords_of(coords):
    return lambda tmp_path, hv536: _config_of(tmp_path, hv536, {"vertices": {"V": {"coords": coords}}})


# case: (exit code, error_type, context, argv builder), one case for each
# fault of an error kind that no other test names
_ERROR_KIND_FAULTS = {
    "zero-direction-loop-obstruction": (
        3, "zero-direction-loop", {"edge": "s01"}, _command_on("obstruction", _contracted_square([0, 0, 0]))
    ),
    "zero-direction-loop-classify": (
        3, "zero-direction-loop", {"edge": "s01"}, _command_on("classify", _contracted_square([0, 0, 0]))
    ),
    "non-primitive-leg": (
        2, "non-primitive", {"edge": "u0"}, _square_fault(lambda doc: doc["edges"][4].update(direction=[-2, -2, 0]))
    ),
    "non-primitive-contracted": (
        2, "non-primitive", {"edge": "s01"}, _command_on("validate", _contracted_square([2, 0, 0]))
    ),
    "missing-laurent": (
        3,
        "missing-laurent",
        {"vertex": "V"},
        lambda tmp_path, hv536: ["compare", hv536, "--laurent", write_json(tmp_path / "lau.json", {"vertices": {}})],
    ),
    "bad-coords-count": (2, "bad-coords", {"vertex": "V"}, _coords_of(["0", "1"])),
    "bad-coords-first": (2, "bad-coords", {"vertex": "V"}, _coords_of(["1", "2", "3"])),
    "bad-coords-repeated": (2, "bad-coords", {"vertex": "V"}, _coords_of(["0", "1", "1"])),
    "duplicate-edge": (
        2, "duplicate-edge", {"edge": "s01"}, _square_fault(lambda doc: doc["edges"].append(doc["edges"][0]))
    ),
    "duplicate-vertex": (
        2, "duplicate-vertex", {"vertex": "a"}, _square_fault(lambda doc: doc["vertices"].append(doc["vertices"][0]))
    ),
    "unknown-endpoint": (
        2, "unknown-endpoint", {"edge": "s01"}, _square_fault(lambda doc: doc["edges"][0].update(ends=["a", "z"]))
    ),
    "isolated-vertex": (
        2,
        "isolated-vertex",
        {"vertex": "e"},
        _square_fault(lambda doc: doc["vertices"].append({"id": "e", "position": ["5", "5", "5"]})),
    ),
    "empty-graph": (2, "empty-graph", {}, _command_on("validate", {"ambient_dim": 2, "vertices": [], "edges": []})),
}


@pytest.mark.parametrize("case", sorted(_ERROR_KIND_FAULTS))
def test_an_error_kind_reads_with_its_exit_code_and_context(capsys, tmp_path, hv536, case):
    exit_code, error_type, context, build = _ERROR_KIND_FAULTS[case]
    code, rep = run_json(capsys, *build(tmp_path, hv536), "--format", "json")
    assert code == exit_code
    assert rep["error"]["error_type"] == error_type
    assert rep["error"].get("context", {}) == context


def test_classify_without_the_abundancy_map(capsys, tmp_path):
    # two contracted edges p, q from a to b with virtual directions (1,0,0)
    # and (0,1,0): contracting q collapses the loop they close
    doc = {
        "ambient_dim": 3,
        "vertices": [{"id": "a", "position": ["0", "0", "0"]}, {"id": "b", "position": ["0", "0", "0"]}],
        "edges": [
            {"id": "p", "ends": ["a", "b"], "direction": [1, 0, 0]},
            {"id": "q", "ends": ["a", "b"], "direction": [0, 1, 0]},
            {"id": "u", "ends": ["a", None], "direction": [-1, -1, 0]},
            {"id": "v", "ends": ["b", None], "direction": [1, 1, 0]},
        ],
    }
    path = write_json(tmp_path / "pair.json", doc)
    code, rep = run_json(capsys, "classify", path, "--format", "json")
    assert code == 0
    assert rep["superabundantDef1"] is True
    for key in ("superabundantDef2", "agree", "abundancyRank", "abundancyTargetDim"):
        assert rep[key] is None
    assert rep["warnings"] == ["abundancy map unavailable: contracting edge q collapses a loop"]
    code, out = run(capsys, "classify", path)
    assert code == 0
    assert {"agree: -", "superabundantDef2: -"} <= set(out.splitlines())


@pytest.mark.parametrize(
    "first_edge, message",
    [
        ({"direction": [2, 0]}, "edge E1 direction must be primitive and nonzero"),
        ({"direction": [1, 0], "bounded": "yes"}, "edge E1 bounded must be a boolean"),
    ],
    ids=["direction", "bounded"],
)
def test_model_edge_checks_read_like_the_shared_readers(capsys, tmp_path, first_edge, message):
    edges = [first_edge, {"direction": [0, 1]}, {"direction": [-1, -1]}]
    code, rep = run_json(capsys, *_model_with(tmp_path, edges), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "bad-model"
    assert rep["error"]["message"] == message
    assert rep["error"]["context"] == {"edge": "E1"}


def test_a_model_over_the_valence_cap_is_rejected_before_its_edges_are_read(capsys, tmp_path):
    # at most MAX_VALENCE edges are read: the malformed edge after them is not
    edges = [{"direction": [1, 0]}] * MAX_VALENCE + ["not an edge"]
    code, rep = run_json(capsys, *_model_with(tmp_path, edges), "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "limit"
    assert rep["error"]["message"] == f"valence {MAX_VALENCE + 1} exceeds the maximum {MAX_VALENCE} of a local model"


def _random_star(draw_number, n=15, valence=16, seed=11):
    """A balanced star model in Q^n with random primitive directions in
    [-3, 3]^n (the last edge balances the others) and marked points p/q
    with p and q from draw_number(rng)."""
    rng = random.Random(seed)
    edges, total = [], [0] * n
    while len(edges) < valence - 1:
        d = [rng.randint(-3, 3) for _ in range(n)]
        if math.gcd(*d) == 1:
            edges.append({"direction": d})
            total = [a + b for a, b in zip(total, d)]
    g = math.gcd(*total)
    edges.append({"weight": g, "direction": [-x // g for x in total]})
    coords = ["0"] + [f"{rng.choice('+-')}{draw_number(rng)}/{draw_number(rng)}" for _ in range(valence - 2)]
    return {"ambient_dim": n, "edges": edges, "coords": [c.lstrip("+") for c in coords]}


def _local_model_process(tmp_path, doc):
    path = write_json(tmp_path / "star.json", doc)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tropctl", "local-model", "--model", path, "--format", "json"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    return proc.returncode, json.loads(proc.stdout)


def test_importing_the_cli_leaves_out_selftest_only_modules():
    # randgen is imported by selftest alone, and hypothesis by tests alone;
    # either on the import path of tropctl.cli costs every command's start-up
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import json, sys, tropctl.cli; print(json.dumps([m for m in ('tropctl.randgen', 'hypothesis') if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_hostile_star_gives_a_limit_report_at_once(tmp_path):
    # a 2 KB file of 20-digit coordinates whose residue system took over 30 s
    # to solve before sizes were bounded
    doc = _random_star(lambda rng: rng.randint(10**19, 10**20 - 1))
    assert len(json.dumps(doc)) < 2500
    code, rep = _local_model_process(tmp_path, doc)
    assert code == 2
    assert rep["error"]["error_type"] == "limit"


def test_star_at_the_bit_bound_is_solved(tmp_path):
    doc = _random_star(lambda rng: rng.randint(2 ** (MAX_BITS - 1), 2**MAX_BITS - 1))
    code, rep = _local_model_process(tmp_path, doc)
    assert code == 0
    assert rep["r"] == 14 and rep["ambientDim"] == 15


def test_local_model_valence_cap(capsys, tmp_path):
    # a balanced 60-valent star in Q^2
    dirs = [[1, 0], [0, 1], [-1, 0], [0, -1]] * 15
    path = write_json(tmp_path / "model.json", {"ambient_dim": 2, "edges": [{"direction": d} for d in dirs]})
    code, rep = run_json(capsys, "local-model", "--model", path, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "limit"


@pytest.mark.parametrize("command", ["phylo", "compare"])
def test_star_over_valence_cap(capsys, tmp_path, command):
    # one vertex with 250 legs, within the curve size bound: its tree would be
    # 250 levels deep
    legs = [[1, 0], [-1, 0]] * 125
    curve = {
        "ambient_dim": 2,
        "vertices": [{"id": "V", "position": ["0", "0"]}],
        "edges": [
            {"id": f"u{i:04d}", "ends": ["V", None], "direction": d} for i, d in enumerate(legs)
        ],
    }
    series = [[]] + [[[-i, "1"]] for i in range(1, len(legs) - 1)]
    path = write_json(tmp_path / "star.json", curve)
    lau = write_json(tmp_path / "lau.json", {"vertices": {"V": {"series": series}}})
    code, rep = run_json(capsys, command, path, "--laurent", lau, "--format", "json")
    assert code == 2
    assert rep["error"]["error_type"] == "limit"
    assert rep["error"]["context"] == {"vertex": "V"}


def test_selftest_passes(capsys):
    code, rep = run_json(capsys, "selftest", "--seed", "3", "--cases", "6", "--format", "json")
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["failures"] == []


def test_a_failing_selftest_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("tropctl.cli.compatible_numbering_space", lambda graph: {"dim": -1})
    code, rep = run_json(capsys, "selftest", "--cases", "2", "--format", "json")
    assert code == 1
    assert rep["verdict"] == "fail"
    assert rep["failures"][0].startswith("numbering case 0")


def test_selftest_catches_a_wrong_residue_row(capsys, monkeypatch):
    """The methods check writes residue sums at every vertex, so a fault in
    them shows on 3-valent curves as well."""
    residue_rows = residues._residue_rows

    def wrong(model, at):  # the first entry of each covector doubled
        rows = residue_rows(model, at)
        return [{key: 2 * c if key % model.n == 0 else c for key, c in row.items()} for row in rows]

    monkeypatch.setattr(residues, "_residue_rows", wrong)
    code, rep = run_json(capsys, "selftest", "--format", "json")
    assert code == 1
    assert any(failure.startswith("methods case") for failure in rep["failures"])


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


@pytest.mark.parametrize("config", ["missing.json", ""], ids=["missing", "empty"])
@pytest.mark.parametrize("method", [[], ["--method", "chain"]], ids=["default", "chain"])
def test_config_goes_only_with_the_xi_method(capsys, tmp_path, square, method, config):
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", square, *method, "--config", config and str(tmp_path / config), "--format", "json"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("tropctl: error: argument --config: only with --method xi\n")


@pytest.mark.parametrize("cases", ["0", "-3", "x"])
def test_selftest_needs_a_positive_case_count(capsys, cases):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--cases", cases, "--format", "json"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    expected = f"invalid int value: '{cases}'" if cases == "x" else f"must be at least 1, got {cases}"
    assert err.endswith(f"tropctl selftest: error: argument --cases: {expected}\n")


def test_selftest_case_count_has_a_maximum(capsys):
    """--cases past MAX_SELFTEST_CASES is a usage error, so no value keeps
    the process busy for days; checked without running a large selftest."""
    assert _case_count(str(MAX_SELFTEST_CASES)) == MAX_SELFTEST_CASES
    too_many = str(MAX_SELFTEST_CASES + 1)
    message = f"must be at most {MAX_SELFTEST_CASES}, got {too_many}"
    with pytest.raises(argparse.ArgumentTypeError, match=f"^{message}$"):
        _case_count(too_many)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["selftest", "--cases", too_many])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"tropctl selftest: error: argument --cases: {message}\n")


# argvs whose usage behaviour must not depend on the parser that reads them
USAGE_ARGVS = {
    "none": [],
    "unknown-command": ["frob"],
    "help": ["-h"],
    "command-help": ["validate", "--help"],
    "unknown-option": ["validate", "a.json", "--bogus"],
    "extra-positional": ["selftest", "extra"],
    "abbreviated-option": ["obstruction", "a.json", "--meth", "xi"],
    "option-equals": ["validate", "a.json", "--format=json"],
    "double-dash": ["validate", "--", "-a.json"],
    "option-first": ["--format", "json", "validate", "x"],
    "bad-choice": ["obstruction", "a.json", "--method", "bogus"],
    "missing-required": ["compare", "a.json"],
    "config-without-xi": ["obstruction", "a.json", "--config", "c.json"],
    "zero-cases": ["selftest", "--cases", "0"],
    "no-files": ["classify", "--format", "json"],
    "batch-glob": ["phylo", "a.json", "b*.json", "--glob", "--laurent", "l.json"],
}


def _outcome(capsys, parse):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = parse()
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("argv", USAGE_ARGVS.values(), ids=USAGE_ARGVS)
def test_a_command_parser_reads_argv_as_the_top_level_parser_does(capsys, monkeypatch, argv):
    parser = build_parser()
    with monkeypatch.context() as m:
        if argv and argv[0] in parser.commands:  # read by the command's parser alone
            m.setattr(parser, "parse_args", None)
        own = _outcome(capsys, lambda: _parse_args(parser, argv))
    assert own == _outcome(capsys, lambda: parser.parse_args(argv))


_BATCHED = {
    "obstruction": (["obstruction", "--method", "chain"], "square", "gamma1"),
    "obstruction-xi": (["obstruction", "--method", "xi", "--config", "ex536.config.json"], "ex536", "square"),
    "classify": (["classify"], "square", "gamma1"),
    "abundancy": (["abundancy"], "square", "ex536"),
    "phylo": (["phylo", "--laurent", "ex536.laurent.json"], "ex536", "square"),
    "genus1-check": (["genus1-check"], "square", "gamma1"),
    "compare": (["compare", "--laurent", "ex536.laurent.json"], "ex536", "square"),
}


@pytest.mark.parametrize("command", _BATCHED)
def test_each_report_of_a_batch_is_its_file_s_own_report(capsys, monkeypatch, tmp_path, command):
    """A batch with an unreadable file in the middle: each report equals the
    report of its file alone, in both formats, and the exit code is the
    first failing file's."""
    argv, first, last = _BATCHED[command]
    docs = {"square": fixtures.square_loop_doc(), "gamma1": fixtures.gamma1_doc(), "ex536": fixtures.ex536_doc()}
    for name, doc in docs.items():
        write_json(tmp_path / f"{name}.json", doc)
    write_json(tmp_path / "ex536.config.json", {"vertices": {"V": {"coords": ["0", "1", "2"]}}})
    write_json(tmp_path / "ex536.laurent.json", {"vertices": {"V": {"series": [[], [[-3, "1"]], [[-5, "1"]]]}}})
    monkeypatch.chdir(tmp_path)
    files = [f"{first}.json", "missing.json", f"{last}.json"]
    for fmt in ("json", "text"):
        alone = [run(capsys, argv[0], f, *argv[1:], "--format", fmt) for f in files]
        code, out = run(capsys, argv[0], *files, *argv[1:], "--format", fmt)
        assert code == next(c for c, _text in alone if c) == 2
        if fmt == "json":
            assert json.loads(out) == [json.loads(text) for _c, text in alone]
        else:
            assert out == "\n".join(text for _c, text in alone)


def _square_in(n):
    """The quick-start square padded with zeros from Q^3 into Q^n."""
    doc = fixtures.square_loop_doc()
    doc["ambient_dim"] = n
    for v in doc["vertices"]:
        v["position"] += ["0"] * (n - 3)
    for e in doc["edges"]:
        if "direction" in e:
            e["direction"] += [0] * (n - 3)
    return doc


def test_ambient_dim_is_capped_at_max_dim(capsys, tmp_path):
    top = write_json(tmp_path / "top.json", _square_in(MAX_DIM))
    code, rep = run_json(capsys, "validate", top, "--format", "json")
    assert code == 0
    assert rep["valid"] is True
    over = write_json(tmp_path / "over.json", _square_in(MAX_DIM + 1))
    code, rep = run_json(capsys, "validate", over, "--format", "json")
    assert code == 2
    assert rep["error"]["message"] == f"ambient_dim {MAX_DIM + 1} exceeds the maximum {MAX_DIM}"


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


def test_text_mode_error(capsys, tmp_path, square):
    bad = fixtures.square_loop_doc()
    bad["edges"][-1]["direction"] = [3, 1, 5]
    path = write_json(tmp_path / "bad.json", bad)
    code, out = run(capsys, "validate", path)
    assert code == 2
    header, error = out.splitlines()
    assert header == f"== validate {path}"
    assert error.startswith("error[unbalanced]: ")
    # in a batch, the error report is told from the others by its path
    code, out = run(capsys, "validate", square, path, square)
    assert code == 2
    blocks = [block.splitlines() for block in out.split("\n\n")]
    assert [block[0] for block in blocks] == [f"== validate {p}" for p in (square, path, square)]
    assert blocks[1][1:] == [error]


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


# -- generated hostile documents ---------------------------------------------

_WRONG = st.sampled_from([None, True, 1.5, "x", [], {}])


def _mostly(strategy, rare=_WRONG):
    """Values of strategy, about one draw in eight replaced by a value of
    rare.  hypothesis favours the ends of an integer range, so the rare
    branch takes a value from its middle."""
    return st.integers(0, 7).flatmap(lambda k: rare if k == 4 else strategy)


_BOUNDS = st.sampled_from([-10**7, -MAX_EXPONENT - 1, -MAX_EXPONENT, MAX_EXPONENT, MAX_EXPONENT + 1])
_TERM = st.tuples(_mostly(st.integers(-12, 0), _BOUNDS), st.integers(-3, 3)).map(list)


@st.composite
def _laurent_docs(draw):
    """Series for ex536's vertex V (three finite slots) or another vertex,
    the first one zero, with at most one value replaced by a value of the
    wrong type."""
    count = draw(_mostly(st.just(2), st.sampled_from([1, 3])))
    series = [[]] + draw(st.lists(st.lists(_TERM, min_size=1, max_size=3), min_size=count, max_size=count))
    vid = draw(_mostly(st.just("V"), st.sampled_from(["a", "nope"])))
    doc = {"vertices": {vid: {"series": series}}}
    terms = [t for s in series for t in s]
    site = draw(_mostly(st.just(None), st.sampled_from(["doc", "body", "series", "term", "exponent", "coeff"])))
    if site is None:
        return doc
    if site == "doc":
        doc = draw(st.one_of(_WRONG, st.just({"vertices": []})))
    elif site == "body":
        doc["vertices"][vid] = draw(st.one_of(_WRONG, st.just({"series": "x"})))
    elif site == "series":
        series[draw(st.integers(0, len(series) - 1))] = draw(_WRONG)
    elif terms:
        term = terms[draw(st.integers(0, len(terms) - 1))]
        if site == "term":
            term.append(0)
        else:
            term[1 if site == "coeff" else 0] = draw(st.one_of(_WRONG, st.sampled_from(["1/2", "x", "1/0"])))
    return doc


@st.composite
def _model_docs(draw):
    """Stars of valence 3 to MAX_VALENCE + 2 along the coordinate axes,
    balanced by their last edge, with at most one field replaced by a value
    of the wrong type."""
    n = draw(st.integers(min_value=1, max_value=3))
    valence = draw(st.integers(min_value=3, max_value=MAX_VALENCE + 2))
    axes = [[s * (i == k) for i in range(n)] for k in range(n) for s in (1, -1)]
    dirs = [draw(st.sampled_from(axes)) for _ in range(valence - 1)]
    last = [-sum(col) for col in zip(*dirs)]
    weight = math.gcd(*last) or 1
    edges = [{"direction": d} for d in dirs]
    edges.append({"direction": [x // weight for x in last], "weight": weight})
    doc = {"ambient_dim": n, "edges": edges}
    if draw(st.booleans()):
        doc["coords"] = [str(i) for i in range(valence - 1)]
    field = draw(_mostly(st.just(None), st.sampled_from(["ambient_dim", "edges", "coords", "weight", "direction", "bounded"])))
    if field in ("ambient_dim", "edges", "coords"):
        doc[field] = draw(_WRONG)
    elif field is not None:
        edges[draw(st.integers(0, valence - 1))][field] = draw(_WRONG)
    return doc


_EXPONENT = st.sampled_from(["1e10000000", "-2E9999999", "1e-10000000"])
_HOSTILE = st.one_of(_WRONG, _EXPONENT, st.sampled_from(["x", "1/0", "nan"]))
_CURVES = {"square": fixtures.square_loop_doc, "ex534": fixtures.ex534_doc, "ex536": fixtures.ex536_doc}


@st.composite
def _curve_docs(draw):
    """The square, ex534 or ex536 document with one site changed: a value of
    the wrong type, a rational in exponent notation, an id that repeats
    another, or an endpoint that names no vertex."""
    doc = _CURVES[draw(st.sampled_from(sorted(_CURVES)))]()
    vertices, edges = doc["vertices"], doc["edges"]
    vertex = vertices[draw(st.integers(0, len(vertices) - 1))]
    edge = edges[draw(st.integers(0, len(edges) - 1))]
    site = draw(st.sampled_from(
        ["doc", "ambient_dim", "list", "item", "position", "id", "ends", "end", "weight", "direction"]
    ))
    if site == "doc":
        doc = draw(_WRONG)
    elif site == "ambient_dim":
        doc["ambient_dim"] = draw(st.one_of(_WRONG, st.sampled_from([0, 2, 17])))
    elif site == "list":
        doc[draw(st.sampled_from(["vertices", "edges"]))] = draw(_WRONG)
    elif site == "item":
        items = draw(st.sampled_from([vertices, edges]))
        items[draw(st.integers(0, len(items) - 1))] = draw(_WRONG)
    elif site == "position":
        position = vertex["position"]
        position[draw(st.integers(0, len(position) - 1))] = draw(_HOSTILE)
    elif site == "id":
        items = draw(st.sampled_from([vertices, edges]))
        items[draw(st.integers(0, len(items) - 1))]["id"] = draw(
            st.one_of(_WRONG, st.sampled_from([item["id"] for item in items]))
        )
    elif site == "ends":
        edge["ends"] = draw(st.one_of(_WRONG, st.just([vertex["id"]])))
    elif site == "end":
        edge["ends"][draw(st.integers(0, 1))] = draw(st.one_of(_WRONG, st.just("nope")))
    elif site == "weight":
        edge["weight"] = draw(st.one_of(_WRONG, st.sampled_from([0, -1, 2])))
    elif site == "direction":
        edge["direction"] = draw(st.one_of(_WRONG, st.sampled_from([[0, 0, 0], [1, 0], ["1", 0, 0]])))
    return doc


@st.composite
def _config_docs(draw):
    """Marked coordinates for the 4-valent vertex V of ex534 and ex536, with
    one site changed."""
    coords = ["0", "1", "2"]
    doc = {"vertices": {"V": {"coords": coords}}}
    site = draw(st.sampled_from(["doc", "vertices", "vertex", "entry", "coords", "coord"]))
    if site == "doc":
        doc = draw(st.one_of(_WRONG, st.just({})))
    elif site == "vertices":
        doc["vertices"] = draw(_WRONG)
    elif site == "vertex":
        doc["vertices"] = {draw(st.sampled_from(["A", "nope", ""])): {"coords": coords}}
    elif site == "entry":
        doc["vertices"]["V"] = draw(st.one_of(_WRONG, st.just({"coords": "0"})))
    elif site == "coords":
        # too few, repeated, not starting at 0, too many
        wrong = [["0", "1"], ["0", "0", "2"], ["1", "2", "3"], ["0", "1", "2", "3"]]
        doc["vertices"]["V"]["coords"] = draw(st.one_of(_WRONG, st.sampled_from(wrong)))
    elif site == "coord":
        coords[draw(st.integers(0, 2))] = draw(_HOSTILE)
    return doc


def _exit_code(*argv) -> int:
    """Exit code of one run, which must print one JSON report."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv) + ["--format", "json"])
    rep = json.loads(out.getvalue())
    assert isinstance(rep, dict) and rep["schema"] == "tropctl-report/1"
    return code


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["phylo", "compare"]), doc=_laurent_docs())
@example(command="compare", doc=laurent_doc_536())
def test_generated_laurent_documents_give_reports(tmp_path_factory, command, doc):
    directory = tmp_path_factory.getbasetemp()
    curve = write_json(directory / "ex536.json", fixtures.ex536_doc())
    lau = write_json(directory / "lau.json", doc)
    assert _exit_code(command, curve, "--laurent", lau) in (0, 2, 3)


@settings(max_examples=25, deadline=None)
@given(doc=_model_docs())
def test_generated_model_documents_give_reports(tmp_path_factory, doc):
    path = write_json(tmp_path_factory.getbasetemp() / "model.json", doc)
    assert _exit_code("local-model", "--model", path) in (0, 2, 3)


_CURVE_COMMANDS = [
    ["validate"],
    ["obstruction", "--method", "chain"],
    ["obstruction", "--method", "xi"],
    ["classify"],
]


def _with_position(doc, text):
    doc["vertices"][0]["position"][0] = text
    return doc


# The explicit examples hold numbers of 40 million digits, which take about a
# minute to build, so they fail the time bound unless they are rejected unread.
@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(_CURVE_COMMANDS), doc=_curve_docs())
@example(command=["classify"], doc=_with_position(fixtures.square_loop_doc(), "1e40000000"))
def test_generated_curve_documents_give_reports(tmp_path_factory, command, doc):
    path = write_json(tmp_path_factory.getbasetemp() / "curve.json", doc)
    start = time.perf_counter()
    assert _exit_code(command[0], path, *command[1:]) in (0, 2, 3)
    assert time.perf_counter() - start < 5


@settings(max_examples=30, deadline=None)
@given(curve=st.sampled_from(["ex534", "ex536"]), doc=_config_docs())
@example(curve="ex536", doc={"vertices": {"V": {"coords": ["0", "-2E39999999", "2"]}}})
def test_generated_config_documents_give_reports(tmp_path_factory, curve, doc):
    directory = tmp_path_factory.getbasetemp()
    path = write_json(directory / f"{curve}.json", _CURVES[curve]())
    config = write_json(directory / "config.json", doc)
    start = time.perf_counter()
    assert _exit_code("obstruction", path, "--method", "xi", "--config", config) in (0, 2, 3)
    assert time.perf_counter() - start < 5


# -- the JSON writer -----------------------------------------------------------

_TOKEN = '"basis": NaN'
# quotes, backslashes, non-ASCII and control characters, and text shaped like
# a basis key and a value no report holds, which a writer that edited its
# output as text could mistake for its own
_ADVERSARIAL = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "é中", "\x00\x1f\n\t", _TOKEN, "basis", "NaN"]),
    st.builds(lambda a, b: a + _TOKEN + b, st.text(max_size=3), st.text(max_size=3)),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _ADVERSARIAL,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_ADVERSARIAL, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _bases(draw):
    """Bases in the sparse `_Basis` form of `_basis_payload`: each vector a
    {position: covector} dict, the zero covector drawn like the others (so
    it can be adversarial or empty), and the held covectors drawn from a
    small pool that holds the zero covector too.  As `_basis_payload` makes
    them, one list may be held at several positions and by several vectors;
    the pool also holds equal lists that are distinct objects, so a writer
    that keys its texts by identity must still write each one."""
    n = draw(st.integers(0, 3))
    covector = st.lists(_ADVERSARIAL, min_size=n, max_size=n)
    zero = draw(st.just(["0"] * n) | covector)
    pool = [zero] + draw(st.lists(covector, max_size=4))
    pool += [list(cov) for cov in draw(st.lists(st.sampled_from(pool), max_size=2))]
    width = draw(st.integers(0, 4))
    held = st.dictionaries(st.integers(0, width - 1), st.sampled_from(pool)) if width else st.just({})
    return _Basis(width, zero, draw(st.lists(held, max_size=4)))


@st.composite
def _reports(draw):
    rep = {
        "schema": "tropctl-report/1",
        "command": draw(_ADVERSARIAL),
        "inputs": draw(
            st.lists(st.fixed_dictionaries({"path": _ADVERSARIAL, "sha256": _ADVERSARIAL}), max_size=2)
        ),
        "warnings": draw(st.lists(_ADVERSARIAL, max_size=2)),
    }
    # other fields; a "basis" always holds a basis
    keys = _ADVERSARIAL.filter(lambda k: k not in rep and k != "basis")
    rep.update(draw(st.dictionaries(keys, _JSON, max_size=3)))
    if draw(st.booleans()):
        rep["basis"] = draw(_bases())
    return rep


def _dense(rep) -> dict:
    """The report with its basis as written: each vector a list of its
    `width` covectors, the zero covector at each position it does not hold."""
    if "basis" not in rep:
        return rep
    width, zero, vectors = rep["basis"]
    return {**rep, "basis": [[vector.get(i, zero) for i in range(width)] for vector in vectors]}


def _json_module_text(reports) -> str:
    payload = [_dense(rep) for rep in reports]
    return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2, sort_keys=True) + "\n"


_ZERO = ["0", "0"]
_HEAD = {"schema": "tropctl-report/1", "command": _TOKEN, "inputs": [{"path": '"\\é\x01'}], "warnings": []}


@settings(max_examples=150, deadline=None)
@given(reports=st.lists(_reports(), min_size=1, max_size=3))
@example(
    reports=[{**_HEAD, "basis": _Basis(3, _ZERO, [])}, {**_HEAD, "basis": _Basis(3, _ZERO, [{1: ["1", "-1/2"]}, {}])}]
)
@example(reports=[{**_HEAD, "basis": _Basis(0, [], [{}, {}])}, {**_HEAD, "basis": _Basis(2, [], [{0: []}])}])
def test_print_json_matches_the_json_module(reports):
    out = io.StringIO()
    with redirect_stdout(out):
        _print_json(reports)
    assert out.getvalue() == _json_module_text(reports)


_COVECTORS = st.lists(st.fractions(max_denominator=7), min_size=2, max_size=2).map(tuple)


@settings(max_examples=100, deadline=None)
@given(pool=st.lists(_COVECTORS, min_size=1, max_size=4), data=st.data())
def test_basis_payload_writes_each_covector_as_its_strings(pool, data):
    """`_basis_payload` makes the strings of a covector object once; a
    covector held by several flags, and an equal one that is another
    object, still read as their own strings."""
    pool += [tuple([*cov]) for cov in pool]  # equal covectors, other objects
    keys = ["a", "b", "c", "d"]
    held = st.dictionaries(st.sampled_from(keys), st.sampled_from(pool))
    basis = data.draw(st.lists(held, max_size=4))
    width, zero, vectors = _basis_payload(keys, basis, 2)
    assert (width, zero) == (4, ["0", "0"])
    assert vectors == [{keys.index(k): [str(x) for x in cov] for k, cov in a.items()} for a in basis]


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), Fraction(1, 2), ("a", "b"), (3, ["0"], []), {"nested": [Fraction(2)]}],
    ids=["float", "nan", "fraction", "tuple", "basis-shaped-tuple", "nested"],
)
def test_the_writer_rejects_what_no_report_holds(value):
    """No report may hold a float, a Fraction or a tuple other than a
    `_Basis`; json.dumps would print the float as a number and the tuples
    as lists."""
    with redirect_stdout(io.StringIO()), pytest.raises(TypeError):
        _print_json([{**_HEAD, "value": value}])


def test_a_genus_40_xi_report_matches_the_json_module(tmp_path, monkeypatch):
    import tropctl.cli

    curve = write_json(tmp_path / "chain.json", serialize_curve(random_loopchain_curve(random.Random(1), 3, 40)))
    seen = []
    print_json = tropctl.cli._print_json
    monkeypatch.setattr(tropctl.cli, "_print_json", lambda reports: (seen.extend(reports), print_json(reports)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["obstruction", curve, "--method", "xi", "--format", "json"]) == 0
    (rep,) = seen
    width, _zero, vectors = rep["basis"]
    assert len(vectors) == rep["dimH"] == 40 and width == len(rep["flags"])
    assert out.getvalue() == _json_module_text(seen)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_74_without_a_traceback(tmp_path, fmt):
    rng = random.Random(7)
    curve = write_json(tmp_path / "chain.json", serialize_curve(random_loopchain_curve(rng, 8, 12)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["obstruction", curve, "--format", fmt]) == 0
    assert len(out.getvalue()) > 128 * 1024  # twice a pipe's 64 KB buffer
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tropctl", "obstruction", curve, "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(16)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 74
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
