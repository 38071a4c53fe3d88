"""Byte-identity of every subcommand's report on the frozen fixtures, in
both output formats.

Each case runs `main([..., "--format", fmt])` from inside a directory that
holds the fixture files under fixed names, so the reported input paths and
digests are the same on every machine.  Standard output must equal, byte
for byte, the report stored for the case under `tests/golden/`
(`<fixture>-<command>.json` or `.txt`), and the exit code the one stored in
`tests/golden/exit-codes.json`: any change to a report, down to the order
of a basis or the spelling of a rational, is a change of behaviour and
fails here with a unified diff.  `tests/update_golden.py` rewrites the
stored reports from the current code, so the diff of `tests/golden/` shows
a change for review.
"""

import difflib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tropctl import graphs, obstruction, residues
from tropctl.cli import main

import fixtures

LAURENT_534 = {"vertices": {"V": {"series": [[], [[-2, "1"]], [[-4, "1"], [-1, "1/2"]]]}}}
LAURENT_536 = {"vertices": {"V": {"series": [[], [[-3, "1"]], [[-5, "1"]]]}}}

FILES = {
    "square.json": fixtures.square_loop_doc(),
    "gamma1.json": fixtures.gamma1_doc(),
    "gamma2.json": fixtures.gamma2_doc(),
    "ex534.json": fixtures.ex534_doc(),
    "ex536.json": fixtures.ex536_doc(),
    "chains.json": fixtures.junction_chains_doc(),
    "ex534.config.json": {"vertices": {"V": {"coords": ["0", "1", "-2"]}}},
    "ex536.config.json": {"vertices": {"V": {"coords": ["0", "1", "2"]}}},
    "ex534.laurent.json": LAURENT_534,
    "ex536.laurent.json": LAURENT_536,
    "star.model.json": {
        "ambient_dim": 4,
        "edges": [
            {"label": "E1", "direction": [1, 0, 0, 0]},
            {"label": "E2", "direction": [0, 1, 0, 0], "weight": 2},
            {"label": "E3", "direction": [0, 0, 1, 0], "bounded": False},
            {"label": "E4", "direction": [0, 0, 0, 1]},
            {"label": "E5", "direction": [-1, -2, -1, -1]},
        ],
        "coords": ["0", "1/2", "-3", "5"],
    },
}

CURVES = ("square", "gamma1", "gamma2", "ex534", "ex536")


def _cases():
    for name in CURVES:
        f = f"{name}.json"
        yield (name, "validate"), ["validate", f]
        yield (name, "info"), ["info", f]
        yield (name, "obstruction-chain"), ["obstruction", f, "--method", "chain"]
        yield (name, "obstruction-xi"), ["obstruction", f, "--method", "xi"]
        yield (name, "classify"), ["classify", f]
        yield (name, "abundancy"), ["abundancy", f]
        yield (name, "genus1-check"), ["genus1-check", f]
    for name in ("ex534", "ex536"):
        f = f"{name}.json"
        yield (name, "obstruction-xi-config"), [
            "obstruction", f, "--method", "xi", "--config", f"{name}.config.json"]
        yield (name, "phylo"), ["phylo", f, "--laurent", f"{name}.laurent.json"]
        yield (name, "compare"), ["compare", f, "--laurent", f"{name}.laurent.json"]
        yield (name, "compare-t0"), [
            "compare", f, "--laurent", f"{name}.laurent.json", "--t0", "1/100"]
    # two junctions, a closed chain and a chain walked against its smallest edge
    yield ("chains", "obstruction-chain"), ["obstruction", "chains.json", "--method", "chain"]
    yield ("chains", "obstruction-xi"), ["obstruction", "chains.json", "--method", "xi"]
    yield ("chains", "classify"), ["classify", "chains.json"]
    yield ("chains", "abundancy"), ["abundancy", "chains.json"]
    yield ("all", "validate-batch"), ["validate"] + [f"{c}.json" for c in CURVES]
    # every curve command takes many files; a --laurent file is read for each
    yield ("all", "obstruction-chain-batch"), ["obstruction"] + [f"{c}.json" for c in CURVES] + ["--method", "chain"]
    yield ("all", "classify-batch"), ["classify"] + [f"{c}.json" for c in CURVES]
    yield ("all", "abundancy-batch"), ["abundancy"] + [f"{c}.json" for c in CURVES]
    yield ("all", "genus1-check-batch"), ["genus1-check"] + [f"{c}.json" for c in CURVES]
    yield ("all", "phylo-batch"), ["phylo"] + [f"{c}.json" for c in CURVES] + ["--laurent", "ex536.laurent.json"]
    yield ("all", "compare-batch"), ["compare"] + [f"{c}.json" for c in CURVES] + ["--laurent", "ex536.laurent.json"]
    yield ("star", "local-model"), ["local-model", "--model", "star.model.json"]
    yield ("seed3", "selftest"), ["selftest", "--seed", "3", "--cases", "4"]


CASES = dict(_cases())


def write_fixtures(directory):
    for name, doc in FILES.items():
        (directory / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


GOLDEN_DIR = Path(__file__).parent / "golden"
EXIT_CODES_PATH = GOLDEN_DIR / "exit-codes.json"


def case_name(key) -> str:
    return "-".join(key)


def golden_path(key, fmt) -> Path:
    return GOLDEN_DIR / f"{case_name(key)}.{'txt' if fmt == 'text' else 'json'}"


def run_report(argv, fmt="json") -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--format", fmt])
    return code, buf.getvalue().encode()


def check_report(name, want: bytes, got: bytes):
    """Raise AssertionError with a unified diff unless got is want."""
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(keepends=True), got.decode().splitlines(keepends=True), name, "stdout"
        )
        raise AssertionError(f"stdout differs from {name}:\n{''.join(diff)}")


def assert_golden(key, fmt="json"):
    code, out = run_report(CASES[key], fmt)
    path = golden_path(key, fmt)
    check_report(f"tests/golden/{path.name}", path.read_bytes(), out)
    assert code == json.loads(EXIT_CODES_PATH.read_text())[case_name(key)]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_fixtures(d)
    return d


@pytest.mark.parametrize("key", sorted(CASES), ids=case_name)
def test_report_bytes_match_golden(key, fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)
    assert_golden(key)


# the commands that report dimensions only: they compute ranks and build no basis
RANK_ONLY = sorted(key for key in CASES if key[1] in ("classify", "abundancy", "compare", "compare-t0"))


@pytest.mark.parametrize("key", RANK_ONLY, ids=case_name)
def test_dimension_reports_build_no_basis(key, fixture_dir, monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a dimension-only report built a basis")

    for module in (obstruction, residues):
        monkeypatch.setattr(module, "flag_system", no_basis)
    monkeypatch.chdir(fixture_dir)
    assert_golden(key)


@pytest.mark.parametrize("key", sorted(CASES), ids=case_name)
def test_text_report_bytes_match_golden(key, fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)
    assert_golden(key, "text")


def test_a_one_character_change_fails_with_a_diff():
    want = golden_path(("gamma1", "obstruction-chain"), "text").read_bytes()
    i = len(want) // 2
    planted = want[:i] + (b"y" if want[i : i + 1] == b"x" else b"x") + want[i + 1 :]
    with pytest.raises(AssertionError) as err:
        check_report("gamma1-obstruction-chain.txt", planted, want)
    assert "\n--- gamma1-obstruction-chain.txt\n+++ stdout\n@@ " in str(err.value)


# the commands that read the loop part and its chains
CHAIN_READERS = sorted(key for key in CASES if key[1].startswith(("obstruction", "classify", "compare")))


def test_each_graph_cuts_its_chains_at_most_once(fixture_dir, monkeypatch):
    cuts = Counter()
    cut_chains = graphs._cut_chains

    def counted(g, loop):
        cuts[g] += 1
        return cut_chains(g, loop)

    monkeypatch.setattr(graphs, "_cut_chains", counted)
    monkeypatch.chdir(fixture_dir)
    for key in CHAIN_READERS:
        run_report(CASES[key])
    assert cuts and max(cuts.values()) == 1
