"""Command line front end: parse inputs, dispatch computations, emit reports.

Every command takes one path, `_run`: it loads each curve file (the files of
every curve command, none for `local-model` and `selftest`), reads and
parses the command's --config, --laurent or --model file (`_DATA_PARSERS`),
and calls the command's fields function.  There is one report per curve
file; a file that fails gives an error report, and the batch goes on.  The
data file is read and parsed once per call, for the first curve file that
gets that far, and what it holds is shared by the reports of the batch; a
read or a parse that fails is tried again for the next curve file, which
then reports the same error.  The exit code is the first error's.  A report
stamps each input with its path and sha256, an error report with the input
paths as given.  An argv that starts with a command is read by that
command's own parser, with the same result and the same usage errors as the
top-level parser, which would hand it all of that argv anyway.

Reports are deterministic: machine mode writes one JSON object (or a JSON
array for a batch of several files), byte for byte what
json.dumps(payload, indent=2, sort_keys=True) would give, so identical
inputs produce byte-identical output.  The writer streams the report to
standard output as it goes and takes only what a report holds: dicts, lists,
strings, integers, booleans, None and a basis in the block form the solvers
give (`_Basis`), which it expands to flags as it writes (`_dense`).  A
float, a Fraction or any other tuple raises TypeError.  Exit codes: 0
success, 1 selftest found a failing invariant, 2 input validation error, 3
computation precondition failure, 64 usage error, 74 standard output closed
early.
"""

from __future__ import annotations

import argparse
import functools
import glob as globmod
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .curves import contract_image, degree, expected_dim, is_immersive, parse_curve
from .errors import TropctlError, ValidationError
from .laurent import PhyloLeaf, clusters, parse_laurent_doc
from .inputs import rationals, read_doc, vertex_lists
from .obstruction import (
    abundancy_map,
    classify_report,
    compatible_numbering_space,
    dual_obstruction_chain,
    reduced_abundancy_map,
)
from .residues import (
    a_system,
    degeneration_compare,
    genus1_loop_criterion,
    model_from_doc,
    phylo_stars,
    standard_local_model,
    xi_map,
)

SCHEMA = "tropctl-report/1"
EX_USAGE = 64
EX_IOERR = 74
# selftest runs about 1 ms a case, so the largest run ends within seconds
# (2,500 cases took 2.4 s) and no --cases value can keep the process busy
# for days
MAX_SELFTEST_CASES = 10_000
DIM_KEYS = (
    "dimH",
    "d",
    "d0",
    "paramDim",
    "expectedDim",
    "guaranteedDimH",
    "spanDim",
    "genus",
    "e",
    "ambientDim",
    "rank",
    "targetDim",
    "reducedRank",
    "reducedTargetDim",
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _case_count(text: str) -> int:
    """--cases as an int from 1 to MAX_SELFTEST_CASES; anything else is a
    usage error."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    if count > MAX_SELFTEST_CASES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SELFTEST_CASES}, got {count}")
    return count


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="tropctl", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is byte-stable across runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # each command's own parser, by name, for _parse_args

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        # every command's namespace has the three names _run reads: the curve
        # files (one None for a command that reads no curve), --glob, and the
        # one --config, --laurent or --model file
        p.set_defaults(files=[None], glob=False, data=None)
        return p

    def curve_cmd(name, help_text):
        p = command(name, help_text)
        p.add_argument("files", nargs="+", help="curve files (or glob patterns with --glob)")
        p.add_argument("--glob", action="store_true", help="expand the arguments as glob patterns")
        return p

    curve_cmd("validate", "check a curve file against the data model")
    curve_cmd("info", "genus, degree, ends, and expected dimension")

    p = curve_cmd("obstruction", "dual obstruction space dimension and basis")
    p.add_argument("--method", choices=("chain", "xi"), default="chain")
    p.add_argument("--config", dest="data", metavar="CONFIG", help="marked-coordinate file for higher-valent vertices")

    curve_cmd("classify", "superabundancy verdict under both definitions")
    curve_cmd("abundancy", "abundancy map rank and surjectivity, full and reduced")

    p = curve_cmd("phylo", "per-vertex resolution trees from Laurent order data")
    p.add_argument("--laurent", dest="data", metavar="LAURENT", required=True, help="Laurent series file")

    p = command("local-model", "residue system of a standalone local vertex model")
    p.add_argument("--model", dest="data", metavar="MODEL", required=True, help="local model file")

    curve_cmd("genus1-check", "loop-direction span criterion for genus-1 curves")

    p = curve_cmd("compare", "degenerate vs resolved obstruction dimensions")
    p.add_argument("--laurent", dest="data", metavar="LAURENT", required=True, help="Laurent series file")
    p.add_argument("--t0", default=None, help="evaluation point, a rational in (0,1)")

    p = command("selftest", "seeded randomized invariant battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_case_count, default=25)
    return parser


# -- input plumbing ----------------------------------------------------------


def _load_curve(path: str):
    doc, stamp = read_doc(path)
    return parse_curve(doc), stamp


def _curve_paths(args) -> list:
    """The curve file of each report: the `files` as given or, with --glob,
    the files (not directories) their patterns match; [None] for a command
    that reads no curve."""
    if not args.glob:
        return list(args.files)
    out = [p for pattern in args.files for p in sorted(globmod.glob(pattern, recursive=True)) if not os.path.isdir(p)]
    if not out:
        raise ValidationError("no-input", "glob patterns matched no files")
    return out


def _parse_config(doc, path: str) -> dict:
    entries = vertex_lists(doc, "coords", "bad-config", "config file", path=path)
    return {vid: rationals(items, "coords", vid) for vid, items in entries}


def _check_image_vertices(entries: dict, image, what: str):
    """Raise an unknown-vertex ValidationError unless every key of the
    per-vertex entries of a --config or --laurent file is a vertex of the
    image curve; a source vertex that contract_image merged away is not."""
    known = set(image.graph.vertex_ids)
    for vid in sorted(entries):
        if vid not in known:
            raise ValidationError("unknown-vertex", f"{what} names unknown vertex {vid}", vertex=vid)


# -- report helpers ----------------------------------------------------------


class _Basis(NamedTuple):
    """A report's basis in the block form the solvers give: `width`
    positions, the covector length `n`, `places` (places[i] the
    (position, sign) pairs that block i fills with sign times its
    covector) and each vector a {block: covector} dict of the blocks where
    it is nonzero, its covectors n-tuples of rationals.  A position that no
    held block fills carries zero.  The writers print the dense form
    through `_dense`, each vector a list of `width` covectors; the JSON
    writer knows a basis by this type."""

    width: int
    n: int
    places: list
    vectors: list


def _dense(basis: _Basis, vector: dict, render) -> list:
    """The rendered covectors at a vector's `width` positions: render of the
    zero covector, then at each place of each block the vector holds, render
    of the block's covector or, at a place of sign -1, of its negation.
    Each covector and negation is rendered at most once."""
    row = [render((0,) * basis.n)] * basis.width
    for i, cov in vector.items():
        text, neg = render(cov), None
        for p, sign in basis.places[i]:
            if sign < 0 and neg is None:
                neg = render([-x for x in cov])
            row[p] = text if sign > 0 else neg
    return row


def _report(command, stamps, fields) -> dict:
    """A report of a command's fields, whose warnings it sorts, or an error
    report of {"error": payload}, which has no warnings."""
    rep = {"schema": SCHEMA, "command": command, "inputs": stamps, **fields}
    if "error" not in fields:
        rep["warnings"] = sorted(fields.get("warnings", ()))
    return rep


# -- fields of each command --------------------------------------------------
#
# A fields function takes the curve (None for local-model and selftest), what
# the command's --config, --laurent or --model file holds, as its
# `_DATA_PARSERS` entry parsed it (None without one), and the parsed
# arguments, and returns the fields of the report, with any "warnings" among
# them.


def _curve_summary(curve) -> dict:
    g = curve.graph
    return {
        "genus": g.genus(),
        "e": len(g.unbounded_edge_ids()),
        "ambientDim": curve.n,
        "vertices": len(g.vertex_ids),
        "edges": len(g.edge_ids),
        "boundedEdges": len(g.bounded_edge_ids()),
        "immersive": is_immersive(curve),
        "trivalent": g.is_trivalent(),
    }


def _validate_fields(curve, doc, args) -> dict:
    return {"valid": True, **_curve_summary(curve)}


def _info_fields(curve, doc, args) -> dict:
    fields = _curve_summary(curve)
    fields["expectedDim"] = expected_dim(curve)
    fields["degree"] = [{"vector": list(v), "multiplicity": m} for v, m in degree(curve)]
    return fields


def _obstruction_fields(curve, coords, args) -> dict:
    if args.method == "chain":
        res = dual_obstruction_chain(curve)
        fields = {
            "method": "chain",
            "dimH": res["dim"],
            "paramDim": expected_dim(curve) + res["dim"],
        }
    else:
        coords = coords or {}
        image = contract_image(curve)
        _check_image_vertices(coords, image, "config")
        res = xi_map(image, coords)
        fields = {"method": "xi", "dimH": res["dim"]}
        if image.graph.is_trivalent():
            fields["paramDim"] = expected_dim(image) + res["dim"]
        else:
            fields["warnings"] = ["paramDim omitted: the dimension formula is stated for 3-valent types"]
    fields["flags"] = [list(f) for f in res["flag_order"]]
    fields["basis"] = _Basis(len(res["flag_order"]), curve.n, res["places"], res["basis"])
    fields["superabundant"] = res["dim"] > 0
    return fields


def _classify_fields(curve, doc, args) -> dict:
    rep = classify_report(curve)
    fields = {
        "dimH": rep["dim_obstruction_dual"],
        "expectedDim": rep["expected_dim"],
        "paramDim": rep["parameter_dim"],
        "superabundantDef1": rep["superabundant_def1"],
        "abundancyRank": rep["abundancy_rank"],
        "abundancyTargetDim": rep["abundancy_target_dim"],
        "superabundantDef2": rep["superabundant_def2"],
    }
    if rep["superabundant_def2"] is None:
        fields["agree"] = None
        fields["warnings"] = [f"abundancy map unavailable: {rep['abundancy_note']}"]
    else:
        fields["agree"] = rep["superabundant_def1"] == rep["superabundant_def2"]
    fields["verdict"] = "superabundant" if rep["superabundant_def1"] else "non-superabundant"
    return fields


def _abundancy_fields(curve, doc, args) -> dict:
    c = contract_image(curve)
    n = c.n
    g = c.graph.genus()
    rank, surjective = abundancy_map(c)
    red_rank, cut_edges = reduced_abundancy_map(c)
    red_target = (n - 1) * g
    return {
        "genus": g,
        "rank": rank,
        "targetDim": n * g,
        "surjective": surjective,
        "reducedRank": red_rank,
        "reducedTargetDim": red_target,
        "reducedSurjective": red_rank == red_target,
        "cutEdges": list(cut_edges),
        "agree": surjective == (red_rank == red_target),
        "verdict": "abundant" if surjective else "superabundant",
    }


def _serialize_phylo(tree):
    if isinstance(tree, PhyloLeaf):
        return {"leaf": tree.label}
    return {
        "depth": tree.depth,
        "children": [_serialize_phylo(tree.first), _serialize_phylo(tree.second)],
    }


def _cluster_payload(tree) -> list:
    return sorted(sorted(c) for c in clusters(tree))


def _phylo_fields(curve, series_map, args) -> dict:
    image = contract_image(curve)
    _check_image_vertices(series_map, image, "Laurent data")
    vertices, warnings = {}, []
    for vid, star, tree in phylo_stars(image, series_map):
        if star is not None:
            vertices[vid] = {
                "leaves": [rec.label for rec in star.finite],
                "tree": _serialize_phylo(tree),
                "clusters": _cluster_payload(tree),
            }
        elif image.graph.valence(vid) > 3:
            warnings.append(f"higher-valent vertex {vid} has no Laurent data")
    return {"vertices": vertices, "warnings": warnings}


def _local_model_fields(curve, model, args) -> dict:
    res = a_system(model)
    return {
        "dimH": res["dim"],
        "r": model.r,
        "ambientDim": model.n,
        "boundedCount": sum(1 for rec in model.slots if rec.bounded),
        "infinitySlot": model.infinity.label,
        "coords": [str(c) for c in model.coords],
        "variables": list(res["variables"]),
        "basis": _Basis(len(res["variables"]), model.n, res["places"], res["basis"]),
    }


def _genus1_fields(curve, doc, args) -> dict:
    res = genus1_loop_criterion(curve)
    return {
        "spans": res["smoothable"],
        "guaranteedDimH": res["dim_h"],
        "spanDim": res["span_dim"],
        "ambientDim": curve.n,
        "loopVertices": list(res["loop_vertices"]),
        "annihilatorBasis": [list(v) for v in res["h_basis"]],
        "verdict": "smoothable" if res["smoothable"] else "undetermined",
    }


def _compare_fields(curve, series_map, args) -> dict:
    t0 = None if args.t0 is None else rationals([args.t0], "--t0")[0]
    image = contract_image(curve)
    _check_image_vertices(series_map, image, "Laurent data")
    res = degeneration_compare(image, series_map, t0=t0)
    return {
        "d": res["d"],
        "d0": res["d0"],
        "semicontinuous": res["semicontinuous"],
        "stabilized": res["stabilized"],
        "tUsed": str(res["t_used"]),
        "dimsSeen": list(res["dims_seen"]),
        "clusters": {vid: _cluster_payload(tree) for vid, tree in res["trees"].items()},
        "verdict": "semicontinuous" if res["semicontinuous"] else "violation",
    }


def _selftest_fields(curve, doc, args) -> dict:
    from . import randgen  # only selftest needs it; importing it costs every command's start-up

    rng = random.Random(args.seed)
    failures = []
    checks = {"numbering": 0, "methods": 0, "abundancy": 0, "localModel": 0}

    for i in range(args.cases):
        genus = rng.randint(0, 3)
        graph = randgen.random_trivalent_graph(rng, genus)
        checks["numbering"] += 1
        if compatible_numbering_space(graph)["dim"] != genus:
            failures.append(f"numbering case {i}: dim != genus {genus}")

    for i in range(args.cases):
        curve = randgen.random_immersive_curve(rng, 3)
        chain = dual_obstruction_chain(curve)
        # coordinates at every vertex: xi_map writes the residue sums there too
        xi = xi_map(curve, {v: range(curve.graph.valence(v) - 1) for v in curve.graph.vertex_ids})
        checks["methods"] += 1
        if chain["dim"] != xi["dim"]:
            failures.append(f"methods case {i}: chain dim {chain['dim']} != xi dim {xi['dim']}")
        n = curve.n
        g = curve.graph.genus()
        red_rank, _cut = reduced_abundancy_map(curve)
        checks["abundancy"] += 1
        if chain["dim"] != (n - 1) * g - red_rank:
            failures.append(f"abundancy case {i}: identity violated")

    for i in range(args.cases):
        r = rng.randint(1, 3)
        n = r + 1 + rng.randint(0, 2)
        s = rng.randint(2, r + 2)
        bounded = [True] * s + [False] * (r + 2 - s)
        rng.shuffle(bounded)
        coords = randgen.random_marked_coords(rng, r + 1)
        model = standard_local_model(r, n, coords, bounded=bounded)
        expected = r * (s - 2) + (n - r - 1) * (s - 1)
        checks["localModel"] += 1
        if a_system(model)["dim"] != expected:
            failures.append(f"local model case {i}: dimension != {expected}")

    return {
        "seed": args.seed,
        "cases": args.cases,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
        "verdict": "pass" if not failures else "fail",
    }


_FIELDS = {
    "validate": _validate_fields,
    "info": _info_fields,
    "obstruction": _obstruction_fields,
    "classify": _classify_fields,
    "abundancy": _abundancy_fields,
    "phylo": _phylo_fields,
    "local-model": _local_model_fields,
    "genus1-check": _genus1_fields,
    "compare": _compare_fields,
    "selftest": _selftest_fields,
}

# The parser of each command's --config, --laurent or --model document, called
# with the document and its path
_DATA_PARSERS = {
    "obstruction": _parse_config,
    "phylo": lambda doc, path: parse_laurent_doc(doc),
    "local-model": lambda doc, path: model_from_doc(doc),
    "compare": lambda doc, path: parse_laurent_doc(doc),
}


# -- rendering ---------------------------------------------------------------


def _print_json(reports):
    """Print the reports, byte for byte as json.dumps(payload, indent=2,
    sort_keys=True) would, payload the one report or the list of several,
    each basis in its dense form.

    With indent, json.dumps runs json's pure-Python encoder; `_write_json`
    does that work with fewer steps.  It writes each item as it reaches it,
    so a reader that closes standard output early is met by a write inside
    `main`, which exits 74; with one write of the whole text, that write
    raised no error and the command exited 0.  A value no report may hold,
    such as a float (which json.dumps would print) or a Fraction, raises
    TypeError.
    """
    write = sys.stdout.write
    _write_json(write, reports[0] if len(reports) == 1 else reports, "")
    write("\n")


def _write_json(write, value, indent):
    """Write json.dumps(value, indent=2, sort_keys=True) for a value whose
    line is indented by `indent`: dicts (str keys, sorted), lists, str, int,
    bool, None and a `_Basis`, written dense by `_write_basis`."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        inner = indent + "  "
        opening = "{\n" + inner
        for key in sorted(value):
            write(opening + encode_basestring_ascii(key) + ": ")
            _write_json(write, value[key], inner)
            opening = ",\n" + inner
        write("\n" + indent + "}" if value else "{}")
    elif isinstance(value, list):
        inner = indent + "  "
        opening = "[\n" + inner
        for item in value:
            write(opening)
            _write_json(write, item, inner)
            opening = ",\n" + inner
        write("\n" + indent + "]" if value else "[]")
    elif value is None:
        write("null")
    elif value is True or value is False:
        write("true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, _Basis):
        _write_basis(write, value, indent)
    else:
        raise TypeError(f"a report holds no {type(value).__name__}: {value!r}")


def _write_basis(write, basis, pad):
    """Write json.dumps of the dense form of a `_Basis`, indent=2, for a
    basis whose line is indented by pad, one vector at a time, each row
    filled by `_dense`.  A covector's entries are written as the strings of
    its rationals, which need no escaping."""
    vec_pad, cov_pad = pad + "  ", pad + "    "

    def block(items, indent):  # the list of these item texts, its "]" at indent
        sep = ",\n" + indent + "  "
        return "[" + sep[1:] + sep.join(items) + "\n" + indent + "]" if items else "[]"

    def text(cov):
        return block(['"' + str(x) + '"' for x in cov], cov_pad)

    opening = "[\n" + vec_pad
    for vector in basis.vectors:
        write(opening)
        opening = ",\n" + vec_pad
        write(block(_dense(basis, vector, text), vec_pad))
    write("\n" + pad + "]" if basis.vectors else "[]")


def _format_scalar(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def _print_text_report(rep):
    print(f"== {rep['command']}", " ".join(s["path"] for s in rep["inputs"]))
    if "error" in rep:
        payload = rep["error"]
        ctx = payload.get("context") or {}
        shown = {k: v if isinstance(v, str) else json.dumps(v, sort_keys=True) for k, v in ctx.items()}
        extra = "".join(f" {k}={v}" for k, v in sorted(shown.items()))
        print(f"error[{payload['error_type']}]: {payload['message']}{extra}")
        return
    keys = [k for k in rep if k not in ("schema", "command", "inputs", "warnings")]
    ordered = [k for k in DIM_KEYS if k in keys]
    ordered += sorted(k for k in keys if k not in ordered)
    for key in ordered:
        value = rep[key]
        if key in ("basis", "flags", "variables", "annihilatorBasis"):
            continue
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{key}: {_format_scalar(value)}")
    if "basis" in rep:
        basis = rep["basis"]
        labels = ["/".join(map(str, f)) for f in rep["flags"]] if "flags" in rep else list(map(str, rep["variables"]))
        print("basis:" if basis.vectors else "basis: (empty)")
        for bi, vec in enumerate(basis.vectors, start=1):
            print(f"  vector {bi}:")
            for label, text in zip(labels, _dense(basis, vec, lambda cov: ", ".join(map(str, cov)))):
                print(f"    {label}: ({text})")
    if "annihilatorBasis" in rep:
        print(f"annihilatorBasis: {json.dumps(rep['annihilatorBasis'])}")
    for w in rep.get("warnings", ()):
        print(f"warning: {w}")


def _print_text(reports):
    for i, rep in enumerate(reports):
        if i:
            print()
        _print_text_report(rep)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # the reader closed standard output; what is still buffered goes to
        # devnull, so the flush at interpreter exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_IOERR


def _parse_args(parser, argv) -> argparse.Namespace:
    """parser.parse_args(argv): the same namespace, or the same usage error.

    The top-level parser hands everything after a command name to that
    command's own parser, so an argv that starts with one is read by the
    command's parser alone, and what it leaves is the top-level parser's
    "unrecognized arguments" error.  Any other argv, such as none, -h or an
    unknown command, goes through parse_args itself."""
    own = parser.commands.get(argv[0]) if argv else None
    if own is None:
        return parser.parse_args(argv)
    args, extras = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _run(argv) -> int:
    parser = build_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
    if args.command == "obstruction" and args.data is not None and args.method != "xi":
        parser.error("argument --config: only with --method xi")
    fields_of, parse_data = _FIELDS[args.command], _DATA_PARSERS.get(args.command)

    @functools.cache  # once per call: main may run again in one process, on changed files
    def read_data(path):
        doc, stamp = read_doc(path)
        return parse_data(doc, path), stamp

    reports, code = [], 0
    try:
        curve_paths = _curve_paths(args)
    except TropctlError as err:  # --glob matched no file
        curve_paths, code = [], err.exit_code
        reports.append(_report(args.command, [], {"error": err.payload()}))
    for curve_path in curve_paths:
        try:
            curve, data, stamps = None, None, []
            if curve_path is not None:
                curve, stamp = _load_curve(curve_path)
                stamps.append(stamp)
            if args.data is not None:
                data, stamp = read_data(args.data)
                stamps.append(stamp)
            fields = fields_of(curve, data, args)
            if args.command == "selftest" and not fields["passed"]:
                code = code or 1  # selftest found a failing invariant
        except TropctlError as err:
            stamps = [{"path": path} for path in (curve_path, args.data) if path is not None]
            fields, code = {"error": err.payload()}, code or err.exit_code
        reports.append(_report(args.command, stamps, fields))
    (_print_json if args.format == "json" else _print_text)(reports)
    return code


if __name__ == "__main__":
    sys.exit(main())
