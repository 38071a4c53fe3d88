"""The input boundary: every file tropctl reads, and every rule for a field
that two of its file kinds share.

`read_doc` reads the four kinds of JSON file: curve files
(`curves.parse_curve`), `--model` files (`residues.model_from_doc`),
`--config` files (`cli._parse_config`) and `--laurent` files
(`laurent.parse_laurent_doc`).  Each of those parsers keeps the checks of
its own format and calls the readers here for the field shapes it shares
with another kind: `ambient_dim`, `integer_direction` and `positive_weight`
(curve and model files), `rationals` (curve positions, `--config` and
`--model` coordinates) and `vertex_lists` (the envelope of `--config` and
`--laurent` files).  An ambient dimension is at most MAX_DIM, and every
number a reader returns has at most MAX_BITS bits, `--t0` included (it
goes through `rationals`); Laurent coefficients go through `parse_rational`
alone and are not bounded.  Every id a file gives, a curve's vertex and
edge ids, the vertex keys of `--config` and `--laurent` files and the edge
labels of a `--model` file, has at most MAX_ID characters (`bounded_id`),
so a message or report context that names one stays short.  A reader
takes the caller's error kind and the id of what it reads, and builds a
message only when a check fails.

A reader checks the common shape first, by exact type: `rationals` an
exact str that int() reads, after strip(), as an int within MAX_BITS, and
`integer_direction` an exact list of n exact ints within MAX_BITS, in one
loop.  Anything else, a Fraction string or a fault, goes on to the general
path, which words every message, so a fast path changes no value, type or
error, and the first fault of a list is still the one reported.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

from .errors import ValidationError

# Largest bit length of a numerator, a denominator, a direction entry or an
# edge weight read from a curve, --config or --model file (40 bits hold
# every 12-digit integer).  Exact elimination slows with the size of its
# entries, and a weight multiplies every entry of its edge's direction.  The
# worst star measured at the bound is the 16-valent 40-bit star of the
# residues.MAX_VALENCE note, which gives its time.  A 256-edge loop chain in
# Q^16 with positions at the bound takes 0.10 s for `classify` and for
# `abundancy` (whole processes, median of 7, on a shared 2-vCPU Xeon,
# Python 3.11).
# Benchmark inputs use at most 8 bits.
MAX_BITS = 40
INT_BOUND = 1 << MAX_BITS  # an int x has at most MAX_BITS bits iff -INT_BOUND < x < INT_BOUND

# Largest ambient dimension of a curve or --model file.  The worst cases
# measured behind MAX_BITS, curves.MAX_EDGES and residues.MAX_VALENCE lie in
# Q^15 and Q^16; a larger n is outside what they vouch for.  Benchmark
# inputs use n <= 12.
MAX_DIM = 16

# Longest id read from a file: a curve's vertex or edge id, a vertex key of
# a --config or --laurent file, a --model edge label.  Messages and report
# contexts name ids whole.  Fixture and benchmark ids have at most 7
# characters.
MAX_ID = 64


def read_doc(path: str):
    """(document, stamp) of the JSON file at path.  The stamp, which reports
    list under `inputs`, holds the path and the sha256 of the file's bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ValidationError("unreadable-input", f"cannot read {path}: {err.strerror}", path=path)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        reason = str(err)
    except ValueError:  # int() refuses an over-long literal
        reason = f"a number literal has more than {sys.get_int_max_str_digits()} digits"
    else:
        return doc, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    raise ValidationError("bad-json", f"{path} is not valid JSON: {reason}", path=path)


def parse_rational(text: str) -> int | Fraction:
    """Parse "p", "p/q" or a decimal such as "0.5", exactly: an integer
    string gives an int and every other string a Fraction.

    The strings accepted are those `Fraction` accepts, with surrounding
    whitespace, signs, "_" digit separators and Unicode digits, except that
    exponent notation raises ValueError: "1e10000000" is ten characters long
    but a 33-million-bit integer.  Junk raises ValueError and "p/0"
    ZeroDivisionError.  A run of more digits than Python converts to an int
    (`sys.get_int_max_str_digits()`) raises ValueError saying so, in the
    words of `read_doc`.  No message holds more than the first characters
    of the input (`excerpt`).

    An integer string is read by `int` at once, stripped, before the other
    steps: a string that `int` accepts holds no exponent and no run of too
    many digits, so those steps could not have rejected it.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {excerpt(text)}")
    text = text.strip()  # int() alone would keep some of what str.strip removes, such as "\x1c"
    try:
        return int(text)
    except ValueError:
        pass
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted, got {excerpt(text)}")
    limit = sys.get_int_max_str_digits()
    if len(text) > limit > 0:  # only so long a string can hold a run of digits int() refuses
        runs = "".join(ch if ch.isdecimal() else " " for ch in text.replace("_", "")).split()
        if max(map(len, runs), default=0) > limit:
            raise ValueError(f"a number literal has more than {limit} digits")
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"not a rational: {excerpt(text)}") from None
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {excerpt(text)}") from None


# Characters of an input that an error message shows at most
EXCERPT = 16


def excerpt(value) -> str:
    """repr(value) for an error message, or, for a value whose repr is
    longer than EXCERPT characters, only its start: a string's first EXCERPT
    characters and its length, "'xxx'... (5000 characters)", and the first
    EXCERPT characters of another value's repr, then "...".  So a message
    stays short however long the input."""
    text = repr(value)
    if len(text) <= EXCERPT:
        return text
    if isinstance(value, str):
        return f"{value[:EXCERPT]!r}... ({len(value)} characters)"
    return f"{text[:EXCERPT]}..."


def bounded_id(value: str, what: str) -> str:
    """value, a string id, unless it is longer than MAX_ID characters
    (limit); what names it in the message, such as "vertex id"."""
    if len(value) > MAX_ID:
        raise ValidationError("limit", f"{what} {excerpt(value)} is longer than {MAX_ID} characters")
    return value


def _bits(x: int | Fraction) -> int:
    """The bit length of an int, or the longer of a Fraction's numerator
    and denominator; the sign does not count.  A JSON integer is an int and
    never an int subclass other than bool, so `type(x) is int` tells a
    JSON integer from a JSON true or false here and in the readers."""
    if type(x) is int:
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _limit(x, what: str, **context) -> ValidationError:
    return ValidationError(
        "limit", f"{what}: a number of {_bits(x)} bits exceeds the maximum {MAX_BITS}", **context
    )


def ambient_dim(doc: dict, kind: str) -> int:
    """The document's `ambient_dim`: a positive integer (else kind) of at
    most MAX_DIM (else dimension-cap)."""
    n = doc.get("ambient_dim")
    if type(n) is not int or n < 1:
        raise ValidationError(kind, "ambient_dim must be a positive integer")
    if n > MAX_DIM:
        raise ValidationError("dimension-cap", f"ambient_dim {n} exceeds the maximum {MAX_DIM}")
    return n


def integer_direction(value, n: int, kind: str, edge: str) -> tuple:
    """An edge's direction as a tuple: a list of n JSON integers (else
    kind), each of at most MAX_BITS bits (else limit).  Whether it must be
    primitive or nonzero is the caller's rule."""
    if type(value) is list and len(value) == n:
        for x in value:
            if type(x) is not int or not -INT_BOUND < x < INT_BOUND:
                break
        else:
            return tuple(value)
    if not isinstance(value, list) or len(value) != n or not all([type(x) is int for x in value]):
        raise ValidationError(kind, f"edge {edge} direction must list {n} integers", edge=edge)
    for x in value:
        if x.bit_length() > MAX_BITS:
            raise _limit(x, f"edge {edge} direction", edge=edge)
    return tuple(value)


def positive_weight(value, kind: str, edge: str) -> int:
    """An edge's weight: a positive JSON integer (else kind) of at most
    MAX_BITS bits (else limit)."""
    if type(value) is not int or value < 1:
        raise ValidationError(kind, f"edge {edge} weight must be a positive integer", edge=edge)
    if value.bit_length() > MAX_BITS:
        raise _limit(value, f"edge {edge} weight", edge=edge)
    return value


def rationals(items: list, field: str, vertex: str | None = None) -> tuple:
    """The rational strings of a list, read in order by parse_rational:
    bad-rational for one it rejects, limit for one of more than MAX_BITS
    bits.  The message names "vertex <vertex> <field>", or field alone for
    a list that belongs to no vertex.  An integer string within the bound
    is read by int() in the loop, as parse_rational's first step reads it."""
    out = []
    for text in items:
        if type(text) is str:
            try:
                q = int(text.strip())
            except ValueError:
                pass
            else:
                if -INT_BOUND < q < INT_BOUND:
                    out.append(q)
                    continue
        try:
            q = parse_rational(text)
        except (ValueError, ZeroDivisionError) as exc:
            what = field if vertex is None else f"vertex {vertex} {field}"
            raise ValidationError("bad-rational", f"{what}: {exc}", vertex=vertex) from exc
        if (q.bit_length() if type(q) is int else _bits(q)) > MAX_BITS:
            raise _limit(q, field if vertex is None else f"vertex {vertex} {field}", vertex=vertex)
        out.append(q)
    return tuple(out)


def vertex_lists(doc, key: str, kind: str, name: str, **context):
    """Yield (vertex id, list) for each entry of a document {"vertices":
    {id: {key: [...]}, ...}} in file order, checking each entry as it is
    yielded.  A vertex id longer than MAX_ID characters is a limit
    error.  Another document shape is a kind error for the file, with
    context; an entry without its key list is a kind error for its vertex."""
    if not isinstance(doc, dict) or not isinstance(doc.get("vertices"), dict):
        raise ValidationError(kind, f"{name} needs a vertices object", **context)
    for vid, entry in doc["vertices"].items():
        bounded_id(vid, "vertex id")
        if not isinstance(entry, dict) or not isinstance(entry.get(key), list):
            raise ValidationError(kind, f"vertex {vid} needs a {key} list", vertex=vid)
        yield vid, entry[key]
