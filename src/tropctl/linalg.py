"""Exact dense linear algebra over the rationals.

Everything here works with `fractions.Fraction` entries; no floating point.
Matrices are immutable and row-major, and elimination is plain dense
Gauss-Jordan.  The systems built elsewhere in this package are not small:
a genus-40 loop chain in R^3 gives a 720x360 residue system, and although
such systems are more than 99% zeros, elimination is most of the run time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Raises ValueError on junk."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    return Fraction(text.strip())


def rational_str(q: Fraction) -> str:
    """Serialize a Fraction as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vec(n: int) -> tuple[Fraction, ...]:
    return (Q0,) * n


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    assert len(u) == len(v)
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v) if a and b), Q0)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def content_and_primitive(v: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Content (gcd of the entries) and primitive part of a nonzero integer
    vector, so that v = content * primitive."""
    c = gcd(*(int(x) for x in v))
    return c, tuple(int(x) // c for x in v)


def integer_primitive(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector positively parallel to the rational vector v.

    Raises ValueError on the zero vector.
    """
    fracs = [Fraction(x) for x in v]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = lcm(*(f.denominator for f in fracs))
    return content_and_primitive([f * denom_lcm for f in fracs])[1]


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*(int(x) for x in v)) == 1


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(vec(r) for r in data)
        if rows:
            cols = len(rows[0])
            assert all(len(r) == cols for r in rows), "ragged rows"
        else:
            assert cols is not None, "empty matrix needs an explicit column count"
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _raw(cls, rows: tuple, cols: int) -> "Matrix":
        # internal: rows are trusted tuples of Fractions already
        m = object.__new__(cls)
        object.__setattr__(m, "data", rows)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        return m

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def mul_vec(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        assert len(x) == self.cols
        return tuple(dot(r, x) for r in self.data)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot column indices.

        The pivot in each step is the first row with a nonzero entry in the
        lowest unprocessed column, which makes the result (and everything
        derived from it) deterministic.
        """
        m = [list(r) for r in self.data]
        pivots = []
        prow = 0
        for col in range(self.cols):
            sel = None
            for i in range(prow, len(m)):
                if m[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            m[prow], m[sel] = m[sel], m[prow]
            pv = m[prow][col]
            if pv != 1:
                inv = Q1 / pv
                m[prow] = [inv * x if x else x for x in m[prow]]
            mp = m[prow]
            for i in range(len(m)):
                if i == prow:
                    continue
                c = m[i][col]
                if not c:
                    continue
                if c == 1:
                    m[i] = [a - b if b else a for a, b in zip(m[i], mp)]
                elif c == -1:
                    m[i] = [a + b if b else a for a, b in zip(m[i], mp)]
                else:
                    m[i] = [a - c * b if b else a for a, b in zip(m[i], mp)]
            pivots.append(col)
            prow += 1
            if prow == len(m):
                break
        return Matrix._raw(tuple(tuple(r) for r in m), self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Basis of {x : self @ x = 0}, canonical via reduced echelon form."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [Q0] * self.cols
            v[f] = Q1
            for i, p in enumerate(pivots):
                v[p] = -red.entry(i, f)
            basis.append(tuple(v))
        # re-reduced so that equal kernels print identically
        return Subspace(self.cols, basis)


class Subspace:
    """A linear subspace of Q^n held as its canonical basis: the nonzero rows
    of the reduced echelon form of any spanning set.  Equal subspaces
    therefore have equal bases, hashes and printed forms."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Sequence[Sequence[Fraction]] = ()):
        m = Matrix(vectors, cols=ambient)
        assert m.cols == ambient, "vectors must lie in the ambient space"
        red, pivots = m.rref()
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", red.data[: len(pivots)])

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        if is_zero_vec(v):
            return True
        if not self.basis:
            return False
        stacked = Matrix(list(self.basis) + [vec(v)], cols=self.ambient)
        return stacked.rank() == self.dim

    def contains(self, other: "Subspace") -> bool:
        assert self.ambient == other.ambient
        return all(self.contains_vector(b) for b in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on this subspace; dims add up to the ambient."""
        return Matrix(self.basis, cols=self.ambient).kernel()

    def intersect(self, other: "Subspace") -> "Subspace":
        assert self.ambient == other.ambient
        return Subspace(self.ambient, _intersection_vectors(self, other))


def _intersection_vectors(a: Subspace, b: Subspace):
    # kernel of [A^T | -B^T] gives coefficient pairs; read off the A-part
    if a.dim == 0 or b.dim == 0:
        return []
    cols = a.dim + b.dim
    rows = []
    for i in range(a.ambient):
        rows.append([bv[i] for bv in a.basis] + [-bv[i] for bv in b.basis])
    ker = Matrix(rows, cols=cols).kernel()
    out = []
    for coeff in ker.basis:
        v = zero_vec(a.ambient)
        for c, bv in zip(coeff[: a.dim], a.basis):
            v = vec_add(v, vec_scale(c, bv))
        out.append(v)
    return out


class AffineInequalities:
    """Strict feasibility of L_i(c) > 0 over Q^k by Fourier-Motzkin.

    Each functional is a tuple (coeffs over k variables, constant). Used to
    search for strictly positive edge lengths inside a small solution space;
    k never exceeds a handful of free parameters in this package.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.constraints: list[tuple[tuple[Fraction, ...], Fraction]] = []

    def add(self, coeffs: Sequence[Fraction], const: Fraction):
        assert len(coeffs) == self.nvars
        self.constraints.append((vec(coeffs), Fraction(const)))

    def witness(self) -> tuple[Fraction, ...] | None:
        """A point satisfying every constraint strictly, or None."""
        return _fm_witness(self.nvars, self.constraints)


def _fm_witness(nvars, constraints):
    if nvars == 0:
        for coeffs, const in constraints:
            if const <= 0:
                return None
        return ()
    # eliminate the last variable
    lowers, uppers, rest = [], [], []
    k = nvars - 1
    for coeffs, const in constraints:
        a = coeffs[k]
        head = coeffs[:k]
        if a == 0:
            rest.append((head, const))
        elif a > 0:
            # c_k > -(head . c + const)/a
            lowers.append((vec_scale(-Q1 / a, head), -const / a))
        else:
            uppers.append((vec_scale(-Q1 / a, head), -const / a))
    projected = list(rest)
    for lo_c, lo_k in lowers:
        for up_c, up_k in uppers:
            # up bound - lo bound > 0
            projected.append((vec_sub(up_c, lo_c), up_k - lo_k))
    sub = _fm_witness(k, projected)
    if sub is None:
        return None
    lo_vals = [dot(c, sub) + d for c, d in lowers]
    up_vals = [dot(c, sub) + d for c, d in uppers]
    if lo_vals and up_vals:
        val = (max(lo_vals) + min(up_vals)) / 2
    elif lo_vals:
        val = max(lo_vals) + 1
    elif up_vals:
        val = min(up_vals) - 1
    else:
        val = Q1
    return sub + (val,)
