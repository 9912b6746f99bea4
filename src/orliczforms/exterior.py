"""Pointwise multilinear algebra of alternating l-covectors on R^n.

Conventions (these pin every sign in the package):

* A basis l-covector is ``dx_I`` for an ordered multi-index
  ``I = (i_1, ..., i_l)`` with ``1 <= i_1 < ... < i_l <= n``.
* Multi-indices of a given length are stored and iterated in lexicographic
  order; coefficients live in a dense array addressed by lexicographic rank.
* ``wedge``: the sign of ``dx_I ^ dx_J`` is the parity of the permutation
  sorting the concatenated tuple ``I + J``; repeated indices annihilate.
* ``hodge_star``: for complement ``J`` of ``I``, ``star(dx_I) = s * dx_J``
  where ``s`` is the parity of ``(I, J)`` viewed as a permutation of
  ``(1, ..., n)``.  With the Euclidean metric this makes
  ``|u|^2 = star(u ^ star u)`` hold identically.
* ``contract`` (interior product with a vector ``v``): for an (l-1)-index
  ``J`` and ``k`` not in ``J``, the term ``v_k * u_K`` contributes with sign
  ``(-1)^pos`` where ``K = sorted({k} | J)`` and ``pos`` is the position of
  ``k`` within ``K``.

All operations are pure; values are immutable after construction.  The
table-driven array kernels accept coefficient arrays with arbitrary trailing
axes, so batched evaluation over many points reuses the same code path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DegreeError, InvalidInputError

__all__ = [
    "MultiIndex",
    "CovectorValue",
    "multi_indices",
    "index_rank",
    "wedge",
    "hodge_star",
    "modulus",
    "num_components",
]


def num_components(n: int, l: int) -> int:
    """Number of ordered l-multi-indices in dimension n, C(n, l)."""
    return math.comb(n, l)


@dataclass(frozen=True)
class MultiIndex:
    """An ordered multi-index ``(i_1, ..., i_l)`` with 1-based entries."""

    dims: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.dims < 1:
            raise InvalidInputError(f"ambient dimension must be positive, got {self.dims}")
        ix = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", ix)
        if any(not (1 <= i <= self.dims) for i in ix):
            raise InvalidInputError(f"indices {ix} out of range 1..{self.dims}")
        if any(a >= b for a, b in zip(ix, ix[1:])):
            raise InvalidInputError(f"indices {ix} not strictly increasing")

    @property
    def degree(self) -> int:
        return len(self.indices)

    def complement(self) -> "MultiIndex":
        rest = tuple(i for i in range(1, self.dims + 1) if i not in self.indices)
        return MultiIndex(self.dims, rest)

    def __str__(self):
        if not self.indices:
            return "1"
        return "dx" + "^dx".join(str(i) for i in self.indices)


@cache
def multi_indices(n: int, l: int) -> tuple[MultiIndex, ...]:
    """All degree-l multi-indices in dimension n, in lexicographic order."""
    if not 0 <= l <= n:
        raise DegreeError(f"degree {l} outside 0..{n}")
    return tuple(MultiIndex(n, c) for c in itertools.combinations(range(1, n + 1), l))


@cache
def _rank_table(n: int, l: int) -> dict[tuple[int, ...], int]:
    return {mi.indices: r for r, mi in enumerate(multi_indices(n, l))}


def index_rank(mi: MultiIndex) -> int:
    """Lexicographic rank of a multi-index among those of its degree."""
    return _rank_table(mi.dims, mi.degree)[mi.indices]


def _perm_sign(seq) -> int:
    """Parity of the permutation sorting ``seq`` (0 if any entry repeats)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@cache
def _wedge_table(n: int, la: int, lb: int) -> tuple:
    """Rows (ia, ib, iout, sign) of the wedge of degrees (la, lb), in
    lexicographic order of (ia, ib)."""
    out_rank = _rank_table(n, la + lb)
    rows = []
    for ia, mi_a in enumerate(multi_indices(n, la)):
        for ib, mi_b in enumerate(multi_indices(n, lb)):
            cat = mi_a.indices + mi_b.indices
            sign = _perm_sign(cat)
            if sign == 0:
                continue
            rows.append((ia, ib, out_rank[tuple(sorted(cat))], float(sign)))
    return tuple(rows)


@cache
def _star_table(n: int, l: int):
    """Permutation and signs such that star(a) = signs * a[src] componentwise."""
    src = np.empty(num_components(n, l), dtype=np.intp)
    signs = np.empty(num_components(n, l), dtype=np.float64)
    out_rank = _rank_table(n, n - l)
    for i, mi in enumerate(multi_indices(n, l)):
        comp = mi.complement()
        j = out_rank[comp.indices]
        src[j] = i
        signs[j] = _perm_sign(mi.indices + comp.indices)
    return src, signs


@cache
def _contraction_table(n: int, l: int) -> tuple:
    """Rows (iout, iin, axis, sign) of the interior product on degree l."""
    out_rank = _rank_table(n, l - 1)
    rows = []
    for iin, mi in enumerate(multi_indices(n, l)):
        for pos, k in enumerate(mi.indices):
            rest = mi.indices[:pos] + mi.indices[pos + 1:]
            rows.append((out_rank[rest], iin, k - 1, (-1.0) ** pos))
    return tuple(rows)


# --- array kernels (first axis = component rank, trailing axes broadcast) ---
#
# Each kernel adds its table rows into ``out`` one at a time, in table order,
# so the summation order (and every bit of the result) is fixed by the table;
# the tests hold both kernels bit-identical to an ``np.add.at`` scatter of the
# same rows.  For n <= 3 a table has at most 6 rows, so the loop is short;
# the T kernel sums over t first, so its contractions see (C, m) rows, one
# call per y-node.
# The contraction forms each product v * a in one reused buffer and adds or
# subtracts it by the row's sign: (-v) * a == -(v * a) and b + (-c) == b - c
# in floating point, so this is the signed scatter bit for bit.


def wedge_coeffs(n, la, lb, a, b):
    out = np.zeros((num_components(n, la + lb),) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for ia, ib, io, sg in _wedge_table(n, la, lb):
        out[io] += sg * a[ia] * b[ib]
    return out

def star_coeffs(n, l, a):
    src, signs = _star_table(n, l)
    return signs.reshape(-1, *([1] * (a.ndim - 1))) * a[src]

def contract_coeffs(n, l, a, v):
    """Interior product of degree-l coefficients ``a`` with vectors ``v``.

    ``a`` has shape (C(n,l), ...); ``v`` has shape (n, ...) with matching
    trailing axes.  Returns shape (C(n,l-1), ...).
    """
    shape = np.broadcast_shapes(a.shape[1:], v.shape[1:])
    out = np.zeros((num_components(n, l - 1),) + shape)
    prod = np.empty(shape)
    for io, ii, ax, sg in _contraction_table(n, l):
        np.multiply(v[ax], a[ii], out=prod)
        if sg > 0:
            out[io] += prod
        else:
            out[io] -= prod
    return out


# --- value type --------------------------------------------------------------


@dataclass(frozen=True)
class CovectorValue:
    """The value of an l-form at a point: a dense coefficient vector.

    ``coeffs[r]`` is the coefficient of the rank-r multi-index (lexicographic
    order).  Degree-0 values are length-1 vectors holding the scalar.
    """

    dims: int
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.degree <= self.dims:
            raise DegreeError(f"degree {self.degree} outside 0..{self.dims}")
        c = np.asarray(self.coeffs, dtype=np.float64).reshape(-1).copy()
        if c.shape[0] != num_components(self.dims, self.degree):
            raise InvalidInputError(
                f"expected {num_components(self.dims, self.degree)} coefficients, got {c.shape[0]}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def scalar(cls, n: int, value: float) -> "CovectorValue":
        return cls(n, 0, np.array([value]))

    def __getitem__(self, key) -> float:
        mi = key if isinstance(key, MultiIndex) else MultiIndex(self.dims, tuple(key))
        return float(self.coeffs[index_rank(mi)])

    def __add__(self, other):
        self._check_same(other)
        return CovectorValue(self.dims, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same(other)
        return CovectorValue(self.dims, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return CovectorValue(self.dims, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return CovectorValue(self.dims, self.degree, -self.coeffs)

    def _check_same(self, other):
        if self.dims != other.dims or self.degree != other.degree:
            raise InvalidInputError("dimension or degree mismatch")


def wedge(a: CovectorValue, b: CovectorValue) -> CovectorValue:
    """Exterior product with the alternating sign convention."""
    if a.dims != b.dims:
        raise InvalidInputError(f"dimension mismatch: {a.dims} vs {b.dims}")
    if a.degree + b.degree > a.dims:
        raise InvalidInputError(
            f"degree overflow: {a.degree} + {b.degree} > {a.dims}"
        )
    out = wedge_coeffs(a.dims, a.degree, b.degree, a.coeffs, b.coeffs)
    return CovectorValue(a.dims, a.degree + b.degree, out)


def hodge_star(a: CovectorValue) -> CovectorValue:
    """Euclidean Hodge star, mapping degree l to degree n - l."""
    return CovectorValue(a.dims, a.dims - a.degree, star_coeffs(a.dims, a.degree, a.coeffs))


def modulus(a: CovectorValue) -> float:
    """Pointwise Euclidean modulus, sqrt of star(a ^ star a)."""
    return float(np.sqrt(np.dot(a.coeffs, a.coeffs)))
