"""Linear systems of plane curves with assigned base multiplicities,
over a large prime field.

Pseudo-generic point configurations stand in for generic complex
points: every sample is drawn from a seeded generator and the seed is
echoed in all reports.  Two configurations matter here: r points in
general position (r = 16 for the classical square case) and 12 points
on a smooth cubic.  The degree-d piece of the ideal of the fat-point
scheme is realized as the kernel of an interpolation matrix; vanishing
to order m at a point is imposed characteristic-safely by expanding
the form along two local parameters at the point and zeroing all
coefficients of local degree below m (no derivatives, hence no char-p
division pitfalls; the prime far exceeds every degree used, so the
truncated-expansion multinomials never collapse).  The local frame at
a point P is two coordinate unit vectors e_a, e_b with P_c nonzero for
the third index c, so a monomial x^e expands along P + s e_a + t e_b in
closed form: its coefficient of s^j t^k is
C(e_a, j) P_a^(e_a - j) * C(e_b, k) P_b^(e_b - k) * P_c^e_c mod p.

Each kernel is computed once per scheme.  A scheme and the schemes
``with_multiplicities`` derives from it share one table, keyed by
multiplicities and degree, of the linear-system kernels (basis and
rank) and of the multiplication-map images (RREF rows and pivots).
Every array in it is read-only, so one caller cannot change what
another is handed, and the table holds at most _TABLE_BYTES bytes of
arrays, least recently used first out; it is freed with the last
scheme that shares it.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .linalg import (
    check_modulus,
    nullspace_modp,
    reduce_rows,
    rref_modp,
    span_rows,
)
from .ring import DEFAULT_PRIME, RingContext, is_prime


# ---------------------------------------------------------------------------
# degree-d monomial bookkeeping (exponent triples, fixed canonical order)
# ---------------------------------------------------------------------------

# monomial_basis keeps at most this many degrees; a sweep to high degree
# then cannot keep every table for the process's life.
_CACHE_SIZE = 64

# Bytes of arrays kept by the _product_groups table, and by each scheme's
# table of kernels and images; an entry larger than the cap is not kept.
_PRODUCT_GROUPS_BYTES = 2**23
_TABLE_BYTES = 2**23

# Entries in one outer-product temporary of _all_pair_products (1 MiB of
# int64), so a product of two large bases never holds them all at once.
_PRODUCT_BLOCK = 2**17

_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _ArrayTable:
    """Least-recently-used map from keys to tuples of arrays and plain
    values, holding at most ``maxbytes`` bytes of arrays.  Stored arrays
    are made read-only, so every caller can be handed the same ones.  A
    copy or an unpickled table starts empty."""

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self.nbytes = 0
        self.hits = self.misses = 0
        self._entries: "OrderedDict[object, Tuple[tuple, int]]" = OrderedDict()
        self._lock = threading.Lock()

    def __reduce__(self):
        return _ArrayTable, (self.maxbytes,)

    def lookup(self, key, compute: Callable[[], tuple]) -> tuple:
        """The entry of key, from compute() on a miss; nothing is stored
        when compute() raises."""
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return found[0]
            self.misses += 1
        entry = compute()
        size = 0
        for value in entry:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
                size += value.nbytes
        with self._lock:
            if size <= self.maxbytes and key not in self._entries:
                self._entries[key] = (entry, size)
                self.nbytes += size
                while self.nbytes > self.maxbytes:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
        return entry

    def cache_info(self) -> _CacheInfo:
        """Hits, misses, and the byte cap and bytes held (as maxsize and
        currsize, in the fields of functools' cache_info)."""
        return _CacheInfo(self.hits, self.misses, self.maxbytes, self.nbytes)


# _product_groups results by (d1, d2)
_PRODUCT_GROUPS = _ArrayTable(_PRODUCT_GROUPS_BYTES)


@lru_cache(maxsize=_CACHE_SIZE)
def monomial_basis(d: int) -> Tuple[Tuple[int, int, int], ...]:
    """Exponent triples of degree d, first variable dominant."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append((a, b, d - a - b))
    return tuple(out)


def _monomial_position(e: np.ndarray) -> np.ndarray:
    """Positions in monomial_basis(a + b + c) of exponent triples (..., 3):
    the (s + 1) s / 2 monomials with first exponent above a come first,
    s = b + c, and then c of the same a."""
    s = e[..., 1] + e[..., 2]
    return s * (s + 1) // 2 + e[..., 2]


def _product_groups(d1: int, d2: int):
    """The flattened outer product of a degree-d1 and a degree-d2 vector,
    regrouped by product monomial: a column order that sorts the entries
    by the position of monomial_i(d1) * monomial_j(d2) in degree d1 + d2,
    and where each position's group starts in that order.  Every
    monomial of degree d1 + d2 is such a product, so no group is empty.
    Kept in the _PRODUCT_GROUPS table."""

    def groups():
        e1 = np.array(monomial_basis(d1), dtype=np.int64)
        e2 = np.array(monomial_basis(d2), dtype=np.int64)
        flat = _monomial_position(e1[:, None, :] + e2[None, :, :]).ravel()
        order = np.argsort(flat, kind="stable")
        starts = np.searchsorted(flat[order], np.arange(len(monomial_basis(d1 + d2))))
        return order, starts

    return _PRODUCT_GROUPS.lookup((d1, d2), groups)


def _all_pair_products(rowsa, da: int, rowsb, db: int, p: int) -> np.ndarray:
    """Coefficient vectors of u * v for u in rowsa and then v in rowsb,
    as rows in that order.

    Each row u forms its outer products with a block of rowsb at once
    (all of it unless that exceeds _PRODUCT_BLOCK entries), reduced mod
    p, and sums each product monomial's group with one reduceat: a sum
    of at most min(len(monomial_basis(da)), len(monomial_basis(db)))
    residues, so it stays in int64.
    """
    rowsa = np.asarray(rowsa, dtype=np.int64).reshape(-1, len(monomial_basis(da)))
    rowsb = np.asarray(rowsb, dtype=np.int64).reshape(-1, len(monomial_basis(db)))
    order, starts = _product_groups(da, db)
    nb = rowsb.shape[0]
    step = max(1, _PRODUCT_BLOCK // order.size)
    out = np.empty((rowsa.shape[0] * nb, starts.size), dtype=np.int64)
    for i, u in enumerate(rowsa):
        for j in range(0, nb, step):
            block = rowsb[j:j + step]
            outer = (u[None, :, None] * block[:, None, :] % p).reshape(len(block), order.size)
            first = i * nb + j
            out[first:first + len(block)] = np.add.reduceat(outer[:, order], starts, axis=1) % p
    return out


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def _normalize_point(pt, p: int) -> Tuple[int, int, int]:
    pt = tuple(int(c) % p for c in pt)
    for c in pt:
        if c:
            inv = pow(c, -1, p)
            return tuple((x * inv) % p for x in pt)
    raise ValueError("zero vector is not a projective point")


@dataclass(frozen=True)
class FatPointScheme:
    """Distinct projective points with multiplicities, optionally on a cubic."""

    p: int
    points: Tuple[Tuple[int, int, int], ...]
    multiplicities: Tuple[int, ...]
    cubic: Optional[Tuple[int, ...]]          # degree-3 coefficient vector or None
    seed: int
    # kernels and images by (kind, multiplicities, degree); shared only with
    # the schemes with_multiplicities derives, so any other construction,
    # dataclasses.replace, copy and pickle included, starts an empty one
    _table: _ArrayTable = field(
        default_factory=lambda: _ArrayTable(_TABLE_BYTES),
        init=False, repr=False, compare=False,
    )

    def __post_init__(self):
        if len(self.points) != len(self.multiplicities):
            raise ValueError("one multiplicity per point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if min(self.multiplicities, default=0) < 0:
            raise ValueError("multiplicities must be nonnegative")

    @property
    def r(self) -> int:
        return len(self.points)

    def with_multiplicities(self, m) -> "FatPointScheme":
        if isinstance(m, int):
            mults = (m,) * self.r
        else:
            mults = tuple(int(x) for x in m)
        derived = FatPointScheme(self.p, self.points, mults, self.cubic, self.seed)
        object.__setattr__(derived, "_table", self._table)    # the same points
        return derived


def _cubic_is_smooth(coeffs, p: int) -> bool:
    """No common projective zero of the cubic and its partials.

    Over the algebraic closure of F_p the cubic g is singular exactly
    where g and dg/dx_i all vanish at a nonzero point, so g is smooth
    exactly when the Jacobian ideal J = (g, dg/dx_1, dg/dx_2, dg/dx_3)
    has no zero but the origin: J is m-primary or the unit ideal, that
    is krull_dim(J) <= 0.  That is one Groebner basis of J and no
    saturation by m.  The zero form is not a cubic, so it is not smooth.
    """
    from .ideals import Ideal, krull_dim

    ctx = RingContext(p, ("x1", "x2", "x3"))
    g = ctx.zero()
    for c, m in zip(coeffs, monomial_basis(3)):
        if c:
            g = g + ctx.monomial(m, int(c))
    if g.is_zero:
        return False
    J = Ideal(ctx, [g, g.deriv("x1"), g.deriv("x2"), g.deriv("x3")])
    return krull_dim(J) <= 0


# ---------------------------------------------------------------------------
# roots of a univariate polynomial over F_p: coefficient lists, constant
# term first, entries in [0, p), no trailing zeros
# ---------------------------------------------------------------------------

def _trim(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_sub(f: List[int], g: List[int], p: int) -> List[int]:
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def _poly_divmod(f: List[int], g: List[int], p: int):
    """Quotient and remainder of f by a nonzero g over F_p."""
    f = list(f)
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = f[i + len(g) - 1] * inv % p
        q[i] = c
        for j, gj in enumerate(g):
            f[i + j] = (f[i + j] - c * gj) % p
    return _trim(q), _trim(f[: len(g) - 1])


def _poly_mulmod(f: List[int], h: List[int], g: List[int], p: int) -> List[int]:
    prod = [0] * (len(f) + len(h) - 1) if f and h else []
    for i, a in enumerate(f):
        for j, b in enumerate(h):
            prod[i + j] = (prod[i + j] + a * b) % p
    return _poly_divmod(prod, g, p)[1]


def _poly_powmod(f: List[int], e: int, g: List[int], p: int) -> List[int]:
    """f^e mod g over F_p, by square-and-multiply."""
    result, f = [1], _poly_divmod(f, g, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, f, g, p)
        f = _poly_mulmod(f, f, g, p)
        e >>= 1
    return result


def _poly_gcd(f: List[int], g: List[int], p: int) -> List[int]:
    """Monic gcd over F_p; f is nonzero."""
    while g:
        f, g = g, _poly_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _split_roots(g: List[int], p: int) -> List[int]:
    """Roots of a monic g that is a product of distinct linear factors.

    g splits as gcd(g, (b + delta)^((p - 1)/2) - 1) times the cofactor for
    the first delta = 0, 1, ... that separates two roots (equal-degree
    splitting, Cantor-Zassenhaus, Math. Comp. 1981).  For odd p such a
    delta exists: the nonzero squares are not closed under adding the
    difference of two roots, since that difference generates F_p.
    """
    if len(g) <= 2:
        return [(-g[0]) % p] if len(g) == 2 else []
    if p == 2:
        return [0, 1]                  # the only such g of degree 2 is b(b + 1)
    delta = 0
    while True:
        h = _poly_powmod([delta, 1], (p - 1) // 2, g, p)
        h = _poly_gcd(g, _poly_sub(h, [1], p), p)
        if 1 < len(h) < len(g):
            return _split_roots(h, p) + _split_roots(_poly_divmod(g, h, p)[0], p)
        delta += 1


def _roots_modp(f: List[int], p: int) -> List[int]:
    """Distinct roots in F_p of a nonzero polynomial f, ascending.

    gcd(f, b^p - b) is the product of the distinct linear factors of f;
    b^p is reduced mod f on the way, so the cost is polynomial in log p.
    """
    f = _trim([c % p for c in f])
    if len(f) < 2:
        return []
    linear = _poly_gcd(f, _poly_sub(_poly_powmod([0, 1], p, f, p), [0, 1], p), p)
    return sorted(_split_roots(linear, p))


def _first_root(f: List[int], start: int, p: int) -> Optional[int]:
    """The first root of f met in the order start, start + 1, ... mod p,
    or None; every b is a root of the zero polynomial, so that gives start."""
    if not any(c % p for c in f):
        return start
    return min(_roots_modp(f, p), key=lambda b: (b - start) % p, default=None)


# Draws sample_scheme makes before it gives up on a seed, as it must
# when the field has too few points for r of them.
_MAX_TRIES = 2000


def sample_scheme(
    r: int,
    multiplicities=1,
    constraint: str = "none",
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> FatPointScheme:
    """Deterministic pseudo-generic configuration of r points from a seed.

    With ``constraint="none"`` a draw is a random projective point.
    ``constraint="elliptic"`` first draws a smooth cubic; a draw is then
    a line x1 = a, x3 = 1 and the first point of the cubic on it met
    going x2 = start, start + 1, ... (mod p), if there is one; the roots
    on a line come from gcd(f, x2^p - x2), at a cost polynomial in log p.
    One loop keeps the first occurrence of each point drawn, in order,
    until it has r.  Exhausting the budget of _MAX_TRIES draws (e.g. a
    tiny field) raises a seed error.
    """
    if r < 1:
        raise ValueError("need at least one point")
    if isinstance(multiplicities, int):
        mults = (multiplicities,) * r
    else:
        mults = tuple(int(x) for x in multiplicities)
        if len(mults) != r:
            raise ValueError("one multiplicity per point")
    rng = random.Random(seed)

    if constraint == "none":
        coeffs = None
        error = f"could not sample {r} distinct points (seed {seed})"

        def draw():
            pt = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
            return pt if any(pt) else None

    elif constraint == "elliptic":
        for _ in range(40):
            coeffs = tuple(rng.randrange(p) for _ in monomial_basis(3))
            if _cubic_is_smooth(coeffs, p):
                break
        else:
            raise ValueError(f"no smooth cubic found (seed {seed})")
        error = f"could not sample {r} points on the cubic (seed {seed})"

        def draw():
            a = rng.randrange(p)
            start = rng.randrange(p)
            # on the affine line x1 = a, x3 = 1 the cubic is univariate in x2
            uni = [0, 0, 0, 0]
            for c, (e1, e2, e3) in zip(coeffs, monomial_basis(3)):
                if c:
                    uni[e2] = (uni[e2] + c * pow(a, e1, p)) % p
            b = _first_root(uni, start, p)
            return None if b is None else (a, b, 1)

    else:
        raise ValueError(f"unknown constraint {constraint!r}")

    points = {}     # first occurrences, in draw order
    for _ in range(_MAX_TRIES):
        pt = draw()
        if pt is not None:
            points.setdefault(_normalize_point(pt, p))
            if len(points) == r:
                return FatPointScheme(p, tuple(points), mults, coeffs, seed)
    raise ValueError(error)


# ---------------------------------------------------------------------------
# interpolation matrices and linear systems
# ---------------------------------------------------------------------------

# row c holds (a, b, c) with {a, b} the other two coordinates, a < b
_FRAME_AXES = np.array([[1, 2, 0], [0, 2, 1], [0, 1, 2]], dtype=np.int64)


def _frame_axes(points, p: int):
    """Points reduced mod p as an (r, 3) array, and per point the axes
    (a, b, c): c is the last coordinate nonzero mod p, so e_a, e_b and
    the point are a basis (their determinant is +-pt_c)."""
    P = np.array([[int(x) % p for x in pt] for pt in points], dtype=np.int64)
    P = P.reshape(-1, 3)
    nonzero = P != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("degenerate point")
    return P, _FRAME_AXES[2 - np.argmax(nonzero[:, ::-1], axis=1)]


def _local_frame(pt, p: int):
    """The coordinate unit vectors e_a, e_b completing pt to a basis."""
    a, b, _ = _frame_axes([pt], p)[1][0].tolist()
    return tuple(tuple(int(i == axis) for i in range(3)) for axis in (a, b))


def _condition_matrix(points, mults, d: int, p: int) -> np.ndarray:
    """Rows imposing vanishing to order mults[i] at points[i] on degree-d
    forms, point after point.

    The local frame at pt is two coordinate unit vectors e_a, e_b, and
    pt_c is nonzero for the third axis c (:func:`_frame_axes`).  Along
    pt + s e_a + t e_b a monomial x^e is
    (pt_a + s)^e_a (pt_b + t)^e_b pt_c^e_c, so its coefficient of s^j t^k
    is C(e_a, j) pt_a^(e_a - j) * C(e_b, k) pt_b^(e_b - k) * pt_c^e_c mod p.
    A point of multiplicity m has one row per (j, k) with j + k < m,
    ordered by j + k and then by j; points of multiplicity 0 have none.
    """
    check_modulus(p)
    kept = [(pt, m) for pt, m in zip(points, mults) if m >= 1]
    if not kept:
        return np.zeros((0, len(monomial_basis(d))), dtype=np.int64)
    P, axes = _frame_axes([pt for pt, _ in kept], p)
    m = max(mult for _, mult in kept)
    r = len(kept)
    point = np.arange(r)[:, None]
    coords = P[point, axes]                             # pt_a, pt_b, pt_c
    powers = np.ones((r, 3, d + 1), dtype=np.int64)     # coords^t, t <= d
    for t in range(1, d + 1):
        powers[:, :, t] = powers[:, :, t - 1] * coords % p
    # shifted[:, x, j, e] = C(e, j) coords_x^(e - j): the s^j coefficient
    # of (coords_x + s)^e, for the two frame axes x
    binom = np.array(
        [[comb(e, j) % p for e in range(d + 1)] for j in range(m)], dtype=np.int64
    )
    drop = np.maximum(np.arange(d + 1)[None, :] - np.arange(m)[:, None], 0)
    shifted = binom * powers[:, :2, drop] % p
    j = np.array([j for s in range(m) for j in range(s + 1)], dtype=np.int64)
    k = np.array([s - j for s in range(m) for j in range(s + 1)], dtype=np.int64)
    e = np.array(monomial_basis(d), dtype=np.int64).T[axes]   # (r, 3, N): e_a, e_b, e_c
    point = point[:, :, None]
    rows = (
        shifted[point, 0, j[None, :, None], e[:, None, 0, :]]
        * shifted[point, 1, k[None, :, None], e[:, None, 1, :]] % p
        * powers[point, 2, e[:, None, 2, :]] % p
    )
    # rows are ordered by local degree, so multiplicity m_i keeps a prefix
    count = np.array([mult * (mult + 1) // 2 for _, mult in kept])
    return rows[np.arange(j.size)[None, :] < count[:, None]]


def interpolation_matrix(scheme: FatPointScheme, d: int) -> np.ndarray:
    return _condition_matrix(scheme.points, scheme.multiplicities, d, scheme.p)


@dataclass(frozen=True)
class LinearSystem:
    """Kernel of the interpolation conditions in one degree.

    The basis is the canonical one of :func:`nullspace_modp`, fixed by
    the scheme and the degree, so equality does not compare it."""

    scheme: FatPointScheme
    degree: int
    basis: np.ndarray = field(compare=False)    # rows are coefficient vectors; read-only
    rank: int

    @property
    def h0(self) -> int:
        return self.basis.shape[0]

    def verify_vanishing(self) -> bool:
        """Recheck every basis form against every point's local expansion."""
        s = self.scheme
        check_modulus(s.p, self.basis.shape[1])
        rows = _condition_matrix(s.points, s.multiplicities, self.degree, s.p)
        return not (rows @ self.basis.T % s.p).any()


def linear_system(scheme: FatPointScheme, d: int) -> LinearSystem:
    """Degree-d forms vanishing to the assigned orders at the points,
    computed once per scheme (see the module docstring)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")

    def kernel():
        A = interpolation_matrix(scheme, d)
        basis = nullspace_modp(A, scheme.p)
        return basis, A.shape[1] - basis.shape[0]

    basis, rank = scheme._table.lookup(("kernel", scheme.multiplicities, d), kernel)
    return LinearSystem(scheme, d, basis, rank)


def h0(scheme: FatPointScheme, d: int, m=None) -> int:
    """Dimension of the degree-d piece, optionally overriding multiplicities."""
    s = scheme if m is None else scheme.with_multiplicities(m)
    return linear_system(s, d).h0


# ---------------------------------------------------------------------------
# multiplication maps and power containments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultMapReport:
    surjective: bool
    image_dim: int
    target_dim: int


def mult_map_surjective(scheme: FatPointScheme, d: int, m: int) -> MultMapReport:
    """Does multiplication by linear forms cover the next degree piece?

    Compares the span of x_k * (degree d-1 piece) with the degree-d
    piece, both at uniform multiplicity m.
    """
    return _mult_map(scheme, d, m)[0]


def _mult_map(scheme: FatPointScheme, d: int, m: int):
    """The report of mult_map_surjective, with the RREF rows and pivots of
    the image x_k * (degree d-1 piece), for callers that reduce against it;
    the image is computed once per scheme."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    s = scheme.with_multiplicities(m)
    target = linear_system(s, d)

    def image_rref():
        image = _variable_multiples(linear_system(s, d - 1).basis, d - 1, s.p)
        return rref_modp(image, s.p) if image.size else (image, ())

    image, pivots = s._table.lookup(("image", s.multiplicities, d), image_rref)
    report = MultMapReport(
        surjective=(image.shape[0] == target.h0),
        image_dim=image.shape[0],
        target_dim=target.h0,
    )
    return report, image, pivots


_UNIT_LINEAR_FORMS = np.eye(3, dtype=np.int64)


def _variable_multiples(space_rows: np.ndarray, d_minus_1: int, p: int) -> np.ndarray:
    """Rows spanning x_k * (given degree-(d-1) rows) in degree d, k-major."""
    return _all_pair_products(_UNIT_LINEAR_FORMS, 1, space_rows, d_minus_1, p)


def _power_spans(pieces: Dict[int, np.ndarray], s: int, degrees: Set[int], p: int):
    """Spans of s-fold products of piece elements, in the wanted total
    degrees.

    Computed by repeated pairwise span products, which generate the
    same subspaces as the full s-fold product sets.  Intermediate
    levels are capped at the largest degree that can still contribute
    to an s-fold product within max(degrees), and the last level
    combines only the pairs whose total degree is wanted, so no span is
    built in a degree nobody reads.  A wanted degree that no product
    reaches has no entry.
    """
    levels = {1: {d: rows for d, rows in pieces.items() if rows.shape[0]}}
    if not levels[1] or not degrees:
        return {}
    d_min = min(levels[1])
    d_max = max(degrees)

    def combine(ka: int, kb: int, k_total: int):
        bound = d_max - (s - k_total) * d_min
        raw: Dict[int, List[np.ndarray]] = {}
        for da, rowsa in levels[ka].items():
            for db, rowsb in levels[kb].items():
                D = da + db
                if D > bound or (k_total == s and D not in degrees):
                    continue
                raw.setdefault(D, []).append(
                    _all_pair_products(rowsa, da, rowsb, db, p)
                )
        return {
            D: span_rows(np.vstack(chunks), p) for D, chunks in raw.items()
        }

    k = 1
    while k < s:
        step = min(k, s - k)
        levels[k + step] = combine(k, step, k + step)
        k += step
    return {D: rows for D, rows in levels[s].items() if D in degrees}


def _power_containment(scheme: FatPointScheme, pieces, s: int, m: int, degrees):
    """For each wanted degree D, ascending: the report of the
    multiplication map onto the (D, m) piece, the span of s-fold
    products of piece elements in degree D (None where none was built),
    and whether those products lie in x_k * (degree D-1 piece), all at
    multiplicity m.

    Every degree's map is decided first.  The products vanish to order
    m, so where the map is surjective it certifies containment; product
    spans are built, in one :func:`_power_spans` call, only in the
    degrees it leaves open, and reduced against its image.  A degree no
    product reaches is contained.
    """
    maps = {D: _mult_map(scheme, D, m) for D in sorted(degrees)}
    spans = _power_spans(
        pieces, s, {D for D, (cert, _, _) in maps.items() if not cert.surjective}, scheme.p
    )
    decided = {}
    for D, (cert, image, pivots) in maps.items():
        products = spans.get(D)
        contained = products is None or not reduce_rows(products, image, pivots, scheme.p).any()
        decided[D] = (cert, products, contained)
    return decided


def graded_power_containment(
    scheme: FatPointScheme, n: int, s: int, d_max: int
) -> dict:
    """Per-degree check that s-fold products of the multiplicity-n
    system land inside the variable multiples of the multiplicity-s*n
    system.

    For each total degree D at most d_max that products reach, the span
    of s-fold products of basis elements of the n-system pieces is
    compared with the span of x_k * (degree D-1 piece of the sn-system),
    by :func:`_power_containment`.  Every such D is a sum of s degrees
    of nonzero pieces, and products of nonzero forms are nonzero, so a
    degree whose map is not surjective always has a nonzero product
    span to reduce.  On a cubic configuration the bottom
    degree 3*s*n is the designed exception: the comparison space is zero
    there while the cubic's power survives.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be positive")
    sn = scheme.with_multiplicities(n)

    pieces: Dict[int, np.ndarray] = {}
    for d in range(0, d_max + 1):
        ls = linear_system(sn, d)
        if ls.h0:
            pieces[d] = ls.basis

    product_degrees = {0}
    for _ in range(s):
        product_degrees = {
            t + d for t in product_degrees for d in pieces if t + d <= d_max
        }

    degrees = {}
    for D, (cert, products, contained) in _power_containment(
        scheme, pieces, s, s * n, product_degrees
    ).items():
        if cert.surjective:
            row = {"contained": True, "via": "multiplication-map surjectivity"}
        else:
            row = {
                "contained": contained,
                "via": "product-span reduction",
                "products_dim": int(products.shape[0]),
            }
        row["comparison_dim"] = cert.image_dim
        degrees[D] = row
    report = {
        "n": n,
        "s": s,
        "d_max": d_max,
        "seed": scheme.seed,
        "constraint": "elliptic" if scheme.cubic is not None else "none",
        "degrees": degrees,
        "empty": not degrees,
    }
    if scheme.cubic is not None:
        report["expected_exception_degree"] = 3 * s * n
    return report


def fiber_generator_census(
    scheme: FatPointScheme, n_max: int, d_max: int, s: int = 4
) -> dict:
    """Which degree pieces of the multiplicity-n systems survive s-th
    powers modulo variable multiples of the multiplicity-s*n system.

    A piece "dies" when the span of its s-fold self-products lies in
    x_k * (s*n-system), as :func:`_power_containment` decides; by
    polarization over a large field this covers every element of the
    piece.  Pieces with survivors are the candidate generators of the
    special fiber beyond the base field.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = []
    for n in range(1, n_max + 1):
        sn = scheme.with_multiplicities(n)
        for d in range(0, d_max + 1):
            piece = linear_system(sn, d)
            if piece.h0 == 0:
                continue
            _, _, contained = _power_containment(
                scheme, {d: piece.basis}, s, s * n, {s * d}
            )[s * d]
            rows.append(
                {
                    "n": n,
                    "degree": d,
                    "piece_dim": piece.h0,
                    "survives": not contained,
                }
            )
    return {
        "n_max": n_max,
        "d_max": d_max,
        "s": s,
        "seed": scheme.seed,
        "constraint": "elliptic" if scheme.cubic is not None else "none",
        "pieces": rows,
        "survivors": [
            (row["n"], row["degree"]) for row in rows if row["survives"]
        ],
    }
