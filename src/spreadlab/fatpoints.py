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
multiplicities and degree, of the linear-system kernels (their bases)
and of the multiplication-map images.  An image x_k * (degree
d-1 piece) lies in the degree-d piece, so it is kept in that piece's
coordinates: its RREF rows and pivots over the free columns of the
degree-d canonical kernel, with those columns.  The canonical basis is
the identity on its free columns (each row's free column is its last
nonzero entry), so v -> v[free] is injective on the piece and keeps
every rank; the product spans of a containment are reduced in the same
coordinates.  Every array in the table is read-only, so one caller
cannot change what another is handed, and the table holds at most
_TABLE_BYTES bytes, each entry charged its measured size, least
recently used first out; it is freed with the last scheme that shares
it.

Once the conditions are independent, dimensions and surjectivity need
no elimination.  Write Z for the scheme with multiplicities m_i, A(d)
for its degree-d interpolation matrix, k = sum m_i (m_i + 1) / 2 for
the number of its rows (the degree of Z) and N(d) = (d + 1)(d + 2) / 2
for the number of monomials.  The kernel of A(d) is I_Z in degree d,
so rank A(d) = H_Z(d), the Hilbert function of S / I_Z, and
H_Z(d) <= k.  If a computed kernel shows rank A(d0) = k, then, in any
characteristic:

* Rule 1: h0(d) = N(d) - k for every d >= d0.  Over an extension field
  of F_p, where ranks are the same, some linear form L is nonzero at
  every point.  In each local frame L's expansion has a nonzero
  constant term, so multiplication by L is injective modulo I_Z: H_Z
  never decreases, and H_Z(d) = k from d0 on.
* Rule 2: multiplication by the variables maps the degree-(d - 1)
  piece onto the degree-d piece for every d >= d0 + 2.  L is a
  nonzerodivisor on S / I_Z, so the regularity of S / I_Z is that of
  the Artinian S / (I_Z + L), whose Hilbert function is
  H_Z(d) - H_Z(d - 1): its top nonzero degree, at most d0 (Eisenbud,
  The Geometry of Syzygies, ch. 4).  Then reg(I_Z) <= d0 + 1, and I_Z
  is generated in degrees <= d0 + 1.

The table records, per multiplicity vector, the least d0 that a
computed kernel showed; no record is ever inferred from a rule.
``h0`` and the piece dimensions of the containment and the census use
rule 1, and a map from degree d >= d0 + 2 is reported onto by rule 2,
with no image and rule 1's target dimension.  ``linear_system`` always
eliminates, since its basis is the canonical kernel.

The probe makes rule 2 apply from the first possible degree.  Every
d0 is at least e = min{e : N(e) >= k}, since k independent rows need
k columns.  Before a multiplication map builds an image into degree d
with no recorded d0 <= d - 2, it reads the degree-e kernel if
e <= d - 2.  If the conditions are independent there, that kernel
records d0 = e and rule 2 settles d: one k x N(e) elimination in place
of the source and target kernels and the image.  Otherwise the kernel
stays in the table, and the image is built; the target kernel it is
kept in gives the target dimension.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

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

# Bytes kept by the _product_groups table, and by each scheme's table of
# kernels and images, as _ArrayTable charges them; an entry larger than
# the cap is not kept.
_PRODUCT_GROUPS_BYTES = 2**23
_TABLE_BYTES = 2**23

# Keys of which one _ArrayTable keeps a least value (note_least); a
# scheme's table keeps one per multiplicity vector.
_LEAST_KEYS = 256

# Entries in one outer-product temporary of _all_pair_products (1 MiB of
# int64), so a product of two large bases never holds them all at once.
_PRODUCT_BLOCK = 2**17

_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _ArrayTable:
    """Least-recently-used map from keys to tuples of arrays and plain
    values, holding at most ``maxbytes`` bytes.  An entry is charged
    ``sys.getsizeof`` of its tuple and of each value, which for an array
    that owns its data includes that data, so an empty array costs its
    header and the cap bounds the number of entries too.  Stored arrays
    are made read-only, so every caller can be handed the same ones.  It
    also keeps the least value noted for each of at most _LEAST_KEYS
    keys.  A copy or an unpickled table starts empty."""

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self.nbytes = 0
        self.hits = self.misses = 0
        self._entries: "OrderedDict[object, Tuple[tuple, int]]" = OrderedDict()
        self._least: Dict[object, int] = {}
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
        size = sys.getsizeof(entry)
        for value in entry:
            size += sys.getsizeof(value)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        with self._lock:
            if size <= self.maxbytes and key not in self._entries:
                self._entries[key] = (entry, size)
                self.nbytes += size
                while self.nbytes > self.maxbytes:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
        return entry

    def note_least(self, key, value: int) -> None:
        """Keep the least value noted for key; a new key past _LEAST_KEYS
        drops the oldest one."""
        with self._lock:
            old = self._least.get(key)
            if old is None and len(self._least) >= _LEAST_KEYS:
                del self._least[next(iter(self._least))]
            if old is None or value < old:
                self._least[key] = value

    def least(self, key) -> Optional[int]:
        """The least value noted for key, or None."""
        return self._least.get(key)

    def cache_info(self) -> _CacheInfo:
        """Hits, misses, and the byte cap and bytes held (as maxsize and
        currsize, in the fields of functools' cache_info).  The table's
        observability, as for the lru_cache tables; tests read it."""
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

    A block of rows of rowsa forms its outer products with a block of
    rowsb in one step, the blocks as large as keep that temporary within
    _PRODUCT_BLOCK entries (a single pair may exceed it), reduced mod p;
    each product monomial's group is then summed with one reduceat: a
    sum of at most min(len(monomial_basis(da)), len(monomial_basis(db)))
    residues, so it stays in int64.
    """
    rowsa = np.asarray(rowsa, dtype=np.int64).reshape(-1, len(monomial_basis(da)))
    rowsb = np.asarray(rowsb, dtype=np.int64).reshape(-1, len(monomial_basis(db)))
    order, starts = _product_groups(da, db)
    na, nb = rowsa.shape[0], rowsb.shape[0]
    pairs = max(1, _PRODUCT_BLOCK // order.size)
    step_b = max(1, min(nb, pairs))
    step_a = max(1, pairs // step_b)
    out = np.empty((na, nb, starts.size), dtype=np.int64)
    for i in range(0, na, step_a):
        a = rowsa[i:i + step_a]
        for j in range(0, nb, step_b):
            b = rowsb[j:j + step_b]
            outer = (a[:, None, :, None] * b[None, :, None, :] % p).reshape(-1, order.size)
            sums = np.add.reduceat(outer[:, order], starts, axis=1) % p
            out[i:i + len(a), j:j + len(b)] = sums.reshape(len(a), len(b), -1)
    return out.reshape(na * nb, starts.size)


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
        _check_multiplicities(self.multiplicities, len(self.points))
        _check_modulus(self.p)
        # as projective points mod p: (1, 2, 3) and (2, 4, 6) are one
        # point, and a vector that is zero mod p is none
        if len({_normalize_point(pt, self.p) for pt in self.points}) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    @property
    def r(self) -> int:
        return len(self.points)

    def with_multiplicities(self, m) -> "FatPointScheme":
        mults = _multiplicity_vector(m, self.r)
        # the same points, already checked, and so the same table
        derived = object.__new__(FatPointScheme)
        derived.__dict__.update(self.__dict__, multiplicities=mults)
        return derived


def _multiplicity_vector(m, r: int) -> Tuple[int, ...]:
    """m as one checked multiplicity per point: an int is every point's."""
    mults = (m,) * r if isinstance(m, int) else tuple(int(x) for x in m)
    _check_multiplicities(mults, r)
    return mults


def _check_multiplicities(mults, r: int) -> None:
    if len(mults) != r:
        raise ValueError("one multiplicity per point")
    if min(mults, default=0) < 0:
        raise ValueError("multiplicities must be nonnegative")


def _check_modulus(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


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
    tiny field) raises a seed error.  The modulus and the multiplicities
    are checked before the first draw.
    """
    if r < 1:
        raise ValueError("need at least one point")
    mults = _multiplicity_vector(multiplicities, r)
    _check_modulus(p)
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


@lru_cache(maxsize=_CACHE_SIZE)
def _exponents(d: int) -> np.ndarray:
    """monomial_basis(d) as a read-only (3, N) array, one row per variable."""
    e = np.array(monomial_basis(d), dtype=np.int64).T
    e.flags.writeable = False
    return e


@lru_cache(maxsize=_CACHE_SIZE)
def _local_tables(m: int, d: int, p: int):
    """Read-only tables of _condition_matrix for multiplicities up to m
    in degree d over F_p: C(e, j) mod p and max(e - j, 0) as (m, d + 1)
    arrays (rows j < m, columns e <= d), and the local exponents j and k
    of the rows of a point of multiplicity m, by j + k and then by j."""
    binom = np.array(
        [[comb(e, j) % p for e in range(d + 1)] for j in range(m)], dtype=np.int64
    )
    drop = np.maximum(np.arange(d + 1)[None, :] - np.arange(m)[:, None], 0)
    j = np.array([j for s in range(m) for j in range(s + 1)], dtype=np.int64)
    k = np.array([s - j for s in range(m) for j in range(s + 1)], dtype=np.int64)
    for table in (binom, drop, j, k):
        table.flags.writeable = False
    return binom, drop, j, k


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
    The tables that depend only on m, d and p come from
    :func:`_exponents` and :func:`_local_tables`.
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
    binom, drop, j, k = _local_tables(m, d, p)
    # shifted[:, x, j, e] = C(e, j) coords_x^(e - j): the s^j coefficient
    # of (coords_x + s)^e, for the two frame axes x
    shifted = binom * powers[:, :2, drop] % p
    e = _exponents(d)[axes]                             # (r, 3, N): e_a, e_b, e_c
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
    the scheme and the degree, so equality does not compare it.  ``h0``
    and ``rank``, the rank of the interpolation matrix, are read off its
    shape: N(d) = h0 + rank."""

    scheme: FatPointScheme
    degree: int
    basis: np.ndarray = field(compare=False)    # rows are coefficient vectors; read-only

    @property
    def h0(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1] - self.basis.shape[0]

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
        if A.shape[1] - basis.shape[0] == A.shape[0]:      # independent conditions
            scheme._table.note_least(scheme.multiplicities, d)
        return (basis,)

    (basis,) = scheme._table.lookup(("kernel", scheme.multiplicities, d), kernel)
    return LinearSystem(scheme, d, basis)


def _independent_from(scheme: FatPointScheme) -> Optional[int]:
    """The least degree d0 in which a computed kernel showed the scheme's
    conditions independent, or None; rules 1 and 2 of the module
    docstring hold from there on."""
    return scheme._table.least(scheme.multiplicities)


def _condition_count(mults) -> int:
    """k = sum m_i (m_i + 1) / 2, the number of interpolation conditions."""
    return sum(mi * (mi + 1) // 2 for mi in mults)


def _first_possible_degree(mults) -> int:
    """The least e with N(e) >= k: below it the k conditions cannot be
    independent, so it is the first degree whose kernel can show a d0."""
    k = _condition_count(mults)
    e = 0
    while (e + 1) * (e + 2) // 2 < k:
        e += 1
    return e


def h0(scheme: FatPointScheme, d: int, m=None) -> int:
    """Dimension of the degree-d piece, optionally overriding
    multiplicities: N(d) - k by rule 1 from a recorded d0 on, else the
    kernel's."""
    s = scheme if m is None else scheme.with_multiplicities(m)
    d0 = _independent_from(s)
    if d0 is not None and d >= d0:
        return (d + 1) * (d + 2) // 2 - _condition_count(s.multiplicities)
    return linear_system(s, d).h0


# ---------------------------------------------------------------------------
# multiplication maps and power containments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultMapReport:
    """Dimensions of the image x_k * (degree d-1 piece) and of the
    degree-d piece it lies in; the map is onto when they agree."""

    image_dim: int
    target_dim: int

    @property
    def surjective(self) -> bool:
        return self.image_dim == self.target_dim


def mult_map_surjective(scheme: FatPointScheme, d: int, m: int) -> MultMapReport:
    """Does multiplication by linear forms cover the next degree piece?

    Compares the span of x_k * (degree d-1 piece) with the degree-d
    piece, both at uniform multiplicity m.
    """
    return _mult_map(scheme, d, m)[0]


# The image x_k * (degree d-1 piece) as RREF rows and pivots over the
# free columns of the degree-d canonical kernel, which it lies in.
_Image = namedtuple("_Image", "rows pivots columns")


def _free_columns(basis: np.ndarray) -> np.ndarray:
    """Each row's last nonzero column.  On a canonical kernel these are
    its free columns and the basis is the identity there, so v -> v[free]
    is injective on the kernel's span."""
    return basis.shape[1] - 1 - np.argmax(basis[:, ::-1] != 0, axis=1)


def _mult_map(scheme: FatPointScheme, d: int, m: int):
    """The report of mult_map_surjective, with the image x_k * (degree
    d-1 piece) as an _Image, for callers that reduce against it; the
    image is computed once per scheme.

    From degree d0 + 2 on (module docstring, rule 2) the map is onto and
    no image is built: the image is None.  With no such d0 recorded, the
    probe of the module docstring first reads the kernel of degree
    :func:`_first_possible_degree`, which may record one.  A map rule 2
    leaves open reads the degree-d canonical kernel: it gives the
    target's h0, and the image, which it holds, is projected to its free
    columns before it is row-reduced.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    s = scheme.with_multiplicities(m)
    d0 = _independent_from(s)
    if d0 is None or d0 > d - 2:
        e = _first_possible_degree(s.multiplicities)
        if e <= d - 2:
            linear_system(s, e)                 # the probe: it may record d0 = e
            d0 = _independent_from(s)
    if d0 is not None and d >= d0 + 2:
        target_dim = h0(s, d)
        return MultMapReport(target_dim, target_dim), None

    target = linear_system(s, d)

    def image_rref():
        columns = _free_columns(target.basis)
        image = _variable_multiples(linear_system(s, d - 1).basis, d - 1, s.p)[:, columns]
        rows, pivots = rref_modp(image, s.p) if image.size else (image[:0], ())
        return _Image(rows, pivots, columns)

    image = s._table.lookup(("image", s.multiplicities, d), image_rref)
    return MultMapReport(image.rows.shape[0], target.h0), image


_UNIT_LINEAR_FORMS = np.eye(3, dtype=np.int64)


def _variable_multiples(space_rows: np.ndarray, d_minus_1: int, p: int) -> np.ndarray:
    """Rows spanning x_k * (given degree-(d-1) rows) in degree d, k-major."""
    return _all_pair_products(_UNIT_LINEAR_FORMS, 1, space_rows, d_minus_1, p)


def _power_spans(pieces: Dict[int, np.ndarray], s: int, degrees: Dict[int, np.ndarray], p: int):
    """Spans of s-fold products of piece elements, in the wanted total
    degrees, each in the columns ``degrees`` maps it to.

    Computed by repeated pairwise span products, which generate the
    same subspaces as the full s-fold product sets.  Intermediate
    levels are capped at the largest degree that can still contribute
    to an s-fold product within max(degrees), and the last level
    combines only the pairs whose total degree is wanted, so no span is
    built in a degree nobody reads.  The last level's products are
    projected to their degree's columns before they are row-reduced: the
    free columns of the target kernel that holds them, which keep every
    rank.  A wanted degree that no product reaches has no entry.
    """
    levels = {1: {d: rows for d, rows in pieces.items() if rows.shape[0]}}
    if not levels[1] or not degrees:
        return {}
    if s == 1:
        return {D: rows[:, degrees[D]] for D, rows in levels[1].items() if D in degrees}
    d_min = min(levels[1])
    d_max = max(degrees)

    def combine(ka: int, kb: int, k_total: int):
        bound = d_max - (s - k_total) * d_min
        last = k_total == s
        raw: Dict[int, List[np.ndarray]] = {}
        for da, rowsa in levels[ka].items():
            for db, rowsb in levels[kb].items():
                D = da + db
                if D > bound or (last and D not in degrees):
                    continue
                products = _all_pair_products(rowsa, da, rowsb, db, p)
                raw.setdefault(D, []).append(products[:, degrees[D]] if last else products)
        spans = {}
        for D, chunks in raw.items():
            rows = np.vstack(chunks)
            # a product of nonzero forms is nonzero, so one is its own span
            spans[D] = rows if rows.shape[0] == 1 else span_rows(rows, p)
        return spans

    k = 1
    while k < s:
        step = min(k, s - k)
        levels[k + step] = combine(k, step, k + step)
        k += step
    return levels[s]


def _power_containment(
    scheme: FatPointScheme, system: FatPointScheme, piece_degrees, s: int, m: int, degrees
):
    """For each wanted degree D, ascending: the report of the
    multiplication map onto the (D, m) piece, the span of s-fold
    products of elements of the pieces of ``system`` in piece_degrees,
    in degree D (None where none was built), and whether those products
    lie in x_k * (degree D-1 piece), all at multiplicity m.

    Every degree's map is decided first.  The products vanish to order
    m, so where the map is surjective it certifies containment; the
    piece bases and the product spans are built, in one
    :func:`_power_spans` call, only when a degree is left open, and
    only in the degrees it leaves open, and reduced against its image.
    Spans and image share the image's coordinates, the free columns of
    the degree-D target kernel, so a span's rows are its products'
    coordinates there.  Only the pieces of degree at most max(open) -
    (s - 1) * min(piece degrees) are built: the level cap of
    :func:`_power_spans`, above which a piece enters no product it
    keeps.  A degree no product reaches is contained.
    """
    maps = {D: _mult_map(scheme, D, m) for D in sorted(degrees)}
    open_degrees = {D: image.columns for D, (cert, image) in maps.items() if not cert.surjective}
    spans = {}
    if open_degrees:
        cap = max(open_degrees) - (s - 1) * min(piece_degrees)
        pieces = {d: linear_system(system, d).basis for d in piece_degrees if d <= cap}
        spans = _power_spans(pieces, s, open_degrees, scheme.p)
    decided = {}
    for D, (cert, image) in maps.items():
        products = spans.get(D)
        contained = products is None or not reduce_rows(
            products, image.rows, image.pivots, scheme.p
        ).any()
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
    piece_degrees = [d for d in range(0, d_max + 1) if h0(sn, d)]

    product_degrees = {0}
    for _ in range(s):
        product_degrees = {
            t + d for t in product_degrees for d in piece_degrees if t + d <= d_max
        }

    degrees = {}
    for D, (cert, products, contained) in _power_containment(
        scheme, sn, piece_degrees, s, s * n, product_degrees
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
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    rows = []
    for n in range(1, n_max + 1):
        sn = scheme.with_multiplicities(n)
        for d in range(0, d_max + 1):
            piece_dim = h0(sn, d)
            if piece_dim == 0:
                continue
            _, _, contained = _power_containment(scheme, sn, (d,), s, s * n, {s * d})[s * d]
            rows.append(
                {
                    "n": n,
                    "degree": d,
                    "piece_dim": piece_dim,
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
