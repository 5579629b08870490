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
truncated-expansion multinomials never collapse).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .linalg import (
    check_modulus,
    nullspace_modp,
    rank_modp,
    reduce_rows,
    rref_modp,
    span_rows,
)
from .ring import DEFAULT_PRIME, RingContext, is_prime


# ---------------------------------------------------------------------------
# degree-d monomial bookkeeping (exponent triples, fixed canonical order)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_basis(d: int) -> Tuple[Tuple[int, int, int], ...]:
    """Exponent triples of degree d, first variable dominant."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append((a, b, d - a - b))
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(d: int) -> Dict[Tuple[int, int, int], int]:
    return {m: i for i, m in enumerate(monomial_basis(d))}


@lru_cache(maxsize=None)
def _product_table(d1: int, d2: int) -> np.ndarray:
    """index[i, j] = position of monomial_i(d1) * monomial_j(d2) in d1+d2."""
    b1, b2 = monomial_basis(d1), monomial_basis(d2)
    idx = _monomial_index(d1 + d2)
    table = np.empty((len(b1), len(b2)), dtype=np.int64)
    for i, m in enumerate(b1):
        for j, w in enumerate(b2):
            table[i, j] = idx[(m[0] + w[0], m[1] + w[1], m[2] + w[2])]
    return table


def multiply_forms(u: np.ndarray, d1: int, v: np.ndarray, d2: int, p: int) -> np.ndarray:
    """Coefficient vector of the product of two forms."""
    table = _product_table(d1, d2)
    out = np.zeros(len(monomial_basis(d1 + d2)), dtype=np.int64)
    outer = (u[:, None] * v[None, :]) % p
    np.add.at(out, table.ravel(), outer.ravel())
    return out % p


def form_to_text(vec: np.ndarray, d: int, names=("x1", "x2", "x3")) -> str:
    chunks = []
    for c, m in zip(vec.tolist(), monomial_basis(d)):
        if not c:
            continue
        factors = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, m) if e]
        body = "*".join(factors) if factors else "1"
        chunks.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(chunks) if chunks else "0"


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
        return FatPointScheme(self.p, self.points, mults, self.cubic, self.seed)


def _evaluate_form(vec, d: int, pt, p: int) -> int:
    total = 0
    for c, m in zip(vec, monomial_basis(d)):
        if c:
            total += c * pow(pt[0], m[0], p) * pow(pt[1], m[1], p) * pow(pt[2], m[2], p)
    return total % p


def _cubic_is_smooth(coeffs, p: int) -> bool:
    """No common projective zero of the cubic and its partials."""
    from .ideals import Ideal, maximal_ideal, saturate

    ctx = RingContext(p, ("x1", "x2", "x3"))
    g = ctx.zero()
    for c, m in zip(coeffs, monomial_basis(3)):
        if c:
            g = g + ctx.monomial(m, int(c))
    if g.is_zero:
        return False
    J = Ideal(ctx, [g, g.deriv("x1"), g.deriv("x2"), g.deriv("x3")])
    sat, _ = saturate(J, maximal_ideal(ctx))
    return sat.is_unit


def sample_scheme(
    r: int,
    multiplicities=1,
    constraint: str = "none",
    seed: int = 0,
    p: int = DEFAULT_PRIME,
    max_tries: int = 2000,
) -> FatPointScheme:
    """Deterministic pseudo-generic configuration of r points from a seed.

    ``constraint="elliptic"`` first draws a smooth cubic, then scans for
    r distinct points on it.  Exhausting the retry budget (e.g. a tiny
    field) raises a seed error.
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
        points = []
        seen = set()
        tries = 0
        while len(points) < r:
            tries += 1
            if tries > max_tries:
                raise ValueError(f"could not sample {r} distinct points (seed {seed})")
            pt = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
            if not any(pt):
                continue
            pt = _normalize_point(pt, p)
            if pt not in seen:
                seen.add(pt)
                points.append(pt)
        return FatPointScheme(p, tuple(points), mults, None, seed)

    if constraint != "elliptic":
        raise ValueError(f"unknown constraint {constraint!r}")

    for _ in range(40):
        coeffs = tuple(rng.randrange(p) for _ in monomial_basis(3))
        if _cubic_is_smooth(coeffs, p):
            break
    else:
        raise ValueError(f"no smooth cubic found (seed {seed})")

    points = []
    seen = set()
    tries = 0
    while len(points) < r:
        tries += 1
        if tries > max_tries:
            raise ValueError(f"could not sample {r} points on the cubic (seed {seed})")
        a = rng.randrange(p)
        start = rng.randrange(p)
        # on the affine line x1 = a, x3 = 1 the cubic is univariate in x2
        uni = [0, 0, 0, 0]
        for c, (e1, e2, e3) in zip(coeffs, monomial_basis(3)):
            if c:
                uni[e2] = (uni[e2] + c * pow(a, e1, p)) % p
        c3, c2, c1, c0 = uni[3], uni[2], uni[1], uni[0]
        found = None
        for off in range(p):
            b = (start + off) % p
            if (((c3 * b + c2) * b + c1) * b + c0) % p == 0:
                found = (a, b, 1)
                break
        if found is None:
            continue
        pt = _normalize_point(found, p)
        if pt not in seen:
            seen.add(pt)
            points.append(pt)
    return FatPointScheme(p, tuple(points), mults, coeffs, seed)


# ---------------------------------------------------------------------------
# interpolation matrices and linear systems
# ---------------------------------------------------------------------------

def _local_frame(pt, p: int):
    """Two vectors completing the point to a basis, chosen canonically."""
    candidates = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    frame = []
    for e in candidates:
        trial = frame + [e]
        if _det3([pt] + trial + [(0, 0, 0)] * (2 - len(trial)), p, partial=len(trial)):
            frame.append(e)
        if len(frame) == 2:
            return tuple(frame)
    raise ValueError("degenerate point")


def _det3(rows, p, partial=2):
    # full determinant once two candidates are in place; before that,
    # require the partial frame to stay independent
    if partial == 1:
        a, b = rows[0], rows[1]
        minors = (
            a[0] * b[1] - a[1] * b[0],
            a[0] * b[2] - a[2] * b[0],
            a[1] * b[2] - a[2] * b[1],
        )
        return any(m % p for m in minors)
    a, b, c = rows[0], rows[1], rows[2]
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    return det % p != 0


@lru_cache(maxsize=None)
def _trinomials(e: int, m: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """(j, k, remaining, multinomial) for (P + sU + tV)^e truncated below m."""
    from math import comb

    out = []
    for j in range(min(e, m - 1) + 1):
        for k in range(min(e - j, m - 1 - j) + 1):
            out.append((j, k, e - j - k, comb(e, j) * comb(e - j, k)))
    return tuple(out)


def _condition_rows(pt, mult: int, d: int, p: int) -> np.ndarray:
    """Rows imposing vanishing to order mult at pt on degree-d forms.

    Expands every degree-d monomial at pt along the local frame and
    truncates below local degree mult.
    """
    U, V = _local_frame(pt, p)
    basis = monomial_basis(d)
    pairs = [(j, k) for s in range(mult) for j, k in
             ((j, s - j) for j in range(s + 1))]
    pair_index = {jk: i for i, jk in enumerate(pairs)}
    rows = np.zeros((len(pairs), len(basis)), dtype=np.int64)
    # per coordinate: truncated expansion of (pt_i + s U_i + t V_i)^e
    coord_exp: List[Dict[int, Dict[Tuple[int, int], int]]] = []
    for i in range(3):
        cache: Dict[int, Dict[Tuple[int, int], int]] = {}
        for e in range(d + 1):
            terms: Dict[Tuple[int, int], int] = {}
            for j, k, rem, mult_coef in _trinomials(e, mult):
                coef = (
                    mult_coef
                    * pow(pt[i], rem, p)
                    * pow(U[i], j, p)
                    * pow(V[i], k, p)
                ) % p
                if coef:
                    terms[(j, k)] = (terms.get((j, k), 0) + coef) % p
            cache[e] = terms
        coord_exp.append(cache)
    for col, (e1, e2, e3) in enumerate(basis):
        acc = {(0, 0): 1}
        for i, e in ((0, e1), (1, e2), (2, e3)):
            if e == 0:
                continue
            nxt: Dict[Tuple[int, int], int] = {}
            for (j1, k1), c1 in acc.items():
                for (j2, k2), c2 in coord_exp[i][e].items():
                    j, k = j1 + j2, k1 + k2
                    if j + k < mult:
                        key = (j, k)
                        nxt[key] = (nxt.get(key, 0) + c1 * c2) % p
            acc = nxt
        for (j, k), c in acc.items():
            rows[pair_index[(j, k)], col] = c
    return rows


def interpolation_matrix(scheme: FatPointScheme, d: int) -> np.ndarray:
    blocks = [
        _condition_rows(pt, m, d, scheme.p)
        for pt, m in zip(scheme.points, scheme.multiplicities)
        if m >= 1
    ]
    if not blocks:
        return np.zeros((0, len(monomial_basis(d))), dtype=np.int64)
    return np.vstack(blocks)


@dataclass
class LinearSystem:
    """Kernel of the interpolation conditions in one degree."""

    scheme: FatPointScheme
    degree: int
    basis: np.ndarray            # rows are coefficient vectors
    rank: int

    @property
    def h0(self) -> int:
        return self.basis.shape[0]

    def verify_vanishing(self) -> bool:
        """Recheck every basis form against every point's local expansion."""
        check_modulus(self.scheme.p, self.basis.shape[1])
        for pt, m in zip(self.scheme.points, self.scheme.multiplicities):
            if m < 1:
                continue
            rows = _condition_rows(pt, m, self.degree, self.scheme.p)
            if (rows @ self.basis.T % self.scheme.p).any():
                return False
        return True


def linear_system(scheme: FatPointScheme, d: int) -> LinearSystem:
    """Degree-d forms vanishing to the assigned orders at the points."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    A = interpolation_matrix(scheme, d)
    if A.shape[0] == 0:
        basis = np.eye(len(monomial_basis(d)), dtype=np.int64)
        return LinearSystem(scheme, d, basis, 0)
    rank = rank_modp(A, scheme.p)
    basis = nullspace_modp(A, scheme.p)
    return LinearSystem(scheme, d, basis, rank)


def h0(scheme: FatPointScheme, d: int, m=None) -> int:
    """Dimension of the degree-d piece, optionally overriding multiplicities."""
    s = scheme if m is None else scheme.with_multiplicities(m)
    return linear_system(s, d).h0


# ---------------------------------------------------------------------------
# multiplication maps and power containments
# ---------------------------------------------------------------------------

@dataclass
class MultMapReport:
    surjective: bool
    image_dim: int
    target_dim: int
    degree: int
    multiplicity: int
    seed: int


def mult_map_surjective(scheme: FatPointScheme, d: int, m: int) -> MultMapReport:
    """Does multiplication by linear forms cover the next degree piece?

    Compares the span of x_k * (degree d-1 piece) with the degree-d
    piece, both at uniform multiplicity m.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    s = scheme.with_multiplicities(m)
    lower = linear_system(s, d - 1)
    target = linear_system(s, d)
    p = scheme.p
    image = _variable_multiples(lower.basis, d - 1, p)
    image_dim = rank_modp(image, p)
    return MultMapReport(
        surjective=(image_dim == target.h0),
        image_dim=image_dim,
        target_dim=target.h0,
        degree=d,
        multiplicity=m,
        seed=scheme.seed,
    )


def _variable_multiples(space_rows: np.ndarray, d_minus_1: int, p: int) -> np.ndarray:
    """Rows spanning x_k * (given degree-(d-1) rows) in degree d."""
    width = len(monomial_basis(d_minus_1 + 1))
    if space_rows.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    out = []
    for k in range(3):
        unit = np.zeros(3, dtype=np.int64)
        unit[k] = 1
        for g in space_rows:
            out.append(multiply_forms(unit, 1, g, d_minus_1, p))
    return np.array(out, dtype=np.int64)


def _all_pair_products(rowsa, da, rowsb, db, p):
    out = []
    for u in rowsa:
        for v in rowsb:
            out.append(multiply_forms(u, da, v, db, p))
    return np.array(out, dtype=np.int64)


def _power_spans(pieces: Dict[int, np.ndarray], s: int, d_max: int, p: int):
    """Spans of s-fold products of piece elements, by total degree.

    Computed by repeated pairwise span products, which generate the
    same subspaces as the full s-fold product sets.  Intermediate
    levels are capped at the largest degree that can still contribute
    to an s-fold product within d_max.
    """
    levels = {1: {d: rows for d, rows in pieces.items() if rows.shape[0]}}
    if not levels[1]:
        return {}
    d_min = min(levels[1])

    def combine(ka: int, kb: int, k_total: int):
        bound = d_max - (s - k_total) * d_min
        raw: Dict[int, List[np.ndarray]] = {}
        for da, rowsa in levels[ka].items():
            for db, rowsb in levels[kb].items():
                D = da + db
                if D > bound:
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
    return levels[s]


def graded_power_containment(
    scheme: FatPointScheme, n: int, s: int, d_max: int
) -> dict:
    """Per-degree check that s-fold products of the multiplicity-n
    system land inside the variable multiples of the multiplicity-s*n
    system.

    For each total degree D at most d_max, the span of s-fold products
    of basis elements of the n-system pieces is compared with the span
    of x_k * (degree D-1 piece of the sn-system).  On a cubic
    configuration the bottom degree 3*s*n is the designed exception:
    the comparison space is zero there while the cubic's power
    survives.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be positive")
    p = scheme.p
    base = scheme.with_multiplicities(n)
    high = scheme.with_multiplicities(s * n)

    pieces: Dict[int, np.ndarray] = {}
    for d in range(0, d_max + 1):
        ls = linear_system(base, d)
        if ls.h0:
            pieces[d] = ls.basis

    product_degrees = set()
    if pieces:
        sums = {0}
        for _ in range(s):
            sums = {
                t + d for t in sums for d in pieces if t + d <= d_max
            }
        product_degrees = sums

    lazy_spans: Dict[int, np.ndarray] = {}

    def exact_products(D):
        nonlocal lazy_spans
        if not lazy_spans:
            lazy_spans = _power_spans(pieces, s, d_max, p)
        return lazy_spans.get(D)

    degrees = {}
    for D in sorted(product_degrees):
        # products vanish to order s*n, so surjectivity of multiplication
        # by linear forms onto the (D, s*n) piece certifies containment
        cert = mult_map_surjective(scheme, D, s * n)
        if cert.surjective:
            degrees[D] = {
                "contained": True,
                "via": "multiplication-map surjectivity",
                "comparison_dim": cert.image_dim,
            }
            continue
        products = exact_products(D)
        if products is None or products.size == 0:
            degrees[D] = {
                "contained": True,
                "via": "empty product span",
                "comparison_dim": cert.image_dim,
            }
            continue
        target = _variable_multiples(linear_system(high, D - 1).basis, D - 1, p)
        if target.size:
            tr, tpiv = rref_modp(target, p)
            residues = reduce_rows(products, tr, tpiv, p)
            comparison_dim = int(tr.shape[0])
        else:
            residues = products % p
            comparison_dim = 0
        degrees[D] = {
            "contained": bool(not residues.any()),
            "via": "product-span reduction",
            "products_dim": int(products.shape[0]),
            "comparison_dim": comparison_dim,
        }
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
    x_k * (s*n-system); by polarization over a large field this covers
    every element of the piece.  Pieces with survivors are the
    candidate generators of the special fiber beyond the base field.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p = scheme.p
    rows = []
    for n in range(1, n_max + 1):
        base = scheme.with_multiplicities(n)
        high = scheme.with_multiplicities(s * n)
        for d in range(0, d_max + 1):
            piece = linear_system(base, d)
            if piece.h0 == 0:
                continue
            if mult_map_surjective(scheme, s * d, s * n).surjective:
                survives = False          # s-th powers land in the x_k multiples
            else:
                spans = _power_spans({d: piece.basis}, s, s * d, p)
                products = spans.get(s * d)
                target = _variable_multiples(
                    linear_system(high, s * d - 1).basis, s * d - 1, p
                )
                if products is None:
                    survives = False
                elif target.size == 0:
                    survives = bool(products.any())
                else:
                    tr, tpiv = rref_modp(target, p)
                    survives = bool(reduce_rows(products, tr, tpiv, p).any())
            rows.append(
                {
                    "n": n,
                    "degree": d,
                    "piece_dim": piece.h0,
                    "survives": bool(survives),
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
