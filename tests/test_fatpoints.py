import copy
import dataclasses
import math
import pickle
import random
import signal
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    condition_rows_reference,
    containment_reference,
    cubic_is_smooth_by_saturation,
    first_root_scan,
    gauss_jordan,
    monomials_of_degree,
    poly_roots_brute_force,
)
from spreadlab import RingContext
from spreadlab.fatpoints import (
    _PRODUCT_GROUPS,
    _PRODUCT_GROUPS_BYTES,
    FatPointScheme,
    _all_pair_products,
    _condition_matrix,
    _cubic_is_smooth,
    _first_root,
    _local_frame,
    _product_groups,
    _roots_modp,
    _variable_multiples,
    fiber_generator_census,
    graded_power_containment,
    h0,
    interpolation_matrix,
    linear_system,
    monomial_basis,
    mult_map_surjective,
    sample_scheme,
)
from spreadlab.linalg import (
    check_modulus,
    nullspace_modp,
    rank_modp,
    reduce_rows,
    reduction_budget,
    rref_modp,
)


NAGATA_SEED = 42
ELLIPTIC_SEED = 7


@pytest.fixture(scope="module")
def nagata():
    return sample_scheme(16, 1, "none", seed=NAGATA_SEED)


@pytest.fixture(scope="module")
def elliptic():
    return sample_scheme(12, 1, "elliptic", seed=ELLIPTIC_SEED)


# --- sampling ----------------------------------------------------------------

def test_sampling_deterministic(nagata):
    again = sample_scheme(16, 1, "none", seed=NAGATA_SEED)
    assert again.points == nagata.points


def test_points_distinct(nagata, elliptic):
    assert len(set(nagata.points)) == 16
    assert len(set(elliptic.points)) == 12


def test_elliptic_points_on_cubic(elliptic):
    p = elliptic.p
    for pt in elliptic.points:
        total = 0
        for c, (a, b, e) in zip(elliptic.cubic, monomial_basis(3)):
            total += c * pow(pt[0], a, p) * pow(pt[1], b, p) * pow(pt[2], e, p)
        assert total % p == 0


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_elliptic_sampling_large_prime():
    """Root finding costs polynomial time in log p, not a scan of F_p."""
    p = 2**31 - 1
    with deadline(2.0):
        scheme = sample_scheme(12, 1, "elliptic", seed=3, p=p)
    assert len(set(scheme.points)) == 12
    for pt in scheme.points:
        total = sum(
            c * pow(pt[0], a, p) * pow(pt[1], b, p) * pow(pt[2], e, p)
            for c, (a, b, e) in zip(scheme.cubic, monomial_basis(3))
        )
        assert total % p == 0


# monomials whose coefficients are g(0:0:1) and the partials there, up to 3
_SINGULAR_AT_E3 = [monomial_basis(3).index(m) for m in ((0, 0, 3), (1, 0, 2), (0, 1, 2))]


@pytest.mark.parametrize("p", [5, 7, 101, 32003])
def test_smooth_cubic_verdict_matches_saturation(p):
    """krull_dim(J) <= 0 decides smoothness as the saturation J : m^inf does."""
    rng = random.Random(p)
    for i in range(75):
        coeffs = [rng.randrange(p) for _ in range(10)]
        forced = i % 3 == 0
        if forced:
            for k in _SINGULAR_AT_E3:
                coeffs[k] = 0
        verdict = _cubic_is_smooth(tuple(coeffs), p)
        assert verdict == cubic_is_smooth_by_saturation(coeffs, p), coeffs
        assert not (forced and verdict)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 997])
def test_cubic_roots_against_brute_force(p):
    rng = random.Random(p)
    polys = [[0, 0, 0, 0], [5, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    for _ in range(40):
        f = [rng.randrange(p) for _ in range(4)]
        top = rng.randrange(6)           # below 4: zero the terms of degree >= top
        polys.append(f[:top] + [0] * (4 - top) if top < 4 else f)
    for _ in range(20):
        # planted roots, some repeated, with a unit or vanishing leading part
        r1, r2 = rng.randrange(p), rng.randrange(p)
        lead = rng.randrange(1, p)
        square = [r1 * r1 * lead % p, -2 * r1 * lead % p, lead, 0]
        polys.append(square)
        polys.append([-r1 * r1 * r2 * lead % p, (r1 * r1 + 2 * r1 * r2) * lead % p,
                      -(2 * r1 + r2) * lead % p, lead])
    for f in polys:
        brute = poly_roots_brute_force(f, p)
        if any(c % p for c in f):
            assert _roots_modp(f, p) == brute, f
        for start in {0, p - 1, rng.randrange(p)}:
            assert _first_root(f, start, p) == first_root_scan(f, start, p), (f, start)


def test_tiny_field_capacity_error():
    # the projective plane over F_7 has only 57 points, and a smooth
    # cubic over F_7 at most 7 + 1 + 2 * sqrt(7) < 14
    with pytest.raises(ValueError, match=r"^could not sample 60 distinct points \(seed 1\)$"):
        sample_scheme(60, 1, "none", seed=1, p=7)
    with pytest.raises(ValueError, match=r"^could not sample 40 points on the cubic \(seed 1\)$"):
        sample_scheme(40, 1, "elliptic", seed=1, p=7)


def test_sampled_points_pinned():
    """Exact samples over F_7, where draws repeat points (and, on the
    cubic, find lines without one): first occurrences, in draw order."""
    scheme = sample_scheme(20, 1, "none", seed=1, p=7)
    assert scheme.points == (
        (1, 4, 6), (1, 1, 0), (1, 0, 5), (1, 4, 4), (1, 2, 4), (1, 0, 3), (0, 1, 4),
        (1, 6, 2), (1, 0, 2), (1, 3, 4), (1, 6, 3), (0, 1, 0), (0, 0, 1), (1, 0, 6),
        (1, 3, 2), (1, 6, 5), (0, 1, 5), (0, 1, 6), (1, 1, 5), (1, 3, 6),
    )
    assert scheme.cubic is None
    scheme = sample_scheme(8, 1, "elliptic", seed=4, p=7)
    assert scheme.cubic == (1, 2, 0, 5, 3, 3, 1, 0, 0, 0)
    assert scheme.points == (
        (1, 6, 5), (1, 0, 4), (1, 4, 1), (1, 4, 2), (1, 2, 1), (0, 0, 1), (1, 2, 4), (1, 0, 3),
    )


def test_duplicate_detection():
    with pytest.raises(ValueError):
        FatPointScheme(32003, ((1, 0, 0), (1, 0, 0)), (1, 1), None, 0)


def test_composite_modulus_and_negative_multiplicity_refused():
    points = ((1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        FatPointScheme(32001, points, (1, 1), None, 0)            # 32001 = 3 * 10667
    with pytest.raises(ValueError):
        sample_scheme(2, 1, "none", seed=1, p=32001)
    scheme = FatPointScheme(32003, points, (1, 1), None, 0)
    with pytest.raises(ValueError):
        scheme.with_multiplicities(-1)
    with pytest.raises(ValueError):
        FatPointScheme(32003, points, (2, -1), None, 0)
    assert h0(scheme, 1, 0) == 3


# --- h0 values -----------------------------------------------------------------

def test_pencil_of_lines():
    s = sample_scheme(1, 1, "none", seed=5)
    assert h0(s, 1) == 2


def test_conic_through_five_points():
    s = sample_scheme(5, 1, "none", seed=11)
    assert h0(s, 2) == 1


def test_nagata_no_quartic(nagata):
    ls = linear_system(nagata, 4)
    assert ls.h0 == 0
    assert ls.rank == len(monomial_basis(4))   # 15 independent conditions


def test_nagata_vanishing_at_scale(nagata):
    for m in (1, 2, 3):
        assert h0(nagata, 4 * m, m) == 0


def test_elliptic_ladder(elliptic):
    for m in (1, 2, 3):
        assert h0(elliptic, 3 * m, m) == 1
        assert h0(elliptic, 3 * m - 1, m) == 0


def test_elliptic_quartics(elliptic):
    assert h0(elliptic, 4, 1) == 3


def test_h0_monotone(nagata):
    values = [h0(nagata, d, 1) for d in range(3, 9)]
    assert values == sorted(values)
    assert h0(nagata, 8, 2) <= h0(nagata, 8, 1)


def test_condition_count_bound(nagata, elliptic):
    for scheme, d, m in ((nagata, 6, 1), (nagata, 9, 2), (elliptic, 7, 2)):
        s = scheme.with_multiplicities(m)
        ls = linear_system(s, d)
        conditions = scheme.r * math.comb(m + 1, 2)
        N = len(monomial_basis(d))
        assert ls.rank <= conditions
        assert ls.h0 >= N - conditions
    # nonspecial sample: equality
    ls = linear_system(nagata.with_multiplicities(1), 6)
    assert ls.h0 == len(monomial_basis(6)) - 16


def test_basis_vanishing_rechecked(nagata, elliptic):
    assert linear_system(nagata.with_multiplicities(2), 9).verify_vanishing()
    assert linear_system(elliptic.with_multiplicities(1), 4).verify_vanishing()


def test_basis_vanishing_independent_route(elliptic):
    """Re-substitute basis forms symbolically along local parameters."""
    m = 2
    d = 7
    ls = linear_system(elliptic.with_multiplicities(m), d)
    ctx = RingContext(elliptic.p, ("s", "t"))

    for row in ls.basis[:3]:
        for pt in elliptic.points[:4]:
            U, V = _local_frame(pt, elliptic.p)
            svar, tvar = ctx.gens()
            coords = [
                ctx.const(pt[i]) + svar * U[i] + tvar * V[i] for i in range(3)
            ]
            total = ctx.zero()
            for c, (e1, e2, e3) in zip(row.tolist(), monomial_basis(d)):
                if c:
                    total = total + ctx.const(int(c)) * (
                        coords[0] ** e1 * coords[1] ** e2 * coords[2] ** e3
                    )
            for mono, coeff in total.terms:
                assert mono[0] + mono[1] >= m or coeff == 0


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_condition_rows_against_dict_expansion(p):
    rng = random.Random(p)
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    points += [tuple(rng.randrange(1, p) for _ in range(3)) for _ in range(2)]
    points += [(0, rng.randrange(1, p), rng.randrange(1, p))]
    for mult in range(1, 6):
        for d in range(0, 13):
            for pt in (points[(mult + d) % len(points)], points[(mult * d) % len(points)]):
                U, V = _local_frame(pt, p)
                det = (pt[0] * (U[1] * V[2] - U[2] * V[1])
                       - pt[1] * (U[0] * V[2] - U[2] * V[0])
                       + pt[2] * (U[0] * V[1] - U[1] * V[0]))
                assert det % p != 0                 # (pt, U, V) is a basis
                expected = condition_rows_reference(pt, U, V, mult, d, p)
                rows = _condition_matrix([pt], [mult], d, p)
                assert rows.shape == (mult * (mult + 1) // 2, len(monomials_of_degree(d)))
                assert rows.tolist() == expected, (pt, mult, d)


# --- row reduction ---------------------------------------------------------------

def seeded_matrices(p, count=25):
    """Random matrices over F_p with planted dependent rows and zero columns."""
    rng = np.random.default_rng(p % 1000)
    for _ in range(count):
        rows, cols = (int(x) for x in rng.integers(1, 10, size=2))
        A = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        if rows >= 3:
            A[-1] = (A[0] * int(rng.integers(0, p)) + A[1]) % p
        A[:, rng.integers(0, cols)] = 0
        yield A


def check_against_gauss_jordan(A, p):
    rows = A.tolist()
    expected, expected_pivots = gauss_jordan(rows, p)
    R, pivots = rref_modp(A, p)
    assert R.dtype == np.int64
    assert R.tolist() == expected and list(pivots) == expected_pivots
    basis = nullspace_modp(A, p)
    free = [c for c in range(A.shape[1]) if c not in expected_pivots]
    assert basis.shape == (len(free), A.shape[1])
    for k, c in enumerate(free):
        # the canonical kernel vector: 1 at free column c, 0 at the others
        vec = basis[k].tolist()
        assert [vec[f] for f in free] == [int(f == c) for f in free]
        assert all(sum(a * v for a, v in zip(row, vec)) % p == 0 for row in rows)
    return len(expected_pivots)


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_rref_and_nullspace_against_gauss_jordan(p):
    for A in seeded_matrices(p):
        check_against_gauss_jordan(A, p)


def test_reduction_budget_is_largest_safe_count():
    for p in (2, 3, 101, 32003, 1299709, 1660003, 2**31 - 1, 3037000493):
        k = reduction_budget(p)
        assert k >= 1
        if k > 1:
            assert (p + k * (p - 1) ** 2) * (p - 1) < 2**63
        assert (p + (k + 1) * (p - 1) ** 2) * (p - 1) >= 2**63


# (p, budget): a reduction after every pivot at the two largest primes,
# every 4 pivots near 1.3e6, never before the end at 32003
BUDGET_PRIMES = [(2**31 - 1, 1), (3037000493, 1), (1299709, 4), (32003, 281422)]


def budget_matrices(p):
    """Seeded tall, wide, square and rank-deficient matrices up to 60 x 60,
    some with zero columns, as products of random factors mod p."""
    rng = np.random.default_rng(p % 10007)
    for rows, cols, rank, zero_cols in (
        (60, 60, 60, 0), (60, 60, 41, 3), (60, 24, 24, 2), (24, 60, 24, 0),
        (60, 45, 13, 4), (33, 60, 33, 5), (50, 50, 1, 0),
    ):
        X = rng.integers(0, p, size=(rows, rank)).astype(object)
        Y = rng.integers(0, p, size=(rank, cols)).astype(object)
        A = ((X @ Y) % p).astype(np.int64)
        A[:, rng.choice(cols, size=zero_cols, replace=False)] = 0
        yield A, rank


@pytest.mark.parametrize("p, budget", BUDGET_PRIMES)
def test_rref_delayed_reduction_against_gauss_jordan(p, budget):
    assert reduction_budget(p) == budget
    ranks = [check_against_gauss_jordan(A, p) for A, _ in budget_matrices(p)]
    # the periodic reduction runs: ranks exceed the budget below 32003's
    assert max(ranks) == 60 and (budget > 60 or max(ranks) > budget)


def test_linear_system_rank_is_matrix_rank(nagata, elliptic):
    for scheme, m, d in ((nagata, 1, 4), (nagata, 2, 9), (elliptic, 1, 5),
                         (elliptic, 3, 9), (elliptic, 2, 3)):
        s = scheme.with_multiplicities(m)
        assert linear_system(s, d).rank == rank_modp(interpolation_matrix(s, d), s.p)


# --- multiplication maps ----------------------------------------------------------

def test_multmap_nagata_surjective(nagata):
    rep = mult_map_surjective(nagata, 8, 1)
    assert rep.surjective


def test_multmap_elliptic_surjective(elliptic):
    rep = mult_map_surjective(elliptic, 8, 1)
    assert rep.surjective


def test_multmap_elliptic_cubic_fails(elliptic):
    rep = mult_map_surjective(elliptic, 3, 1)
    assert not rep.surjective
    assert (rep.image_dim, rep.target_dim) == (0, 1)


# --- containments -------------------------------------------------------------------

def test_nagata_containment_small(nagata):
    rep = graded_power_containment(nagata, 1, 4, 21)
    assert not rep["empty"]
    assert all(row["contained"] for row in rep["degrees"].values())


def test_containment_empty_flag(nagata):
    rep = graded_power_containment(nagata, 1, 4, 19)
    assert rep["empty"]


def test_elliptic_exception_degree(elliptic):
    rep = graded_power_containment(elliptic, 1, 4, 13)
    assert rep["expected_exception_degree"] == 12
    assert rep["degrees"][12]["contained"] is False
    assert rep["degrees"][13]["contained"] is True


def test_containment_builds_spans_only_where_the_map_leaves_it_open(
    monkeypatch, nagata, elliptic
):
    import spreadlab.fatpoints as fatpoints

    # a degree-D span has (D + 1)(D + 2) / 2 columns
    degree_of = {(D + 1) * (D + 2) // 2: D for D in range(64)}
    built = []
    real = fatpoints.span_rows

    def recording(P, p):
        built.append(degree_of[P.shape[1]])
        return real(P, p)

    monkeypatch.setattr(fatpoints, "span_rows", recording)
    rep = graded_power_containment(elliptic, 1, 2, 12)
    certified = {D for D, row in rep["degrees"].items()
                 if row["via"] == "multiplication-map surjectivity"}
    reduced = {D for D, row in rep["degrees"].items()
               if row["via"] == "product-span reduction"}
    assert certified and reduced
    assert set(built) == reduced
    built.clear()
    rep = graded_power_containment(nagata, 1, 4, 21)
    assert not rep["empty"] and built == []


# the "contain" jobs of the fatpoints benchmark: (n, s, d_max) per scheme
BENCH_CONTAIN = {"none": ((1, 2, 12), (1, 3, 15)), "elliptic": ((1, 2, 12), (1, 3, 12))}


@pytest.mark.parametrize("constraint, r", [("none", 16), ("elliptic", 12)])
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_open_degrees_always_have_a_nonzero_product_span(monkeypatch, constraint, r, seed):
    # every reported degree is a sum of s degrees of nonzero pieces, and
    # products of nonzero forms are nonzero, so no open degree is left
    # without products to reduce
    import spreadlab.fatpoints as fatpoints

    decided = []
    real = fatpoints._power_containment

    def recording(*args):
        out = real(*args)
        decided.append(out)
        return out

    monkeypatch.setattr(fatpoints, "_power_containment", recording)
    scheme = sample_scheme(r, 1, constraint, seed=seed)
    open_degrees = 0
    for n, s, d_max in BENCH_CONTAIN[constraint]:
        rep = graded_power_containment(scheme, n, s, d_max)
        for D, (cert, products, _) in decided.pop().items():
            if not cert.surjective:
                assert products is not None and products.any()
                assert rep["degrees"][D]["via"] == "product-span reduction"
                open_degrees += 1
    # on general points the maps decide every degree of these jobs
    assert (open_degrees > 0) == (constraint == "elliptic")


@pytest.mark.parametrize("which, n, s, d_max", [
    ("nagata", 1, 4, 21), ("nagata", 1, 4, 19),
    ("elliptic", 1, 2, 12), ("elliptic", 1, 3, 12), ("elliptic", 1, 4, 13),
])
def test_containment_matches_eager_reference(which, n, s, d_max, nagata, elliptic):
    scheme = nagata if which == "nagata" else elliptic
    rep = graded_power_containment(_rebuilt(scheme), n, s, d_max)
    reference = containment_reference(_rebuilt(scheme), n, s, d_max)
    assert rep == reference
    assert repr(rep) == repr(reference)           # key order and value types too


# --- census --------------------------------------------------------------------------

def test_elliptic_census_one_survivor(elliptic):
    rep = fiber_generator_census(elliptic, 1, 5)
    assert rep["survivors"] == [(1, 3)]
    by_degree = {row["degree"]: row for row in rep["pieces"]}
    assert by_degree[3]["piece_dim"] == 1


def test_nagata_census_no_survivors(nagata):
    rep = fiber_generator_census(nagata, 1, 6)
    assert rep["survivors"] == []
    assert all(not row["survives"] for row in rep["pieces"])


def test_census_empty(nagata):
    rep = fiber_generator_census(nagata, 0, 6)
    assert rep["pieces"] == [] and rep["survivors"] == []


# --- product machinery ----------------------------------------------------------------

def test_multiply_forms_agrees_with_ring():
    ctx = RingContext(32003, ("x1", "x2", "x3"))
    rng_vec = np.array([3, 1, 0, 2, 0, 5], dtype=np.int64)       # degree 2
    other = np.array([1, 0, 4], dtype=np.int64)                  # degree 1
    prod = _all_pair_products(rng_vec, 2, other, 1, 32003)[0]
    f = ctx.zero()
    for c, m in zip(rng_vec.tolist(), monomial_basis(2)):
        f = f + ctx.monomial(m, int(c))
    g = ctx.zero()
    for c, m in zip(other.tolist(), monomial_basis(1)):
        g = g + ctx.monomial(m, int(c))
    expected = f * g
    h = ctx.zero()
    for c, m in zip(prod.tolist(), monomial_basis(3)):
        h = h + ctx.monomial(m, int(c))
    assert h == expected


def _as_form(ctx, vec, d):
    f = ctx.zero()
    for c, m in zip(vec.tolist(), monomial_basis(d)):
        f = f + ctx.monomial(m, int(c))
    return f


@pytest.mark.parametrize("p", [101, 32003, 2**31 - 1])
def test_pair_products_and_variable_multiples_agree_with_ring(p):
    ctx = RingContext(p, ("x1", "x2", "x3"))
    variables = [ctx.monomial(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    rng = np.random.default_rng(p % 1000 + 7)
    for da in range(7):
        rowsa = rng.integers(0, p, size=(2, len(monomial_basis(da))))
        multiples = _variable_multiples(rowsa, da, p)
        assert multiples.shape == (6, len(monomial_basis(da + 1)))
        assert ((0 <= multiples) & (multiples < p)).all()
        for k, x in enumerate(variables):
            for i, g in enumerate(rowsa):
                assert _as_form(ctx, multiples[2 * k + i], da + 1) == x * _as_form(ctx, g, da)
        for db in range(7):
            rowsb = rng.integers(0, p, size=(3, len(monomial_basis(db))))
            out = _all_pair_products(rowsa, da, rowsb, db, p)
            assert out.shape == (6, len(monomial_basis(da + db)))
            assert ((0 <= out) & (out < p)).all()
            for i, u in enumerate(rowsa):
                for j, v in enumerate(rowsb):
                    expected = _as_form(ctx, u, da) * _as_form(ctx, v, db)
                    assert _as_form(ctx, out[3 * i + j], da + db) == expected


def test_pair_products_of_empty_inputs():
    p = 32003
    rows = np.ones((2, 6), dtype=np.int64)
    empty = np.zeros((0, 6), dtype=np.int64)
    assert _all_pair_products(empty, 2, rows, 2, p).shape == (0, 15)
    assert _all_pair_products(rows, 2, empty, 2, p).shape == (0, 15)
    assert _variable_multiples(empty, 2, p).shape == (0, 10)


def test_pair_products_in_blocks_match_whole(monkeypatch):
    import spreadlab.fatpoints as fatpoints

    p = 32003
    rng = np.random.default_rng(3)
    rowsa = rng.integers(0, p, size=(3, 10))          # degree 3
    rowsb = rng.integers(0, p, size=(7, 15))          # degree 4
    whole = _all_pair_products(rowsa, 3, rowsb, 4, p)
    monkeypatch.setattr(fatpoints, "_PRODUCT_BLOCK", 2 * 10 * 15)   # 2 rows a block
    assert np.array_equal(_all_pair_products(rowsa, 3, rowsb, 4, p), whole)


def test_degree_caches_stay_bounded():
    for d in range(80):
        monomial_basis(d)
        _product_groups(d, 1)
    for info in (monomial_basis.cache_info(), _PRODUCT_GROUPS.cache_info()):
        assert info.maxsize is not None and info.currsize <= info.maxsize
    # _product_groups is bounded in bytes: (60, 60) alone sorts 1891^2 entries
    order, starts = _product_groups(60, 60)
    assert order.nbytes > _PRODUCT_GROUPS_BYTES
    info = _PRODUCT_GROUPS.cache_info()
    assert info.maxsize == _PRODUCT_GROUPS_BYTES and info.currsize <= info.maxsize
    assert not order.flags.writeable and not starts.flags.writeable


def test_each_linear_system_computed_once_per_call(monkeypatch):
    """A containment and then a census on one scheme build each
    (multiplicities, degree) interpolation matrix, and reduce it to its
    kernel, at most once."""
    import spreadlab.fatpoints as fatpoints

    scheme = sample_scheme(12, 1, "elliptic", seed=ELLIPTIC_SEED)    # an empty table
    matrices, kernels = [], []
    real_matrix, real_kernel = fatpoints.interpolation_matrix, fatpoints.nullspace_modp

    def counting_matrix(s, d):
        matrices.append((s.multiplicities, d))
        return real_matrix(s, d)

    def counting_kernel(A, p):
        kernels.append(A.shape)
        return real_kernel(A, p)

    monkeypatch.setattr(fatpoints, "interpolation_matrix", counting_matrix)
    monkeypatch.setattr(fatpoints, "nullspace_modp", counting_kernel)
    graded_power_containment(scheme, 1, 2, 12)
    contained = len(matrices)
    fiber_generator_census(scheme, 2, 6, 2)
    assert 0 < contained < len(matrices)
    assert len(matrices) == len(set(matrices)) == len(kernels)
    # the census's multiplicity-1 pieces came from the containment's table
    assert all(m != (1,) * 12 for m, _ in matrices[contained:])


def test_linear_system_results_are_read_only(nagata):
    ls = linear_system(nagata, 6)
    kernel = ls.basis.copy()
    with pytest.raises(ValueError):
        ls.basis[0, 0] += 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        ls.basis = np.zeros_like(kernel)
    again = linear_system(nagata, 6)
    assert np.array_equal(again.basis, kernel) and again.rank == ls.rank
    report = mult_map_surjective(nagata, 8, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.surjective = False


def _rebuilt(scheme):
    """The same fields in a new scheme, whose table starts empty."""
    return FatPointScheme(scheme.p, scheme.points, scheme.multiplicities,
                          scheme.cubic, scheme.seed)


@pytest.mark.parametrize("which", ["nagata", "elliptic", "non-uniform"])
def test_table_served_results_match_a_fresh_scheme(which, nagata, elliptic):
    if which == "non-uniform":
        base = nagata.with_multiplicities([1, 2, 3, 0] * 4)
    else:
        base = nagata if which == "nagata" else elliptic
    for m, d in ((1, 6), (2, 9), (1, 8), (3, 9)):
        for scheme in (base, base.with_multiplicities(m)):
            twice = [linear_system(scheme, d), linear_system(scheme, d)]
            fresh = linear_system(_rebuilt(scheme), d)
            for ls in twice:
                assert ls.scheme is scheme and ls.degree == d
                assert np.array_equal(ls.basis, fresh.basis) and ls.rank == fresh.rank
                assert ls == fresh and hash(ls) == hash(fresh)
            assert h0(scheme, d) == fresh.h0
        assert h0(base, d, m) == h0(_rebuilt(base), d, m)
        served = [mult_map_surjective(base, d, m) for _ in range(2)]
        assert served[0] == served[1] == mult_map_surjective(_rebuilt(base), d, m)


def test_replaced_points_never_see_the_old_table(nagata):
    scheme = _rebuilt(nagata)
    assert h0(scheme, 5) == 5
    others = sample_scheme(16, 1, "none", seed=NAGATA_SEED + 1).points
    moved = dataclasses.replace(scheme, points=others)
    assert moved._table is not scheme._table and moved._table.nbytes == 0
    # scheme's table holds degree 5 for these multiplicities, so a shared
    # table would hand moved the old points' kernel
    fresh = _rebuilt(moved)
    assert np.array_equal(linear_system(moved, 5).basis, linear_system(fresh, 5).basis)
    for copied in (pickle.loads(pickle.dumps(scheme)), copy.deepcopy(scheme)):
        assert copied == scheme and copied._table.nbytes == 0
        assert h0(copied, 5) == 5


def test_table_stays_within_its_byte_cap(monkeypatch):
    import spreadlab.fatpoints as fatpoints

    expected = {d: linear_system(sample_scheme(16, 1, "none", seed=3), d).basis
                for d in range(4, 12)}
    monkeypatch.setattr(fatpoints, "_TABLE_BYTES", expected[10].nbytes + 1)
    scheme = sample_scheme(16, 1, "none", seed=3)
    for _ in range(2):
        for d in range(4, 12):
            assert np.array_equal(linear_system(scheme, d).basis, expected[d])
            assert scheme._table.nbytes <= scheme._table.maxbytes
    # degree 11 is never kept; the first sweep ends holding only degree 10,
    # which the second sweep's lower degrees evict before it comes round
    assert expected[11].nbytes > scheme._table.maxbytes
    assert scheme._table.cache_info().misses == 16


def _run_threads(target, count):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=target, args=(k,)) for k in range(count)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)


def test_shared_table_under_threads(monkeypatch):
    """Threads sharing one scheme's table, under a cap that forces
    evictions, get the kernels a fresh scheme gives, and the table's byte
    count stays the sum of its entries, also when two threads miss the
    same key at once."""
    import spreadlab.fatpoints as fatpoints

    degrees = range(4, 11)
    fresh = sample_scheme(16, 1, "none", seed=5)
    expected = {d: linear_system(fresh, d).basis for d in degrees}
    monkeypatch.setattr(fatpoints, "_TABLE_BYTES", 3 * expected[10].nbytes)
    scheme = sample_scheme(16, 1, "none", seed=5)
    table = scheme._table
    results = []

    both_missed = threading.Barrier(2, timeout=30)
    real = fatpoints.interpolation_matrix

    def side_by_side(s, d):
        both_missed.wait()
        return real(s, d)

    monkeypatch.setattr(fatpoints, "interpolation_matrix", side_by_side)
    _run_threads(lambda k: results.append((10, linear_system(scheme, 10).basis)), 2)
    monkeypatch.setattr(fatpoints, "interpolation_matrix", real)
    assert table.misses == 2 and table.nbytes == expected[10].nbytes

    def sweep(k):
        for i in range(40):
            d = degrees[(i * (k + 1)) % len(degrees)]
            results.append((d, linear_system(scheme, d).basis))

    _run_threads(sweep, 4)
    assert len(results) == 2 + 4 * 40
    assert all(np.array_equal(basis, expected[d]) for d, basis in results)
    assert table.nbytes == sum(size for _, size in table._entries.values()) <= table.maxbytes


# --- int64 range -------------------------------------------------------------

MERSENNE_31 = 2**31 - 1


def test_vanishing_recheck_refuses_overflowing_prime():
    """At p = 2^31 - 1 one product fits in int64 but a 21-term sum does not."""
    scheme = sample_scheme(16, 1, "none", seed=3, p=MERSENNE_31)
    for d in (5, 6):
        ls = linear_system(scheme, d)
        assert ls.h0 > 0
        # the kernel itself is exact: checked with Python integers
        for pt in scheme.points:
            rows = _condition_matrix([pt], [1], d, scheme.p).astype(object)
            assert not ((rows @ ls.basis.T.astype(object)) % scheme.p).any()
        with pytest.raises(ValueError):
            ls.verify_vanishing()


def test_row_reduction_refuses_prime_beyond_int64_products():
    p = 4294967311                   # the least prime above 2^32
    with pytest.raises(ValueError):
        rref_modp(np.array([[1, 2], [3, 4]]), p)
    scheme = sample_scheme(4, 1, "none", seed=1, p=p)
    for _ in range(2):                 # a refusal is not remembered as an answer
        with pytest.raises(ValueError):
            linear_system(scheme, 2)
        with pytest.raises(ValueError):
            h0(scheme, 2, 0)
        with pytest.raises(ValueError):
            mult_map_surjective(scheme, 3, 1)
    assert scheme._table.nbytes == 0


def test_reduce_rows_bound_follows_inner_dimension():
    R = np.eye(3, dtype=np.int64)
    P = np.ones((2, 3), dtype=np.int64)
    assert not reduce_rows(P, R[:2], (0, 1), MERSENNE_31)[:, :2].any()
    with pytest.raises(ValueError):
        reduce_rows(P, R, (0, 1, 2), MERSENNE_31)


def test_modulus_bound_is_exact():
    check_modulus(3037000499)        # (p - 1)^2 just below 2^63
    with pytest.raises(ValueError):
        check_modulus(3037000501)
    check_modulus(MERSENNE_31, 2)
    with pytest.raises(ValueError):
        check_modulus(MERSENNE_31, 3)
