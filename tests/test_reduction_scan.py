"""The certified-reduction scan and the spread memo of ``analytic_spread``.

``filtrations._reduction_shortcut`` decides I^2 = J*I + m*I^2 by ranks
of the products g_j g_k modulo m*I^2.  Every answer here is compared
with ``oracles.reduction_certificate_reference``, which decides the same
equality by comparing reduced Groebner bases, and must return exactly
the same (J, note) or None.  Spreads of equigenerated monomial ideals
are checked against the rank of their exponent matrix.
"""

import functools
import itertools
import random
import sys
import threading

import pytest

import spreadlab.filtrations as filtrations
import spreadlab.ideals as ideals
from oracles import exponent_rank, reduction_certificate_reference
from spreadlab import RingContext, analytic_spread, ideal
from spreadlab.filtrations import _reduction_shortcut

PRIMES = (101, 32003, 2**61 - 1)
WEIGHTS = ((1, 1, 1), (1, 2, 3))

# the six-monomial supports of the benchmark's spread-rees stream, none
# of which has a certified reduction among its generators
MONO6 = (
    ((0, 4, 0), (1, 0, 3), (1, 2, 1), (2, 0, 2), (2, 1, 1), (3, 0, 1)),
    ((0, 1, 3), (0, 2, 2), (0, 3, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0)),
    ((0, 1, 3), (0, 2, 2), (0, 3, 1), (0, 4, 0), (3, 0, 1), (3, 1, 0)),
    ((0, 0, 4), (0, 1, 3), (1, 0, 3), (1, 3, 0), (2, 0, 2), (2, 1, 1)),
)


def _weighted_monomials(d, weights):
    return [
        m for m in itertools.product(*(range(d // w + 1) for w in weights))
        if sum(a * w for a, w in zip(m, weights)) == d
    ]


def _form(rng, ctx, d, terms):
    """A form of weighted degree d with up to ``terms`` random terms."""
    monos = _weighted_monomials(d, ctx.weights)
    f = ctx.zero()
    for m in rng.sample(monos, min(len(monos), terms)):
        f = f + ctx.monomial(m, rng.randrange(1, ctx.p))
    return f


def _scanned_ideal(rng, ctx, degrees, terms):
    """A random proper ideal of forms with four to seven basis elements.

    The scan needs more basis elements than variables; above seven the
    Groebner certificate of the reference takes seconds per ideal.
    """
    while True:
        I = ideal(ctx, [_form(rng, ctx, d, terms) for d in degrees()])
        if I.is_proper and ctx.nvars < len(I.gb.basis) <= 7:
            return I


def assert_scan_matches_reference(I):
    got = _reduction_shortcut(I)
    expected = reduction_certificate_reference(I)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got[0].gens == expected[0].gens
        assert got[1] == expected[1]
    return got


@pytest.mark.parametrize("kind", ("monomial", "dense"))
@pytest.mark.parametrize("p", PRIMES)
def test_random_scans_match_groebner_certificate(kind, p):
    rng = random.Random(f"reduction-scan/{kind}/{p}")
    top = 5 if kind == "monomial" else 4

    def degrees():
        # four to six generators of weighted degrees d and d + 1
        d = rng.randrange(2, top)
        return [d + rng.randrange(2) for _ in range(rng.randrange(4, 7))]

    outcomes = []
    for weights in WEIGHTS:
        ctx = RingContext(p, ("x", "y", "z"), weights=weights)
        for _ in range(5):
            I = _scanned_ideal(rng, ctx, degrees, 1 if kind == "monomial" else 3)
            outcomes.append(assert_scan_matches_reference(I) is not None)
    assert any(outcomes) and not all(outcomes)


# generators far apart in degree: m*I^2 is built up through every degree
# between the lowest and the highest product before the top products are
# reduced; (weights, generators, whether a reduction is found)
DEGREE_GAP = (
    ((1, 1, 1), ("x^2", "y^2", "z^2", "x*y", "y*z^7"), True),
    ((1, 1, 1), ("x^2", "x*y", "y^2", "z^8"), True),
    ((1, 1, 1), ("y^2 - 13*x*z", "x^2 - 9*y*z", "y*z^9", "x*z^9", "x*y*z^8"), True),
    ((1, 1, 1), ("x^2", "x*y", "y^3", "x*z^7", "z^9"), False),
    ((1, 1, 1), ("x^2 - 2*y*z", "y^2 + 7*x*z", "x*z^9", "y*z^9 + 4*x^5*z^5", "z^10"), False),
    ((1, 2, 3), ("x^2 + 5*y", "y^4*z", "x*y^3*z", "y^5"), True),
    ((1, 2, 3), ("x*y - 3*z", "y^2*z^2", "x^2*z^4", "z^5", "y^6"), True),
    ((1, 2, 3), ("x^2 - 3*y", "y^2*z^2", "y*z^4", "x*z^4", "y^5"), False),
)


@pytest.mark.parametrize("p", PRIMES)
def test_wide_degree_gap(p):
    for weights, gens, found in DEGREE_GAP:
        I = ideal(RingContext(p, ("x", "y", "z"), weights=weights), gens)
        assert len(I.gb.basis) > 3
        assert (assert_scan_matches_reference(I) is not None) == found


@pytest.mark.parametrize("support", MONO6)
@pytest.mark.parametrize("p", PRIMES)
def test_benchmark_monomial_supports_have_no_reduction(support, p):
    ctx = RingContext(p, ("x", "y", "z"))
    I = ideal(ctx, [ctx.monomial(m) for m in support])
    assert assert_scan_matches_reference(I) is None


def test_failed_scan_runs_no_groebner_basis(monkeypatch):
    ctx = RingContext(32003, ("x", "y", "z"))
    I = ideal(ctx, [ctx.monomial(m) for m in MONO6[0]])
    assert len(I.gb.basis) == 6
    calls = []
    real = ideals.groebner_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counting)
    assert _reduction_shortcut(I) is None
    assert calls == []


# --- spread memo -------------------------------------------------------------------

def test_spread_memo_is_bounded_lru(monkeypatch):
    assert filtrations._spread.cache_info().maxsize == 1024
    memo = functools.lru_cache(maxsize=3)(filtrations._spread.__wrapped__)
    monkeypatch.setattr(filtrations, "_spread", memo)
    ctx = RingContext(32003, ("x", "y", "z"))
    ideals_asked = [ideal(ctx, f"x^{k}", f"y^{k}") for k in range(1, 7)]
    reports = []
    for I in ideals_asked:
        reports.append(analytic_spread(I))
        assert memo.cache_info().currsize <= 3
    assert memo.cache_info()[:2] == (0, 6)
    # a hit returns the same report and makes its ideal the newest entry
    assert analytic_spread(ideal(ctx, "y^4", "x^4")) is reports[3]
    # the oldest entries went first: the first ideal is asked again
    reports[0] = analytic_spread(ideals_asked[0])
    assert memo.cache_info()[:2] == (1, 7)
    # the refreshed entry outlived the fifth ideal's, which was the oldest
    for k in (5, 3, 0):
        assert analytic_spread(ideals_asked[k]) is reports[k]
    assert memo.cache_info()[:2] == (4, 7)
    analytic_spread(ideals_asked[4])
    assert memo.cache_info()[:2] == (4, 8)


def test_spread_memo_under_threads(monkeypatch):
    ctx = RingContext(32003, ("x", "y", "z"))
    asked = [
        ideal(ctx, "x^3", "y^3"), ideal(ctx, "x^2", "y^2", "z^2"), ideal(ctx, "x*y*z"),
        ideal(ctx, "x^2", "x*y"), ideal(ctx, "x^2", "x*y", "y^2", "z^3"),
        ideal(ctx, "y^2 - x*z", "x*y - z^2"), ideal(ctx, "x^3", "y^3", "z^3", "x*y*z"),
        ideal(ctx, "x*y", "y*z", "x*z"),
    ]
    alone = [filtrations._spread.__wrapped__(I).ell for I in asked]
    # a cap below the 8 ideals makes the threads evict each other's entries
    memo = functools.lru_cache(maxsize=4)(filtrations._spread.__wrapped__)
    monkeypatch.setattr(filtrations, "_spread", memo)
    seen, sizes = {}, []

    def ask(k):
        for i in [*range(k, len(asked)), *range(k)]:      # each thread starts elsewhere
            seen[k, i] = analytic_spread(asked[i]).ell
            sizes.append(memo.cache_info().currsize)

    workers = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert sorted(seen) == [(k, i) for k in range(4) for i in range(len(asked))]
    assert all(ell == alone[i] for (_, i), ell in seen.items())
    assert sorted(set(alone)) == [1, 2, 3]
    assert max(sizes) <= memo.cache_info().maxsize == 4
    assert memo.cache_info().currsize <= 4


# --- closed-form monomial spreads ----------------------------------------------------

@pytest.mark.parametrize("nvars", (2, 3, 4))
def test_equigenerated_monomial_spread_is_exponent_rank(nvars):
    names = ("x", "y", "z", "w")[:nvars]
    rng = random.Random(f"monomial-spread/{nvars}")
    ctx = RingContext(32003, names)
    unit = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    certified = []
    for k in range(12):
        if k % 3 == 2:
            # squares of some variables and products of pairs of them: only
            # the squares are vertices of the Newton polytope, so the squares
            # form a reduction
            chosen = rng.sample(range(nvars), rng.randrange(2, nvars + 1))
            pairs = list(itertools.combinations(chosen, 2))
            pairs = rng.sample(pairs, rng.randrange(1, len(pairs) + 1))
            support = [tuple(2 * e for e in unit[i]) for i in chosen]
            support += [tuple(a + b for a, b in zip(unit[i], unit[j])) for i, j in pairs]
        else:
            monos = _weighted_monomials(rng.randrange(2, 4), ctx.weights)
            support = rng.sample(monos, min(len(monos), rng.randrange(2, nvars + 3)))
        rep = analytic_spread(ideal(ctx, [ctx.monomial(m) for m in support]))
        assert rep.ell == exponent_rank(support)
        if len(support) > nvars:
            certified.append(bool(rep.notes))
    assert any(certified) and not all(certified)
