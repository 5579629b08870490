"""The certified-reduction scan and the spread memo of ``analytic_spread``.

``filtrations._reduction_shortcut`` decides I^2 = J*I + m*I^2 by ranks
of the products g_j g_k modulo m*I^2.  Every answer here is compared
with ``oracles.reduction_certificate_reference``, which decides the same
equality by comparing reduced Groebner bases, and must return exactly
the same (J, note) or None.  The products' residues, formed only over
the basis elements outside m*I, are compared with those of
``oracles.residues_modulo_m_square``, which forms every product.  Spreads of equigenerated monomial ideals
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
from oracles import (
    exponent_rank,
    reduction_certificate_reference,
    residues_modulo_m_square,
    weighted_monomials,
)
from spreadlab import RingContext, analytic_spread, ideal
from spreadlab.filtrations import _reduction_shortcut, _residues_modulo_m
from spreadlab.ring import mono_wdeg, weighted_degree

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


def _form(rng, ctx, d, terms):
    """A form of weighted degree d with up to ``terms`` random terms."""
    monos = weighted_monomials(d, ctx.weights)
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
    got = _reduction_shortcut(I, _residues_modulo_m(I.gb.basis))
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
    assert _reduction_shortcut(I, _residues_modulo_m(I.gb.basis)) is None
    assert calls == []


# --- residues over the basis elements outside m*I ------------------------------------

def _dense_form(rng, ctx, d):
    """A form of weighted degree d with every monomial of that degree."""
    return _form(rng, ctx, d, len(weighted_monomials(d, ctx.weights)))


def _subsets(ngens, nvars):
    """The subsets _reduction_shortcut tries, in its order."""
    combos = (
        combo for d in range(2, nvars + 1) for combo in itertools.combinations(range(ngens), d)
    )
    return list(itertools.islice(combos, filtrations._MAX_SUBSETS))


def _subset_ranks(residues, combos, p):
    return [
        filtrations._rank(
            [vec for (i, k), vec in residues.items() if i in combo or k in combo], p
        )
        for combo in combos
    ]


def _two_level_residues(gens):
    """The nonzero product residues as ``_reduction_shortcut`` builds
    them, and S, the basis elements outside m*I."""
    S = [i for i, r in enumerate(filtrations._residues_modulo_m(gens)) if r]
    pairs = list(itertools.combinations_with_replacement(S, 2))
    level2 = filtrations._residues_modulo_m([gens[i] * gens[k] for i, k in pairs])
    return {pair: vec for pair, vec in zip(pairs, level2) if vec}, S


@pytest.mark.parametrize("p", PRIMES)
def test_residues_over_generators_outside_m_times_I_match_full_range(p):
    rng = random.Random(f"residues/{p}")
    ctx = RingContext(p, ("x", "y", "z"), weights=(1, 2, 3))
    # complete intersections of two dense forms, whose reduced bases hold
    # elements of m*I, and ideals of three or four sparse forms
    cases = [ideal(ctx, [_dense_form(rng, ctx, d) for d in (4, 6)]) for _ in range(3)]
    cases += [ideal(ctx, [_dense_form(rng, ctx, d) for d in (3, 5)]) for _ in range(2)]
    while len(cases) < 12:
        I = ideal(ctx, [_form(rng, ctx, rng.randrange(3, 7), 2) for _ in range(rng.randrange(3, 5))])
        if I.is_proper and 3 < len(I.gb.basis) <= 8:
            cases.append(I)
    cases += [
        ideal(ctx, gens) for weights, gens, _ in DEGREE_GAP if weights == (1, 2, 3)
    ]
    # a monomial ideal: its reduced basis is its minimal generators
    cases.append(ideal(ctx, "x^3", "x*y", "y^3", "x*z", "z^2"))
    dropped, certified = [], []
    for I in cases:
        gens = list(I.gb.basis)
        full = {pair: vec for pair, vec in residues_modulo_m_square(gens).items() if vec}
        got, S = _two_level_residues(gens)
        assert got == full
        dropped.append(len(S) < len(gens))
        combos = _subsets(len(gens), ctx.nvars)
        ranks = _subset_ranks(got, combos, p)
        assert ranks == _subset_ranks(full, combos, p)
        # the certificate is the first subset whose products have full rank
        top = filtrations._rank(full.values(), p)
        expected = next((combo for combo, r in zip(combos, ranks) if r == top), None)
        found = _reduction_shortcut(I, _residues_modulo_m(gens))
        certified.append(found is not None)
        if expected is None:
            assert found is None
        else:
            assert found[0].gens == tuple(gens[i] for i in expected)
            assert str(list(expected)) in found[1]
    assert any(dropped) and not all(dropped)
    assert any(certified) and not all(certified)


def test_dense_weighted_instance_forms_only_products_over_S(monkeypatch):
    # the benchmark's dense (1, 2, 3) spread: two dense forms of degrees 4 and 6
    ctx = RingContext(32003, ("x", "y", "z"), weights=(1, 2, 3))
    rng = random.Random("residues/dense-123")
    I = ideal(ctx, [_dense_form(rng, ctx, d) for d in (4, 6)])
    gens = list(I.gb.basis)
    degs = [weighted_degree(g) for g in gens]
    calls, built = [], []
    residues, insert = filtrations._residues_modulo_m, filtrations._insert_row

    def recording(items):
        calls.append(list(items))
        return residues(items)

    def inserting(vec, echelon, p):
        if vec:
            built.append(mono_wdeg(next(iter(vec)), ctx.weights))
        return insert(vec, echelon, p)

    monkeypatch.setattr(filtrations, "_residues_modulo_m", recording)
    monkeypatch.setattr(filtrations, "_insert_row", inserting)
    found = _reduction_shortcut(I, filtrations._residues_modulo_m(gens))
    monkeypatch.undo()
    assert len(calls) == 2 and calls[0] == gens
    S = [i for i, r in enumerate(residues(gens)) if r]
    assert len(S) == 2 < len(gens) == 5
    # level 2 forms the products over S x S and no other
    assert calls[1] == [
        gens[i] * gens[k] for i, k in itertools.combinations_with_replacement(S, 2)
    ]
    # no degree above 2 max deg S is built, where the full range reaches 2 max deg G
    top = 2 * max(degs[i] for i in S)
    assert max(built) <= top < 2 * max(degs)
    assert found is not None and found[0].gens == tuple(gens[i] for i in S)


# --- spread memo -------------------------------------------------------------------

def test_spread_memo_is_bounded_lru(monkeypatch):
    assert filtrations.analytic_spread.cache_info().maxsize == 1024
    memo = functools.lru_cache(maxsize=3)(filtrations.analytic_spread.__wrapped__)
    monkeypatch.setattr(filtrations, "analytic_spread", memo)
    ctx = RingContext(32003, ("x", "y", "z"))
    ideals_asked = [ideal(ctx, f"x^{k}", f"y^{k}") for k in range(1, 7)]
    reports = []
    for I in ideals_asked:
        reports.append(filtrations.analytic_spread(I))
        assert memo.cache_info().currsize <= 3
    assert memo.cache_info()[:2] == (0, 6)
    # a hit returns the same report and makes its ideal the newest entry
    assert filtrations.analytic_spread(ideal(ctx, "y^4", "x^4")) is reports[3]
    # the oldest entries went first: the first ideal is asked again
    reports[0] = filtrations.analytic_spread(ideals_asked[0])
    assert memo.cache_info()[:2] == (1, 7)
    # the refreshed entry outlived the fifth ideal's, which was the oldest
    for k in (5, 3, 0):
        assert filtrations.analytic_spread(ideals_asked[k]) is reports[k]
    assert memo.cache_info()[:2] == (4, 7)
    filtrations.analytic_spread(ideals_asked[4])
    assert memo.cache_info()[:2] == (4, 8)


def test_a_repeated_spread_is_one_lookup(count_calls):
    ctx = RingContext(32003, ("x", "y", "z"))
    filtrations.analytic_spread.cache_clear()
    validated = count_calls(filtrations, "_validate_spread_input")
    rep = analytic_spread(ideal(ctx, "x^2", "x*y", "y^2", "z^3"))
    # the same ideal from other generators is the same question
    assert analytic_spread(ideal(ctx, "z^3", "y^2 + x*y", "x*y", "x^2")) is rep
    assert len(validated) == 1
    assert filtrations.analytic_spread.cache_info()[:2] == (1, 1)


def test_the_zero_ideal_has_one_report():
    ctx = RingContext(32003, ("x", "y", "z"))
    rep = analytic_spread(ideal(ctx, []))
    assert analytic_spread(ideal(ctx, [])) is rep
    assert rep.notes == ("zero ideal: fiber is the residue field",)


def test_spread_memo_under_threads(monkeypatch):
    ctx = RingContext(32003, ("x", "y", "z"))
    asked = [
        ideal(ctx, "x^3", "y^3"), ideal(ctx, "x^2", "y^2", "z^2"), ideal(ctx, "x*y*z"),
        ideal(ctx, "x^2", "x*y"), ideal(ctx, "x^2", "x*y", "y^2", "z^3"),
        ideal(ctx, "y^2 - x*z", "x*y - z^2"), ideal(ctx, "x^3", "y^3", "z^3", "x*y*z"),
        ideal(ctx, "x*y", "y*z", "x*z"),
    ]
    alone = [filtrations.analytic_spread.__wrapped__(I).ell for I in asked]
    # a cap below the 8 ideals makes the threads evict each other's entries
    memo = functools.lru_cache(maxsize=4)(filtrations.analytic_spread.__wrapped__)
    monkeypatch.setattr(filtrations, "analytic_spread", memo)
    seen, sizes = {}, []

    def ask(k):
        for i in [*range(k, len(asked)), *range(k)]:      # each thread starts elsewhere
            seen[k, i] = filtrations.analytic_spread(asked[i]).ell
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
            monos = weighted_monomials(rng.randrange(2, 4), ctx.weights)
            support = rng.sample(monos, min(len(monos), rng.randrange(2, nvars + 3)))
        rep = analytic_spread(ideal(ctx, [ctx.monomial(m) for m in support]))
        assert rep.ell == exponent_rank(support)
        if len(support) > nvars:
            certified.append(bool(rep.notes))
    assert any(certified) and not all(certified)
