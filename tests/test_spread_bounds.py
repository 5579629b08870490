"""The bounds L <= ell <= U that settle an analytic spread, and the lazy
Rees kernel they spare.

``filtrations._spread`` takes L = max(ht I, the Jacobian rank of the
initial forms of I's generators of least weighted order) and
U = min(nvars, mu(I), the size of a certified reduction).  When L == U
the report's ell is L and the presentation's kernels are never computed.
Every bound is checked here against ell from the forced fiber kernel.
"""

import itertools
import random
import threading

import pytest

import spreadlab.filtrations as filtrations
import spreadlab.ideals as ideals
from oracles import rees_relations, rees_weights, tvar_names
from spreadlab import (
    Filtration,
    MonomialOrder,
    RingContext,
    analytic_spread,
    analytic_spread_truncated,
    eliminate,
    ideal,
    krull_dim,
    rees_presentation,
    symbolic_power,
)

MERSENNE = 2**61 - 1


def _curve_prime(weights, p=32003):
    ctx = RingContext(p, ("t", "x", "y", "z"), weights=(1,) + weights)
    return eliminate(ideal(ctx, *(f"{v} - t^{e}" for v, e in zip("xyz", weights))), ["t"])


def _random_ideal(rng, ctx):
    """Two to five forms of weighted degree 2 or 3 with one to three terms."""
    gens = []
    for _ in range(rng.randrange(2, 6)):
        d = rng.randrange(2, 4)
        monos = [
            m for m in itertools.product(*(range(d // w + 1) for w in ctx.weights))
            if sum(a * w for a, w in zip(m, ctx.weights)) == d
        ]
        f = ctx.zero()
        for m in rng.sample(monos, min(len(monos), rng.randrange(1, 4))):
            f = f + ctx.monomial(m, rng.randrange(1, ctx.p))
        if not f.is_zero:
            gens.append(f)
    return ideal(ctx, gens)


@pytest.mark.parametrize("p", (2, 101, 32003, MERSENNE))
def test_bounds_hold_and_settled_spreads_match_the_fiber_kernel(p):
    rng = random.Random(f"spread-bounds/{p}")
    settled = 0
    for k in range(16):
        ctx = RingContext(p, ("x", "y", "z"), weights=((1, 1, 1), (1, 2, 3))[k % 2])
        I = _random_ideal(rng, ctx)
        if I.is_zero:
            continue
        rep = analytic_spread(I)
        lower, upper = rep.bounds
        forced = krull_dim(rep.presentation.fiber_kernel)
        assert rep.ht <= lower <= forced <= upper <= ctx.nvars, (p, [str(g) for g in I.gens])
        assert rep.ell == forced
        settled += lower == upper
    assert settled >= 8


def test_paper_scale_cubes_settle_with_no_rees_elimination(rees_eliminations):
    cube = symbolic_power(_curve_prime((3, 5, 7)), 3)
    square = symbolic_power(_curve_prime((4, 5, 7)), 2)
    filtrations._spread.cache_clear()
    rings = rees_eliminations()
    for I in (cube, square):
        rep = analytic_spread(I)
        assert (rep.ell, rep.bounds) == (3, (3, 3))
    assert rings == []


def test_the_567_prime_declines_and_keeps_the_rees_path(rees_eliminations):
    # the Jacobian rank of its initial forms is 2 < mu = 3
    P = _curve_prime((5, 6, 7))
    filtrations._spread.cache_clear()
    rings = rees_eliminations()
    rep = analytic_spread(P)
    assert (rep.ell, rep.ht, rep.bounds) == (3, 2, (2, 3))
    assert len(rings) == 1


def test_a_settled_spread_at_the_mersenne_prime(monkeypatch, rees_eliminations):
    # ht = 2, but the initial forms y^2 - x*z, y*z, z^2 under w = (1, 1, 1)
    # have a Jacobian of rank 3 = mu
    P = _curve_prime((3, 4, 5), p=MERSENNE)
    filtrations._spread.cache_clear()
    rings = rees_eliminations()
    rep = analytic_spread(P)
    assert (rep.ell, rep.ht, rep.bounds) == (3, 2, (3, 3))
    assert rings == []
    monkeypatch.undo()
    assert krull_dim(rep.presentation.fiber_kernel) == 3


def test_the_ring_weights_settle_an_ideal_generated_in_one_weighted_degree(rees_eliminations):
    # under w = (1, 1, 1) only z has the least order, so the unit weight
    # gives rank 1; under the ring's weights all three generators have
    # degree 3 and their Jacobian has rank 3 = mu > ht = 2
    ctx = RingContext(32003, ("x", "y", "z"), weights=(1, 2, 3))
    filtrations._spread.cache_clear()
    rings = rees_eliminations()
    rep = analytic_spread(ideal(ctx, "x^3", "x*y", "z"))
    assert (rep.ell, rep.ht, rep.bounds) == (3, 2, (3, 3))
    assert rings == []


def test_truncations_carry_bounds_only_through_the_first_member(curve_symbolic):
    assert analytic_spread_truncated(curve_symbolic, 1).bounds == analytic_spread(
        curve_symbolic.materialize(1)
    ).bounds
    assert analytic_spread_truncated(curve_symbolic, 2).bounds is None


def test_lazy_rees_kernel_equals_an_eager_elimination():
    ctx = RingContext(32003, ("x", "y", "z"))
    for F, a in (
        (Filtration.adic(_curve_prime((3, 4, 7))), 1),
        (Filtration.adic(ideal(ctx, "x^2", "x*y", "y^3 - z^3")), 1),
        (Filtration.symbolic(_curve_prime((3, 4, 5))).truncate(2), 2),
    ):
        pres = rees_presentation(F, a)
        base, relations = pres.base_ctx, rees_relations(pres)
        target = RingContext(
            base.p, base.variables + tvar_names(pres), MonomialOrder.grevlex(), rees_weights(pres)
        )
        eager = ideals._eliminate(target, ("t@",), relations[0].ctx, relations)
        assert pres.rees_kernel.ctx == target
        assert pres.rees_kernel.gb.basis == eager.gb.basis
        assert pres.rees_kernel is pres.rees_kernel


def test_a_settled_spread_builds_no_rees_ring(monkeypatch, rees_eliminations):
    P = _curve_prime((3, 4, 7))
    filtrations._spread.cache_clear()
    built = []
    make = filtrations.RingContext

    def recording(*args, **kwargs):
        ctx = make(*args, **kwargs)
        built.append(ctx.variables)
        return ctx

    monkeypatch.setattr(filtrations, "RingContext", recording)
    rings = rees_eliminations()
    rep = analytic_spread(P)
    assert (rep.ell, rep.bounds) == (2, (2, 2))
    assert not any("t@" in v or "T1_1@" in v for v in built)
    # reading a kernel builds the Rees, combined and fiber rings once
    names = tvar_names(rep.presentation)
    assert krull_dim(rep.presentation.fiber_kernel) == 2
    assert sorted(v for v in built if "T1_1@" in v) == sorted(
        [("t@",) + P.ctx.variables + names, P.ctx.variables + names, names]
    )
    assert len(rings) == 1


def test_threads_reading_a_settled_kernel_get_one_object(rees_eliminations):
    # six degree-4 monomials, settled at ell = 3; the elimination sleeps
    # before it starts, so every thread reads while the first one runs
    ctx = RingContext(32003, ("x", "y", "z"))
    I = ideal(ctx, "y^4", "x*z^3", "x*y^2*z", "x^2*z^2", "x^2*y*z", "x^3*z")
    filtrations._spread.cache_clear()
    rings = rees_eliminations(pause=0.05)
    rep = analytic_spread(I)
    assert rep.bounds == (3, 3) and rings == []
    barrier = threading.Barrier(4)
    seen = []

    def read():
        barrier.wait()
        seen.append((rep.presentation.rees_kernel, rep.presentation.fiber_kernel))

    threads = [threading.Thread(target=read) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen) == 4 and len(rings) == 1
    assert all(r is seen[0][0] and f is seen[0][1] for r, f in seen)
    assert krull_dim(seen[0][1]) == rep.ell
