"""Saturation by the ideal of all variables through the variable route.

For weighted-homogeneous A, ``saturate(A, m)`` builds the saturations
A : x_i^infinity in variable order, each read off one Groebner basis in
the ``saturation`` order, returns the first one that the leading
monomials certify, intersects the minimal ones when none is certified,
and finds the index by normal forms; every other input keeps the
iterated colon.  ``symbolic_power`` is a call to
``saturate``.  Every answer here is compared with the extra-variable
oracle, and every index with the colon-step count of
``oracles.saturation_index_by_colon``; reduced bases are canonical, so
equal ideals have equal bases.
"""

import itertools
import random

import pytest

import spreadlab.ideals as ideals
from oracles import saturation_index_by_colon
from spreadlab import MonomialOrder, RingContext, ideal
from spreadlab.filtrations import symbolic_power
from spreadlab.ideals import (
    _certifies_saturation,
    _reorder,
    _saturate_variable,
    eliminate,
    ideal_power,
    ideal_product,
    maximal_ideal,
    saturate,
    saturate_by_elimination,
)
from spreadlab.ring import HomogeneityError


# the space curves (t^a, t^b, t^c) of the benchmark's spread-rees stream
CURVES = ((3, 4, 5), (3, 4, 7), (3, 5, 7), (3, 5, 8), (4, 5, 6), (4, 6, 7), (5, 6, 7), (4, 5, 7))


def curve_prime(weights, p=32003):
    ctx = RingContext(p, ("t", "x", "y", "z"), weights=(1,) + weights)
    param = [f"{v} - t^{e}" for v, e in zip("xyz", weights)]
    return eliminate(ideal(ctx, *param), ["t"])


def assert_saturation_matches_oracles(A):
    """saturate(A, m) against the extra-variable oracle and the colon steps."""
    m = maximal_ideal(A.ctx)
    sat, index = saturate(A, m)
    assert sat.gb.basis == saturate_by_elimination(A, m).gb.basis
    assert index == saturation_index_by_colon(A, m)
    return sat, index


def certified_pieces(A, sat):
    """The i whose piece A : x_i^infinity the certificate accepts, after
    checking that it accepts exactly the pieces equal to the saturation."""
    accepted = []
    for i in range(A.ctx.nvars):
        G, Q = _saturate_variable(A, i)
        equal = ideal(A.ctx, [_reorder(f, A.ctx) for f in Q]) == sat
        assert _certifies_saturation(G, i) == equal
        if equal:
            accepted.append(i)
    return accepted


def assert_matches_oracles(I, n):
    got = symbolic_power(I, n)
    assert got.gb.basis == assert_saturation_matches_oracles(ideal_power(I, n))[0].gb.basis
    return got


@pytest.mark.parametrize("weights", CURVES)
@pytest.mark.parametrize("n", (2, 3))
def test_curve_symbolic_powers_match_oracles(weights, n):
    P = curve_prime(weights)
    S = assert_matches_oracles(P, n)
    assert S.contains_ideal(ideal_power(P, n))
    # no variable lies in the prime and m is the only other possible
    # associated prime of its powers, so every piece is the symbolic power
    assert certified_pieces(ideal_power(P, n), S) == [0, 1, 2]


def _weighted_monomials(d, weights):
    return [
        m for m in itertools.product(*(range(d // w + 1) for w in weights))
        if sum(a * w for a, w in zip(m, weights)) == d
    ]


def _random_homogeneous_ideal(rng, ctx):
    """Two or three sparse forms of weighted degree 2 to 4."""
    gens = []
    for _ in range(rng.choice((2, 3))):
        while True:
            monos = _weighted_monomials(rng.randrange(2, 5), ctx.weights)
            if monos:
                break
        support = rng.sample(monos, min(len(monos), rng.randrange(1, 4)))
        f = ctx.zero()
        for m in support:
            f = f + ctx.monomial(m, rng.randrange(1, ctx.p))
        gens.append(f)
    return ideal(ctx, gens)


ORDERS = {
    "grevlex": lambda w: MonomialOrder.grevlex(),
    "lex": lambda w: MonomialOrder.lex(),
    "wgrevlex": lambda w: MonomialOrder.weighted_grevlex(w),
}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("p", (32003, 101))
def test_random_homogeneous_ideals_match_oracles(order, p):
    rng = random.Random(f"symbolic-route/{order}/{p}")
    checked = 0
    for weights in ((1, 1, 1), (1, 2, 3), (2, 3, 1)):
        ctx = RingContext(p, ("x", "y", "z"), ORDERS[order](weights), weights)
        for _ in range(4):
            I = _random_homogeneous_ideal(rng, ctx)
            if not I.is_proper:
                continue
            assert_matches_oracles(I, 2)
            checked += 1
    assert checked >= 10


def _lex_instance(ctx):
    return ideal(
        ctx,
        "-38*x^3*y + 38*x^2*z - 48*y*z",
        "-42*x^3 - 28*z",
        "14*x^4 - 23*x^2*y + 46*y^2",
    )


def test_lex_instance_of_weighted_degree_five_matches_oracles():
    # the iterated colon took seconds here while pairs were selected by
    # lcm in lex order alone
    ctx = RingContext(101, ("x", "y", "z"), MonomialOrder.lex(), (1, 2, 3))
    # I holds x^3 - 33z, y^3 - 8z^2 and z^3, so it is m-primary and the
    # saturation of its square is the unit ideal
    assert assert_matches_oracles(_lex_instance(ctx), 2).is_unit


def _random_recipe_ideal(rng, ctx):
    """Two to nvars + 1 sparse forms of weighted degree 2 to 4."""
    gens = []
    for _ in range(rng.randrange(2, ctx.nvars + 2)):
        while True:
            monos = _weighted_monomials(rng.randrange(2, 5), ctx.weights)
            if monos:
                break
        f = ctx.zero()
        for m in rng.sample(monos, min(len(monos), rng.randrange(1, 4))):
            f = f + ctx.monomial(m, rng.randrange(1, ctx.p))
        gens.append(f)
    return ideal(ctx, gens)


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("p", (32003, 101))
def test_seeded_saturations_and_indices_match_oracles(order, p):
    # 2 to 4 variables of weight 1, 2 or 3, first and second powers; the
    # m-primary draws give saturation indices well above 1
    rng = random.Random(f"saturation-index/{order}/{p}")
    indices = []
    first_certified = []
    for _ in range(8):
        n = rng.randrange(2, 5)
        weights = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        ctx = RingContext(p, ("x", "y", "z", "w")[:n], ORDERS[order](weights), weights)
        A = ideal_power(_random_recipe_ideal(rng, ctx), rng.choice((1, 2)))
        sat, index = assert_saturation_matches_oracles(A)
        indices.append(index)
        first_certified.append(min(certified_pieces(A, sat), default=None))
    # each draw certifies some ideal at x_0 and some only at a later piece
    assert 0 in first_certified and any(i for i in first_certified)
    if (order, p) == ("lex", 101):
        ctx = RingContext(101, ("x", "y", "z"), MonomialOrder.lex(), (1, 2, 3))
        for k in (1, 2):
            indices.append(assert_saturation_matches_oracles(ideal_power(_lex_instance(ctx), k))[1])
    assert max(indices) >= 3 and min(indices) == 0


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(ideals, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ideals, name, counting)
    return calls


def _refuse(monkeypatch, name, why):
    def refuse(*args):
        raise AssertionError(why)

    monkeypatch.setattr(ideals, name, refuse)


def test_prime_needs_no_intersection(monkeypatch, curve_prime):
    # p^2 has no associated prime but p and m, and x is not in p, so the
    # first piece p^2 : x^inf is the saturation and is certified: one
    # saturation-order basis, no containment check, no intersection
    power = ideal_power(curve_prime, 2)
    calls = _count_calls(monkeypatch, "intersect")
    bases = _count_calls(monkeypatch, "_saturate_variable")
    containments = _count_calls(monkeypatch, "_basis_contains")
    got = saturate(power, maximal_ideal(curve_prime.ctx))[0]
    assert calls == [] and len(bases) == 1 and containments == []
    assert symbolic_power(curve_prime, 2) == got
    assert calls == []
    monkeypatch.undo()
    assert_saturation_matches_oracles(power)


def test_piece_certified_only_at_the_last_variable(monkeypatch):
    # the pieces for x, y and z strictly contain the saturation, which is
    # the piece for w; generators and index as the intersection of
    # minimal pieces gave them
    weights = (1, 1, 1, 3)
    ctx = RingContext(101, ("x", "y", "z", "w"), MonomialOrder.weighted_grevlex(weights), weights)
    A = ideal(ctx, "14*z^2", "-8*x^3 + 14*x*z^2 + 45*z^3", "-28*x^2 + 4*x*z + 39*z^2",
              "-8*x^2*z^2 - 34*z*w", "-22*y^4")
    bases = _count_calls(monkeypatch, "_saturate_variable")
    sat, index = saturate(A, maximal_ideal(ctx))
    assert len(bases) == 4
    assert [str(g) for g in sat.gens] == ["z^2", "x^2 - 29*x*z", "z", "y^4"]
    assert index == 5
    monkeypatch.undo()
    assert certified_pieces(A, sat) == [3]
    assert (sat, index) == assert_saturation_matches_oracles(A)


def test_no_containment_check_before_a_certified_piece(monkeypatch):
    # a draw of test_seeded_saturations_and_indices_match_oracles (grevlex,
    # p = 32003) whose pieces for x and y are not certified: their
    # containment check is moot once a later piece is
    weights = (3, 1, 1, 1)
    ctx = RingContext(32003, ("x", "y", "z", "w"), MonomialOrder.grevlex(), weights)
    A = ideal(ctx, "9560*y^3 - 5321*y*z^2 + 15712*x", "6929*y^3 + 4454*y*z^2",
              "-310*y^2*w + 9485*z^2*w + 2040*z*w^2", "6931*y*z - 4979*z*w + 1897*w^2",
              "-2381*y^2 + 13879*y*w - 5276*z*w")
    containments = _count_calls(monkeypatch, "_basis_contains")
    intersections = _count_calls(monkeypatch, "intersect")
    sat, index = saturate(A, maximal_ideal(ctx))
    assert containments == [] and intersections == []
    monkeypatch.undo()
    assert certified_pieces(A, sat) == [2]
    assert (sat, index) == assert_saturation_matches_oracles(A)
    assert index == 3


def _piece(A, i):
    return ideal(A.ctx, [_reorder(f, A.ctx) for f in _saturate_variable(A, i)[1]])


def test_only_minimal_pieces_are_intersected(monkeypatch):
    # I^2 : z^inf lies inside I^2 : x^inf, so only the y- and z-pieces meet
    ctx = RingContext(32003, ("x", "y", "z"), weights=(1, 2, 3))
    I = ideal(ctx, "x^6 + 3*x^3*z", "x^4*y + 5*x^2*y^2 - 7*x*y*z")
    power = ideal_power(I, 2)
    pieces = [_piece(power, i) for i in range(3)]
    assert pieces[0].contains_ideal(pieces[2]) and not pieces[2].contains_ideal(pieces[0])
    calls = _count_calls(monkeypatch, "intersect")
    got = saturate(power, maximal_ideal(ctx))[0]
    assert len(calls) == 1
    del calls[:]
    assert symbolic_power(I, 2) == got
    assert len(calls) == 1
    monkeypatch.undo()
    assert_saturation_matches_oracles(power)


def test_inhomogeneous_input_keeps_iterated_colon(monkeypatch, ctx3):
    I = ideal(ctx3, "x^2 + y", "x*z^2")
    power, m = ideal_power(I, 2), maximal_ideal(ctx3)
    _refuse(monkeypatch, "_saturate_variable", "variable route taken for an inhomogeneous ideal")
    got, index = saturate(power, m)
    assert symbolic_power(I, 2) == got
    assert got == saturate_by_elimination(power, m)
    assert index == saturation_index_by_colon(power, m)


def test_other_saturating_ideal_keeps_iterated_colon(monkeypatch, ctx3):
    I = ideal(ctx3, "x*y", "x*z")
    J = ideal(ctx3, "y", "z")
    power = ideal_power(I, 2)
    _refuse(monkeypatch, "_saturate_variable", "variable route taken for a non-maximal J")
    got, index = saturate(power, J)
    assert symbolic_power(I, 2, J) == got == ideal(ctx3, "x^2")
    assert got == saturate_by_elimination(power, J)
    assert index == saturation_index_by_colon(power, J)


def test_explicit_maximal_ideal_takes_variable_route(monkeypatch, curve_ctx, curve_prime):
    J = ideal(curve_ctx, "z", "y", "x", "x + y")
    expected = symbolic_power(curve_prime, 2)
    _refuse(monkeypatch, "quotient", "iterated colon used for the maximal ideal")
    assert saturate(ideal_power(curve_prime, 2), J)[0] == expected
    assert symbolic_power(curve_prime, 2, J) == expected


def test_variable_route_needs_no_colon_and_no_ring_order_basis(monkeypatch):
    # m * I^2 has index 1 and two minimal pieces: the route intersects
    # them and finds the index without a colon or any basis in the ring's
    # order
    ctx = RingContext(32003, ("x", "y", "z"), weights=(1, 2, 3))
    I = ideal(ctx, "x^6 + 3*x^3*z", "x^4*y + 5*x^2*y^2 - 7*x*y*z")
    m = maximal_ideal(ctx)
    A = ideal_product(ideal_power(I, 2), m)
    _refuse(monkeypatch, "quotient", "colon used on the variable route")
    ring_order_inputs = []
    real = ideals.groebner_basis

    def recording(gens, c=None):
        gens = list(gens)
        if c == ctx:
            ring_order_inputs.append(gens)
        return real(gens, c)

    monkeypatch.setattr(ideals, "groebner_basis", recording)
    sat, index = saturate(A, m)
    assert A._gb is None
    # B = m carries its basis and the intersection of the pieces comes
    # with its own, so no basis in the ring's order is computed at all
    assert ring_order_inputs == []
    monkeypatch.undo()
    assert (sat, index) == assert_saturation_matches_oracles(A)
    assert index == 1


def test_saturate_variable_matches_elimination(ctx3):
    # the private piece step: A : x_i^infinity against the oracle
    A = ideal(ctx3, "x^2*y", "x*y*z", "y^3")
    for i, name in enumerate(ctx3.variables):
        assert _piece(A, i) == saturate_by_elimination(A, ideal(ctx3, name))


def test_saturate_variable_rejects_inhomogeneous(ctx3):
    with pytest.raises(HomogeneityError):
        _saturate_variable(ideal(ctx3, "x^2 + y"), 0)
    with pytest.raises(ValueError):
        _saturate_variable(ideal(ctx3, "x"), 3)


def test_saturation_order_key_is_additive_and_ranks_low_degree_first():
    weights = (2, 3, 1, 4)
    for i in range(4):
        key = MonomialOrder.saturation(weights, i).key_function(4)
        monos = list(itertools.product(range(3), repeat=4))
        for a, b in itertools.product(monos[::7], monos[::5]):
            ab = tuple(x + y for x, y in zip(a, b))
            assert key(ab) == tuple(x + y for x, y in zip(key(a), key(b)))
            wa = sum(e * w for e, w in zip(a, weights))
            wb = sum(e * w for e, w in zip(b, weights))
            if wa == wb and a[i] < b[i]:
                assert key(a) > key(b)
            if wa > wb:
                assert key(a) > key(b)


def test_saturation_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder.saturation((1, 0, 1), 0)
    with pytest.raises(ValueError):
        MonomialOrder.saturation((1, 1, 1), 3).key_function(3)
    with pytest.raises(ValueError):
        MonomialOrder.saturation((1, 1), 0).key_function(3)
