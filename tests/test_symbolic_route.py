"""Symbolic powers by variable saturation against the independent routes.

For weighted-homogeneous I and the ideal of all variables,
``symbolic_power`` intersects the saturations I^n : x_i^infinity, each
read off one Groebner basis in the ``saturation`` order.  Every answer
here is compared with the extra-variable oracle and with the iterated
colon of ``saturate``; reduced bases are canonical, so equal ideals have
equal bases.
"""

import itertools
import random

import pytest

import spreadlab.filtrations as filtrations
from spreadlab import MonomialOrder, RingContext, ideal
from spreadlab.filtrations import symbolic_power
from spreadlab.ideals import (
    eliminate,
    ideal_power,
    maximal_ideal,
    saturate,
    saturate_by_elimination,
    saturate_variable,
)
from spreadlab.ring import HomogeneityError


# the space curves (t^a, t^b, t^c) of the benchmark's spread-rees stream
CURVES = ((3, 4, 5), (3, 4, 7), (3, 5, 7), (3, 5, 8), (4, 5, 6), (4, 6, 7), (5, 6, 7), (4, 5, 7))


def curve_prime(weights, p=32003):
    ctx = RingContext(p, ("t", "x", "y", "z"), weights=(1,) + weights)
    param = [f"{v} - t^{e}" for v, e in zip("xyz", weights)]
    return eliminate(ideal(ctx, *param), ["t"])


def assert_matches_oracles(I, n):
    power = ideal_power(I, n)
    m = maximal_ideal(I.ctx)
    got = symbolic_power(I, n)
    assert got.gb.basis == saturate_by_elimination(power, m).gb.basis
    assert got.gb.basis == saturate(power, m)[0].gb.basis
    return got


@pytest.mark.parametrize("weights", CURVES)
@pytest.mark.parametrize("n", (2, 3))
def test_curve_symbolic_powers_match_oracles(weights, n):
    P = curve_prime(weights)
    S = assert_matches_oracles(P, n)
    assert S.contains_ideal(ideal_power(P, n))


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


def test_lex_instance_of_weighted_degree_five_matches_oracles():
    # the iterated colon took seconds here while pairs were selected by
    # lcm in lex order alone
    ctx = RingContext(101, ("x", "y", "z"), MonomialOrder.lex(), (1, 2, 3))
    I = ideal(
        ctx,
        "-38*x^3*y + 38*x^2*z - 48*y*z",
        "-42*x^3 - 28*z",
        "14*x^4 - 23*x^2*y + 46*y^2",
    )
    # I holds x^3 - 33z, y^3 - 8z^2 and z^3, so it is m-primary and the
    # saturation of its square is the unit ideal
    assert assert_matches_oracles(I, 2).is_unit


def _count_intersections(monkeypatch):
    calls = []
    real = filtrations.intersect

    def counting(A, B):
        calls.append((A, B))
        return real(A, B)

    monkeypatch.setattr(filtrations, "intersect", counting)
    return calls


def test_prime_needs_no_intersection(monkeypatch, curve_prime):
    calls = _count_intersections(monkeypatch)
    assert_matches_oracles(curve_prime, 2)
    assert calls == []


def test_only_minimal_pieces_are_intersected(monkeypatch):
    # I^2 : z^inf lies inside I^2 : x^inf, so only the y- and z-pieces meet
    ctx = RingContext(32003, ("x", "y", "z"), weights=(1, 2, 3))
    I = ideal(ctx, "x^6 + 3*x^3*z", "x^4*y + 5*x^2*y^2 - 7*x*y*z")
    power = ideal_power(I, 2)
    pieces = [saturate_variable(power, i) for i in range(3)]
    assert pieces[0].contains_ideal(pieces[2]) and not pieces[2].contains_ideal(pieces[0])
    calls = _count_intersections(monkeypatch)
    assert_matches_oracles(I, 2)
    assert len(calls) == 1


def test_inhomogeneous_input_keeps_iterated_colon(monkeypatch, ctx3):
    I = ideal(ctx3, "x^2 + y", "x*z^2")
    expected = saturate(ideal_power(I, 2), maximal_ideal(ctx3))[0]

    def refuse(*args):
        raise AssertionError("variable saturation used on an inhomogeneous ideal")

    monkeypatch.setattr(filtrations, "saturate_variable", refuse)
    got = symbolic_power(I, 2)
    assert got == expected
    assert got == saturate_by_elimination(ideal_power(I, 2), maximal_ideal(ctx3))


def test_other_saturating_ideal_keeps_iterated_colon(monkeypatch, ctx3):
    I = ideal(ctx3, "x*y", "x*z")
    J = ideal(ctx3, "y", "z")
    expected = saturate(ideal_power(I, 2), J)[0]

    def refuse(*args):
        raise AssertionError("variable saturation used for a non-maximal J")

    monkeypatch.setattr(filtrations, "saturate_variable", refuse)
    got = symbolic_power(I, 2, J)
    assert got == expected == ideal(ctx3, "x^2")
    assert got == saturate_by_elimination(ideal_power(I, 2), J)


def test_explicit_maximal_ideal_takes_variable_route(curve_ctx, curve_prime):
    J = ideal(curve_ctx, "z", "y", "x", "x + y")
    assert symbolic_power(curve_prime, 2, J) == symbolic_power(curve_prime, 2)


def test_saturate_variable_matches_elimination(ctx3):
    A = ideal(ctx3, "x^2*y", "x*y*z", "y^3")
    for i, name in enumerate(ctx3.variables):
        got = saturate_variable(A, i)
        assert got == saturate_by_elimination(A, ideal(ctx3, name))


def test_saturate_variable_rejects_inhomogeneous(ctx3):
    with pytest.raises(HomogeneityError):
        saturate_variable(ideal(ctx3, "x^2 + y"), 0)
    with pytest.raises(ValueError):
        saturate_variable(ideal(ctx3, "x"), 3)


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
