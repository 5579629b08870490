import random

import pytest

import spreadlab.ideals as ideals
from spreadlab import (
    Filtration,
    Ideal,
    MonomialOrder,
    RingContext,
    eliminate,
    groebner_basis,
    height,
    ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    is_max_ideal_associated,
    krull_dim,
    maximal_ideal,
    monomial_integral_closure,
    quotient,
    saturate,
    saturate_by_elimination,
    unit_ideal,
)

from oracles import brute_force_dim, divide_by_lead_terms


# --- sum / product / power -------------------------------------------------

def test_product_of_principals(ctx3):
    A, B = ideal(ctx3, "x"), ideal(ctx3, "y")
    assert ideal_product(A, B) == ideal(ctx3, "x*y")
    assert ideal_sum(A, B) == ideal(ctx3, "x", "y")


def test_square_of_two_generated(ctx3):
    sq = ideal_power(ideal(ctx3, "x", "y"), 2)
    assert sq == ideal(ctx3, "x^2", "x*y", "y^2")
    assert ideal_power(ideal(ctx3, "x"), 3) == ideal(ctx3, "x^3")


def test_first_power_keeps_the_cached_basis(ctx3):
    # the adic filtration's first member is the member every spread
    # presents, so its basis is not computed a second time
    I = ideal(ctx3, "x^2 + y*z", "y^3 - x*z^2")
    assert ideal_power(I, 1) is I
    assert Filtration.adic(I).materialize(1).gb is I.gb


def test_power_zero_is_unit(ctx3):
    assert ideal_power(ideal(ctx3, "x"), 0) == unit_ideal(ctx3)


def test_negative_power_rejected(ctx3):
    with pytest.raises(ValueError):
        ideal_power(ideal(ctx3, "x"), -1)


# --- intersection ----------------------------------------------------------

def test_intersect_principals(ctx3):
    assert intersect(ideal(ctx3, "x"), ideal(ctx3, "y")) == ideal(ctx3, "x*y")


def test_intersect_with_unit(ctx3):
    A = ideal(ctx3, "x^2 - y*z", "y^3")
    assert intersect(A, unit_ideal(ctx3)) == A


def test_intersect_two_planes(ctx3):
    # frozen from the auxiliary-variable elimination oracle
    got = intersect(ideal(ctx3, "x", "y"), ideal(ctx3, "x", "z"))
    assert got == ideal(ctx3, "x", "y*z")


# --- colon -----------------------------------------------------------------

def test_quotient_principal(ctx3):
    assert quotient(ideal(ctx3, "x*y"), ideal(ctx3, "y")) == ideal(ctx3, "x")


def test_quotient_by_unit(ctx3):
    A = ideal(ctx3, "x^2", "y*z")
    assert quotient(A, unit_ideal(ctx3)) == A


def test_quotient_example(ctx2):
    # frozen from the intersect-with-principal oracle per generator
    got = quotient(ideal(ctx2, "x^2", "x*y"), ideal(ctx2, "x", "y"))
    assert got == ideal(ctx2, "x")


def test_quotient_by_zero_rejected(ctx3):
    with pytest.raises(ValueError, match=r"^colon by the zero ideal$"):
        quotient(ideal(ctx3, "x"), ideal(ctx3, []))


def test_saturation_by_zero_rejected(ctx3):
    A = ideal(ctx3, "x")
    for saturation in (saturate, saturate_by_elimination):
        with pytest.raises(ValueError, match=r"^saturation by the zero ideal$"):
            saturation(A, ideal(ctx3, "0"))


@pytest.mark.parametrize("gens", [("1", "x"), ("x", "3")])
def test_a_unit_generator_gives_A_with_its_basis(monkeypatch, ctx3, gens):
    A = ideal(ctx3, "x^2 - y*z", "y^3")
    B = ideal(ctx3, *gens)
    assert A.is_proper and B.is_unit         # both bases exist before counting
    real, calls = ideals.groebner_basis, []
    monkeypatch.setattr(ideals, "groebner_basis", lambda *a: calls.append(a) or real(*a))
    for colon in (quotient, saturate_by_elimination):
        got = colon(A, B)
        assert got.gb is A.gb
    assert calls == []


def test_colon_and_saturation_by_two_generators(monkeypatch, ctx3):
    # A = z * (x^2, y^2): A : (x, y) = z * (x^2, x*y, y^2), and every piece
    # A : x^infinity = A : y^infinity is (z)
    A = ideal(ctx3, "x^2*z", "y^2*z")
    B = ideal(ctx3, "x", "y")
    real, calls = ideals.intersect, []
    monkeypatch.setattr(ideals, "intersect", lambda P, Q: calls.append(1) or real(P, Q))
    assert quotient(A, B) == ideal(ctx3, "x^2*z", "x*y*z", "y^2*z")
    assert len(calls) == 3              # A cap (x), A cap (y), then the two pieces
    assert saturate_by_elimination(A, B) == ideal(ctx3, "z")
    assert len(calls) == 4              # the two pieces
    # (x, y)^3, not (x, y)^2, lies in (x^2, y^2)
    assert saturate(A, B) == (ideal(ctx3, "z"), 3)


def _quotient_by_lead_terms(A, B):
    """A : B by the intersections, each generator divided by the oracle."""
    result = None
    for b in B.gens:
        inter = intersect(A, Ideal(A.ctx, [b]))
        piece = Ideal(A.ctx, [divide_by_lead_terms(g, b) for g in inter.gens])
        result = piece if result is None else intersect(result, piece)
    return result


def test_quotient_of_random_ideals_matches_oracle_division():
    rng = random.Random(89)
    grew = 0
    for p in (101, 32003, 2**61 - 1):
        ctx = RingContext(p, ("x", "y", "z"))

        def form(top, terms):
            f = ctx.zero()
            for _ in range(terms):
                m = [rng.randrange(top + 1) for _ in range(3)]
                f = f + ctx.monomial(tuple(m), rng.randrange(1, p))
            return f

        def linear():
            return sum((ctx.var(v) * rng.randrange(1, p) for v in "xyz"), ctx.zero())

        for _ in range(2):
            # generators that the linear forms divide, so the colons grow
            l1, l2 = linear(), linear()
            A = Ideal(ctx, [form(2, 3) * l1 * l2, form(2, 2) * l2, form(2, 2) * l1 + form(1, 2)])
            assert not A.is_monomial()
            for B in (Ideal(ctx, [l1]), Ideal(ctx, [l1, l2])):
                got = quotient(A, B)
                expected = _quotient_by_lead_terms(A, B)
                assert got.gens == expected.gens and got == expected, (p, A, B)
                grew += got != A
    assert grew


# --- saturation ------------------------------------------------------------

def test_saturate_example(ctx2):
    sat, index = saturate(ideal(ctx2, "x^2", "x*y"), ideal(ctx2, "x", "y"))
    assert sat == ideal(ctx2, "x")
    assert index == 1


def test_saturate_already_saturated(ctx3):
    sat, index = saturate(ideal(ctx3, "x"), ideal(ctx3, "y"))
    assert sat == ideal(ctx3, "x")
    assert index == 0


def test_saturate_idempotent(ctx2):
    A = ideal(ctx2, "x^3", "x^2*y")
    B = maximal_ideal(ctx2)
    once, _ = saturate(A, B)
    twice, again = saturate(once, B)
    assert twice == once and again == 0


def test_curve_square_saturation_strictly_grows(curve_ctx, curve_prime):
    p2 = ideal_power(curve_prime, 2)
    sat, index = saturate(p2, maximal_ideal(curve_ctx))
    assert index >= 1
    assert sat != p2
    assert sat.contains_ideal(p2)
    # cross-check against the extra-variable method
    assert saturate_by_elimination(p2, maximal_ideal(curve_ctx)) == sat


@pytest.mark.parametrize("order", [
    MonomialOrder.grevlex(),
    MonomialOrder.lex(),
    MonomialOrder.weighted_grevlex((2, 1, 3)),
    MonomialOrder.block((1,), MonomialOrder.lex()),
    MonomialOrder.saturation((2, 1, 3), 1),
], ids=lambda order: order.kind)
def test_maximal_ideal_carries_its_basis(monkeypatch, order):
    # the variables are the reduced basis of m in every order
    ctx = RingContext(32003, ("x", "y", "z"), order, (2, 1, 3))
    monkeypatch.setattr(ideals, "groebner_basis", lambda *args: pytest.fail("basis computed"))
    m = maximal_ideal(ctx)
    assert m.gens == tuple(ctx.gens())
    basis = m.gb.basis
    monkeypatch.undo()
    assert basis == groebner_basis(ctx.gens(), ctx).basis


# --- elimination -----------------------------------------------------------

def test_eliminate_rees_style():
    big = RingContext(32003, ("t", "x", "y", "T1", "T2"))
    A = ideal(big, "T1 - x*t", "T2 - y*t")
    out = eliminate(A, ["t"])
    assert out.ctx.variables == ("x", "y", "T1", "T2")
    assert out == Ideal(out.ctx, [out.ctx.poly("y*T1 - x*T2")])


def test_eliminate_everything_about_t(ctx3):
    ctx = RingContext(32003, ("t", "x"))
    assert eliminate(ideal(ctx, "t - x"), ["t"]).is_zero


def test_eliminate_argument_errors(ctx3):
    A = ideal(ctx3, "x")
    with pytest.raises(ValueError):
        eliminate(A, [])
    with pytest.raises(ValueError):
        eliminate(A, ["x", "y", "z"])


# --- dimension and height ---------------------------------------------------

def test_dim_zero_ideal(ctx3):
    assert krull_dim(ideal(ctx3, [])) == 3


def test_dim_maximal(ctx3):
    assert krull_dim(maximal_ideal(ctx3)) == 0


def test_dim_unit_convention(ctx3):
    assert krull_dim(unit_ideal(ctx3)) == -1


def test_dim_curve(curve_prime):
    assert krull_dim(curve_prime) == 1
    assert height(curve_prime) == 2


def test_height_examples(ctx3):
    assert height(ideal(ctx3, "x", "y")) == 2
    assert height(ideal(ctx3, "x^2 + y*z")) == 1
    with pytest.raises(ValueError):
        height(unit_ideal(ctx3))
    with pytest.raises(ValueError):
        height(ideal(ctx3, []))


def test_dim_matches_brute_force_on_monomials():
    rng = random.Random(101)
    for n in (2, 3, 4):
        ctx = RingContext(32003, tuple(f"x{i}" for i in range(n)))
        for _ in range(12):
            monos = [
                tuple(rng.randrange(3) for _ in range(n))
                for _ in range(rng.randrange(1, 5))
            ]
            monos = [m for m in monos if any(m)]
            if not monos:
                continue
            A = Ideal(ctx, [ctx.monomial(m) for m in monos])
            assert krull_dim(A) == brute_force_dim(monos, n)


def test_dim_height_duality(ctx3):
    rng = random.Random(9)
    for _ in range(15):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            f = ctx3.zero()
            for _ in range(rng.randrange(1, 3)):
                f = f + ctx3.monomial(
                    tuple(rng.randrange(3) for _ in range(3)), rng.randrange(1, 32003)
                )
            if not f.is_zero and f.constant_value() is None:
                gens.append(f)
        if not gens:
            continue
        A = Ideal(ctx3, gens)
        if A.is_zero or A.is_unit:
            continue
        assert height(A) + krull_dim(A) == 3


# --- associated maximal ideal -----------------------------------------------

def test_max_associated_examples(ctx2, curve_prime, curve_ctx):
    assert is_max_ideal_associated(ideal(ctx2, "x^2", "x*y"))
    assert not is_max_ideal_associated(curve_prime)
    p2 = ideal_power(curve_prime, 2)
    assert is_max_ideal_associated(p2)


# --- monomial integral closure ----------------------------------------------

def test_closure_principal(ctx2):
    A = ideal(ctx2, "x")
    assert monomial_integral_closure(A) == A


def test_closure_two_squares(ctx2):
    got = monomial_integral_closure(ideal(ctx2, "x^2", "y^2"))
    assert got == ideal(ctx2, "x^2", "x*y", "y^2")


def test_closure_two_cubes(ctx2):
    got = monomial_integral_closure(ideal(ctx2, "x^3", "y^3"))
    assert got == ideal(ctx2, "x^3", "x^2*y", "x*y^2", "y^3")


def test_closure_rejects_non_monomial(ctx2):
    with pytest.raises(ValueError):
        monomial_integral_closure(ideal(ctx2, "x + y"))


def test_closure_properties(ctx2):
    rng = random.Random(77)
    for _ in range(10):
        monos = [
            (rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 4))
        ]
        monos = [m for m in monos if any(m)]
        if not monos:
            continue
        A = Ideal(ctx2, [ctx2.monomial(m) for m in monos])
        closed = monomial_integral_closure(A)
        assert closed.contains_ideal(A)
        assert monomial_integral_closure(closed) == closed
        # closure of the square contains the square of the closure
        sq_closed = monomial_integral_closure(ideal_power(A, 2))
        assert sq_closed.contains_ideal(ideal_power(closed, 2))


# --- interplay properties ----------------------------------------------------

def test_intersection_captures_common_elements(ctx3):
    """Random elements living in both ideals must reduce into the intersection."""
    rng = random.Random(33)
    A = ideal(ctx3, "x*y", "y*z")
    B = ideal(ctx3, "y")
    C = intersect(A, B)
    for _ in range(25):
        f = ctx3.zero()
        for g in A.gens:
            f = f + ctx3.monomial(
                tuple(rng.randrange(3) for _ in range(3)), rng.randrange(32003)
            ) * g
        if B.contains(f):
            assert C.contains(f)
    # and symmetric generators of the textbook answer appear
    assert C == ideal(ctx3, "x*y", "y*z")


def test_colon_saturation_containments(ctx2):
    rng = random.Random(55)
    for _ in range(10):
        gens_a = [
            ctx2.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(1, 32003))
            for _ in range(rng.randrange(1, 3))
        ]
        gens_a = [g for g in gens_a if not g.is_zero and g.constant_value() is None]
        if not gens_a:
            continue
        A = Ideal(ctx2, gens_a)
        B = maximal_ideal(ctx2)
        sat, _ = saturate(A, B)
        q = quotient(A, B)
        assert sat.contains_ideal(A)
        assert q.contains_ideal(A)
        prod = ideal_product(A, B)
        inter = intersect(A, B)
        assert inter.contains_ideal(prod)
