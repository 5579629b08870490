import itertools
import random

import pytest

import spreadlab.groebner as groebner
import spreadlab.ideals as ideals
from spreadlab import (
    ContextError,
    Filtration,
    MonomialOrder,
    Polynomial,
    RingContext,
    groebner_basis,
    ideal,
    ideal_equal,
    normal_form,
    rees_presentation,
    symbolic_power,
    weighted_degree,
)
from spreadlab.groebner import GroebnerBasis, divide_exact, new_generators

from oracles import (
    divide_by_lead_terms,
    mono_div,
    mono_lcm,
    naive_buchberger,
    poly_lead_reduce,
)


def test_linear_elimination(ctx3):
    G = groebner_basis([ctx3.poly("x + y"), ctx3.poly("x - y")])
    assert {str(g) for g in G} == {"x", "y"}


def test_already_reduced(ctx3):
    G = groebner_basis([ctx3.var("x")])
    assert [str(g) for g in G] == ["x"]


def test_zero_ideal(ctx3):
    assert groebner_basis([ctx3.zero()], ctx3).basis == ()
    assert groebner_basis([], ctx3).basis == ()


def test_space_curve_matches_naive_oracle(curve_ctx, curve_prime):
    expected = naive_buchberger(list(curve_prime.gens), curve_ctx)
    got = groebner_basis(curve_prime.gens, curve_ctx).basis
    assert tuple(got) == tuple(expected)


def test_canonical_under_shuffle_and_rescale(ctx3):
    rng = random.Random(23)
    gens = [ctx3.poly("x^2 - y*z"), ctx3.poly("x*y + z^2"), ctx3.poly("y^3 - x*z^2")]
    reference = groebner_basis(gens, ctx3).basis
    for _ in range(8):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g * rng.randrange(1, 32003) for g in shuffled]
        assert groebner_basis(scaled, ctx3).basis == reference


def test_buchberger_criterion_on_output(ctx3, curve_prime):
    for gens in (
        [ctx3.poly("x^2 - y"), ctx3.poly("x*y - z"), ctx3.poly("y^2 - x*z")],
        list(curve_prime.gens),
    ):
        ctx = gens[0].ctx
        G = groebner_basis(gens, ctx)
        basis = list(G.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                f, g = basis[i], basis[j]
                lcm = mono_lcm(f.lm(), g.lm())
                s = ctx.monomial(mono_div(lcm, f.lm())) * f - ctx.monomial(
                    mono_div(lcm, g.lm())
                ) * g
                assert G.normal_form(s).is_zero


def test_membership_soundness(ctx3):
    rng = random.Random(31)
    gens = [ctx3.poly("x^2 + y*z"), ctx3.poly("y^2 - z^2")]
    G = groebner_basis(gens, ctx3)
    for _ in range(20):
        combo = ctx3.zero()
        for g in gens:
            cof = ctx3.zero()
            for _ in range(rng.randrange(1, 3)):
                cof = cof + ctx3.monomial(
                    tuple(rng.randrange(3) for _ in range(3)), rng.randrange(1, 32003)
                )
            combo = combo + cof * g
        assert G.normal_form(combo).is_zero
    assert not G.normal_form(ctx3.one()).is_zero


def test_one_reduces_to_one_mod_proper(ctx3):
    G = groebner_basis([ctx3.var("x"), ctx3.var("y")], ctx3)
    assert normal_form(ctx3.one(), G) == ctx3.one()


def test_substitution_under_lex():
    ctx = RingContext(32003, ("x", "y"), MonomialOrder.lex())
    G = groebner_basis([ctx.poly("x - y")], ctx)
    assert normal_form(ctx.poly("x^2"), G) == ctx.poly("y^2")


def test_ideal_equal(ctx3):
    assert ideal_equal(
        ideal(ctx3, ctx3.var("x"), ctx3.var("y")),
        ideal(ctx3, ctx3.poly("x + y"), ctx3.poly("x - y")),
    )
    assert not ideal_equal(ideal(ctx3, ctx3.var("x")), ideal(ctx3, ctx3.poly("x^2")))


def _oracle_layouts(n):
    """One ring per key layout on n variables; the weighted orders carry
    weights of their own, different from the ring's."""
    ring_w = tuple(range(1, n + 1))
    order_w = tuple(range(n, 0, -1))
    return (
        ("grevlex", MonomialOrder.grevlex()),
        ("lex", MonomialOrder.lex()),
        ("wgrevlex", MonomialOrder.weighted_grevlex(order_w)),
        ("block", MonomialOrder.block((0,), MonomialOrder.grevlex())),
        ("saturation", MonomialOrder.saturation(order_w, n - 1)),
    ), ring_w


def test_random_small_ideals_match_oracle():
    rng = random.Random(47)
    for p in (101, 32003, 2**61 - 1):
        for n in (2, 3, 4):
            layouts, ring_w = _oracle_layouts(n)
            names = ("x", "y", "z", "w")[:n]
            # the criterion-free oracle runs for minutes on some draws in
            # 3-4 variables with exponents up to 3
            top = 4 if n == 2 else 3
            for label, order in layouts:
                ctx = RingContext(p, names, order, ring_w)
                for _ in range(6):
                    gens = []
                    for _ in range(rng.randrange(1, 4)):
                        f = ctx.zero()
                        for _ in range(rng.randrange(1, 4)):
                            f = f + ctx.monomial(
                                tuple(rng.randrange(top) for _ in range(n)),
                                rng.randrange(1, p),
                            )
                        gens.append(f)
                    expected = naive_buchberger(gens, ctx)
                    got = groebner_basis(gens, ctx).basis
                    assert tuple(got) == tuple(expected), (label, p, n, gens)


def _random_form(rng, ctx, degree, weights, terms):
    """A sum of up to `terms` monomials of weighted degree `degree`."""
    n = ctx.nvars
    monos = [
        m for m in itertools.product(range(degree + 1), repeat=n)
        if sum(e * w for e, w in zip(m, weights)) == degree
    ]
    f = ctx.zero()
    for m in rng.sample(monos, min(terms, len(monos))):
        f = f + ctx.monomial(m, rng.randrange(1, ctx.p))
    return f


def test_sugar_selection_matches_oracle_on_rees_relations():
    # T_j - f_j t^n with T_j weighing wdeg(f_j) + n: homogeneous input in
    # a block order that eliminates t, where the sugar is wdeg(lcm)
    rng = random.Random(61)
    block = MonomialOrder.block((0,), MonomialOrder.grevlex())
    for p in (101, 32003):
        for w in ((1, 1), (1, 2), (2, 3)):
            base = RingContext(p, ("x", "y"), weights=w)
            for _ in range(4):
                n = rng.randrange(1, 3)
                forms, count = [], rng.randrange(2, 4)
                while len(forms) < count:
                    f = _random_form(rng, base, rng.randrange(2, 5), w, 2)
                    if not f.is_zero:
                        forms.append(f)
                tnames = tuple(f"T{j}" for j in range(len(forms)))
                ctx = RingContext(
                    p, ("t",) + base.variables + tnames, block,
                    (1,) + w + tuple(weighted_degree(f) + n for f in forms),
                )
                rels = []
                for j, f in enumerate(forms):
                    lifted = Polynomial(ctx, tuple(
                        ((n,) + m + (0,) * len(forms), c) for m, c in f.terms
                    ))
                    rels.append(ctx.var(tnames[j]) - lifted)
                assert all(weighted_degree(r) is not None for r in rels)
                assert groebner_basis(rels, ctx).basis == naive_buchberger(rels, ctx)


def test_engine_matches_oracle_on_rees_eliminations_in_six_to_eight_variables():
    # T_j - f_j t for two to four forms f_j of one weighted degree in x,
    # y, z: 6-8 variables, where all three pair criteria fire.  Degrees
    # stay small because the criterion-free oracle grows fast with them.
    rng = random.Random(83)
    block = MonomialOrder.block((0,), MonomialOrder.grevlex())
    fired = dict.fromkeys(("pruned_m", "pruned_f", "pruned_b"), 0)
    for p in (101, 32003):
        for w, degrees in (((1, 1, 1), (1, 2)), ((1, 2, 3), (2, 3))):
            base = RingContext(p, ("x", "y", "z"), weights=w)
            for _ in range(8):
                d, count = rng.choice(degrees), rng.randrange(2, 5)
                forms = []
                while len(forms) < count:
                    f = _random_form(rng, base, d, w, 2)
                    if not f.is_zero:
                        forms.append(f)
                tnames = tuple(f"T{j}" for j in range(count))
                ctx = RingContext(
                    p, ("t",) + base.variables + tnames, block,
                    (1,) + w + (d + 1,) * count,
                )
                rels = [
                    ctx.var(name) - Polynomial(ctx, tuple(
                        ((1,) + m + (0,) * count, c) for m, c in f.terms
                    ))
                    for name, f in zip(tnames, forms)
                ]
                G = groebner_basis(rels, ctx)
                assert G.basis == naive_buchberger(rels, ctx), (p, w, [str(f) for f in forms])
                for k in fired:
                    fired[k] += G.stats[k]
    assert all(fired.values()), fired


def test_sugar_selection_matches_oracle_on_inhomogeneous_input():
    # mixed degrees: an element's sugar then exceeds the weighted degree
    # of its leading monomial, and pairs carry that excess
    rng = random.Random(67)
    orders = (
        MonomialOrder.block((0,), MonomialOrder.grevlex()),
        MonomialOrder.block((0, 1), MonomialOrder.grevlex()),
        MonomialOrder.lex(),
    )
    for p in (101, 32003):
        for w in ((1, 1, 1), (1, 2, 3), (3, 1, 2)):
            for order in orders:
                ctx = RingContext(p, ("x", "y", "z"), order, w)
                for _ in range(3):
                    gens = []
                    for _ in range(rng.randrange(2, 4)):
                        f = ctx.zero()
                        for d in rng.sample(range(1, 7), 2):
                            f = f + _random_form(rng, ctx, d, w, 1)
                        if not f.is_zero:
                            gens.append(f)
                    assert any(weighted_degree(g) is None for g in gens)
                    assert groebner_basis(gens, ctx).basis == naive_buchberger(gens, ctx)


def test_stats_pairs_inherit_the_sugar_excess():
    # block order on x: x*y leads the first input, whose sugar is 3, the
    # degree of y^2*z.  An element's sugar can exceed the degree of its
    # leading monomial, and its pairs carry that excess.  Selecting by
    # the lcm's key alone reduces 16 S-polynomials here in 73 steps;
    # dropping the excess, or reading an input's sugar off its leading
    # term, changes the counts too.
    ctx = RingContext(
        32003, ("x", "y", "z"), MonomialOrder.block((0,), MonomialOrder.grevlex())
    )
    gens = [
        ctx.poly("-15017*x*y + 1013*y^2*z + 1158"),
        ctx.poly("-1207*x*y*z^2 - 14399*x*z^2 + 7573*y^2"),
        ctx.poly("-15629*x*y^2*z^2 + 3403"),
    ]
    G = groebner_basis(gens)
    assert G.basis == naive_buchberger(gens, ctx)
    assert dict(G.stats) == {
        "pairs_created": 45,
        "pruned_m": 17,
        "pruned_f": 14,
        "pruned_b": 2,
        "spolys_reduced": 12,
        "zero_reductions": 5,
        "reduction_steps": 27,
    }


def test_wide_exponents_match_oracle():
    # key components of 2^24 and more: a packed key whose fields are
    # narrower than the order's range wraps and misorders the basis
    ctx = RingContext(32003, ("w", "x", "y", "z"))
    f = ctx.poly("x^16777217 + w^16777216*y")
    g = ctx.poly("w^16777216*z + x^16777217")
    assert groebner_basis([f, g]).basis == naive_buchberger([f, g], ctx)


def test_exponent_beyond_guard_is_refused():
    ctx = RingContext(32003, ("w", "x", "y", "z"))
    with pytest.raises(ValueError):
        groebner_basis([ctx.poly("w^2147483648 + x"), ctx.poly("y")])
    # at the limit itself the engine still answers
    top = ctx.poly("w^2147483647 + x")
    assert groebner_basis([top, ctx.poly("y")]).basis == naive_buchberger(
        [top, ctx.poly("y")], ctx
    )
    # inputs in range whose reduction reaches 2^31: lex, x*y leads f, and
    # reducing g by f multiplies y^(2^30) by y^(2^30 + 4)
    lex = RingContext(32003, ("x", "y"), MonomialOrder.lex())
    f = lex.poly("x*y + y^1073741824")
    g = lex.poly("x*y^1073741829 + 1")
    with pytest.raises(ValueError):
        groebner_basis([f, g])
    # neither input reduces the other, so the first exponent to reach
    # 2^31 is in their S-polynomial: y^(2^30 + 1) f - x g holds
    # y^(2^31 + 1)
    f = lex.poly("x^2 + y^1073741824")
    g = lex.poly("x*y^1073741825 + 1")
    assert len(groebner_basis([f]).basis) == len(groebner_basis([g]).basis) == 1
    with pytest.raises(ValueError):
        groebner_basis([f, g])
    G = groebner_basis([lex.poly("x*y")])
    with pytest.raises(ValueError):
        G.normal_form(lex.poly("y^2147483648"))


def test_stats_count_one_curve_prime():
    # the prime of the (t^3, t^4, t^5) curve, by eliminating t; the
    # relations are homogeneous for the weights, so sugar selection goes
    # degree by degree through the block order
    ctx = RingContext(
        32003, ("t", "x", "y", "z"),
        MonomialOrder.block((0,), MonomialOrder.grevlex()), (1, 3, 4, 5),
    )
    G = groebner_basis([ctx.poly(f"{v} - t^{e}") for v, e in zip("xyz", (3, 4, 5))])
    assert dict(G.stats) == {
        "pairs_created": 21,
        "pruned_m": 8,
        "pruned_f": 2,
        "pruned_b": 0,
        "spolys_reduced": 11,
        "zero_reductions": 7,
        "reduction_steps": 16,
    }
    s = G.stats
    assert s["pairs_created"] == (
        s["pruned_m"] + s["pruned_f"] + s["pruned_b"] + s["spolys_reduced"]
    )
    with pytest.raises(TypeError):
        G.stats["pairs_created"] = 0
    plain = GroebnerBasis(ctx, G.basis)
    assert plain.stats is None
    assert plain == G and hash(plain) == hash(G)


def _captured_bases(monkeypatch):
    """Every basis that ``ideals`` computes from here on, in call order."""
    runs = []

    def capture(gens, ctx=None):
        G = groebner_basis(gens, ctx)
        runs.append(G)
        return G

    monkeypatch.setattr(ideals, "groebner_basis", capture)
    return runs


def test_stats_of_a_ten_variable_rees_elimination(monkeypatch):
    # six degree-4 monomials with no certified reduction among them: the
    # Rees ring has six fiber variables, and its block-order elimination
    # is where the B criterion fires.  Counts recorded before the
    # engine's per-call costs were cut, which must leave them unchanged.
    runs = _captured_bases(monkeypatch)
    ctx = RingContext(32003, ("x", "y", "z"))
    I = ideal(ctx, "y^4", "x*z^3", "x*y^2*z", "x^2*z^2", "x^2*y*z", "x^3*z")
    rees_presentation(Filtration.adic(I)).rees_kernel   # read: the elimination is lazy
    (G,) = [G for G in runs if G.ctx.nvars == 10]
    assert len(G) == 29
    assert dict(G.stats) == {
        "pairs_created": 406,
        "pruned_m": 250,
        "pruned_f": 36,
        "pruned_b": 7,
        "spolys_reduced": 113,
        "zero_reductions": 90,
        "reduction_steps": 150,
    }


def test_stats_of_the_saturation_run_of_a_symbolic_square(monkeypatch, curve_ctx):
    # P^(2) for the (t^3, t^4, t^5) prime: one run in x's saturation
    # order, certified at once
    runs = _captured_bases(monkeypatch)
    P = ideal(curve_ctx, "y^2 - x*z", "x^3 - y*z", "x^2*y - z^2")
    symbolic_power(P, 2)
    (G,) = [G for G in runs if G.ctx.order.kind == "saturation"]
    assert G.ctx.order.var == 0 and len(G) == 6
    assert dict(G.stats) == {
        "pairs_created": 15,
        "pruned_m": 8,
        "pruned_f": 0,
        "pruned_b": 1,
        "spolys_reduced": 6,
        "zero_reductions": 6,
        "reduction_steps": 9,
    }


# --- normal forms --------------------------------------------------------------

def test_normal_form_copies_an_irreducible_prefix_exactly():
    # A normal form's leading terms that no leading monomial divides go
    # straight into the remainder; the rest is reduced as before.  Each
    # kind of input is checked against plain lead-term reduction.
    ctx = RingContext(32003, ("x", "y", "z"))
    G = groebner_basis([ctx.poly("x^2 - y*z"), ctx.poly("y^3 - z^3")])
    lms = [g.lm() for g in G]

    def reducible(m):
        return any(all(a <= b for a, b in zip(v, m)) for v in lms)

    cases = {
        "irreducible": ctx.poly("x*y^2*z^2 + 5*x*z^4 + y^2*z - 3"),
        "prefix": ctx.poly("x*y^2*z^2 + 7*x^2*z^2 - x^2*y + y^3 + 2"),
        "leading": ctx.poly("x^3*y^2 + x*y^2*z^2 - 4*x^2 + z"),
    }
    rng = random.Random(89)
    while len(cases) < 60:
        f = _random_poly(rng, ctx, rng.randrange(1, 7), 4)
        if not f.is_zero:
            cases[len(cases)] = f
    kinds = set()
    for label, f in cases.items():
        flags = [reducible(m) for m, _ in f.terms]
        kind = "leading" if flags[0] else "prefix" if any(flags) else "irreducible"
        assert not isinstance(label, str) or kind == label
        kinds.add(kind)
        got = G.normal_form(f)
        assert got == poly_lead_reduce(f, G.basis), str(f)
        if kind == "irreducible":
            assert got == f
    assert kinds == {"irreducible", "prefix", "leading"}


def test_exponent_beyond_guard_after_an_irreducible_prefix_is_refused():
    # x^5 leads f and no leading monomial divides it; reducing the next
    # term, x*y^(2^30 + 5), by x*y + y^(2^30) reaches y^(2^31 + 4)
    lex = RingContext(32003, ("x", "y"), MonomialOrder.lex())
    G = groebner_basis([lex.poly("x*y + y^1073741824")])
    assert G.normal_form(lex.poly("x^5 + y^7")) == lex.poly("x^5 + y^7")
    with pytest.raises(ValueError):
        G.normal_form(lex.poly("x^5 + x*y^1073741829"))


# --- exact division ----------------------------------------------------------

def _division_rings():
    w = (3, 4, 5)
    for p in (101, 32003, 2**61 - 1):
        yield RingContext(p, ("x", "y", "z"))
        yield RingContext(p, ("x", "y", "z"), MonomialOrder.lex())
        yield RingContext(p, ("x", "y", "z"), MonomialOrder.weighted_grevlex(w), w)


def _random_poly(rng, ctx, terms, top):
    f = ctx.zero()
    for _ in range(terms):
        m = tuple(rng.randrange(top) for _ in range(ctx.nvars))
        f = f + ctx.monomial(m, rng.randrange(1, ctx.p))
    return f


def test_divide_exact_matches_oracle():
    rng = random.Random(71)
    for ctx in _division_rings():
        for _ in range(25):
            q = _random_poly(rng, ctx, rng.randrange(1, 9), 4)
            b = _random_poly(rng, ctx, rng.randrange(1, 5), 3)
            if b.is_zero:
                continue
            f = q * b
            got = divide_exact(f, b)
            assert got == q == divide_by_lead_terms(f, b), (ctx, str(f), str(b))
            assert got * b == f


def test_divide_exact_refuses_inexact_division(ctx3):
    # the leading term divides, but a remainder is left
    with pytest.raises(ValueError, match="inexact"):
        divide_exact(ctx3.poly("x^2 + y"), ctx3.poly("x"))
    # the leading term does not divide
    with pytest.raises(ValueError, match="inexact"):
        divide_exact(ctx3.poly("y*z"), ctx3.poly("x"))


def test_divide_exact_by_a_constant(ctx3):
    f = ctx3.poly("3*x^2*y - 7*z + 5")
    assert divide_exact(f, ctx3.const(5)) == f * pow(5, -1, ctx3.p)
    assert divide_exact(f, ctx3.one()) == f
    assert divide_exact(ctx3.zero(), ctx3.poly("x + y")).is_zero


def test_divide_exact_by_zero_is_refused(ctx3):
    with pytest.raises(ValueError, match="zero"):
        divide_exact(ctx3.poly("x"), ctx3.zero())


def test_divide_exact_refuses_mixed_rings(ctx3, ctx2):
    with pytest.raises(ContextError):
        divide_exact(ctx3.poly("x*y"), ctx2.poly("x"))


# --- generators read from another ring ------------------------------------------------

@pytest.mark.parametrize("p", (101, 32003, 2**61 - 1))
def test_generators_from_another_order_match_their_reordered_copies(p):
    rng = random.Random(f"foreign-order/{p}")
    layouts, ring_w = _oracle_layouts(3)
    names = ("x", "y", "z")
    rings = [RingContext(p, names, order, ring_w) for _, order in layouts]
    rings.append(RingContext(p, names, weights=(2, 3, 1)))     # other ring weights
    for source in rings:
        gens = []
        for _ in range(3):
            f = source.zero()
            for _ in range(3):
                f = f + source.monomial(tuple(rng.randrange(3) for _ in names), rng.randrange(1, p))
            gens.append(f)
        for target in rings:
            # packed for target's order: keys strictly descending
            for terms in groebner._packed(gens, target, groebner._codec(target)):
                assert terms == sorted(terms, reverse=True)
            got = groebner_basis(gens, target)
            assert got == groebner_basis([ideals._reorder(g, target) for g in gens], target)
            assert all(g.ctx is target for g in got)
            # the packed terms were sorted for target's order
            assert all(
                [m for m, _ in g.terms] == sorted((m for m, _ in g.terms), key=target.key, reverse=True)
                for g in got
            )


def test_generators_from_another_ring_are_refused(ctx3):
    f = ctx3.poly("x*y - z")
    for other in (
        RingContext(ctx3.p, ("x", "y", "w")),
        RingContext(ctx3.p, ("x", "y")),
        RingContext(101, ctx3.variables),
    ):
        with pytest.raises(ContextError):
            groebner_basis([f], other)
        with pytest.raises(ContextError):
            new_generators([], [f], other)


def test_codec_is_shared_per_ring_value():
    def ring(k):
        return RingContext(10007, ("a", "b", "c"), MonomialOrder.lex(), (k, 2, 3))

    first, second = ring(1), ring(1)
    assert first == second and first is not second
    before = groebner._codec.cache_info()
    codec = groebner._codec(first)
    assert groebner._codec(second) is codec
    after = groebner._codec.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    # the cache is bounded: enough other rings evict the first one's codec
    bound = after.maxsize
    assert bound == 256
    for k in range(2, bound + 2):
        groebner._codec(ring(k))
    assert groebner._codec.cache_info().currsize == bound
    assert groebner._codec(ring(1)) is not codec
