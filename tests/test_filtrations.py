import dataclasses
import gc
import weakref

import pytest

import spreadlab.filtrations as filtrations
import spreadlab.groebner as groebner
import spreadlab.ideals as ideals
from oracles import (
    colength,
    greedy_generator_walk,
    homogeneous_under,
    huneke_pair,
    monomial_curve_prime,
    naive_buchberger,
    rees_weights,
    subs,
    substitution_images,
    tdegree_weights,
    truncation_by_partitions,
    tvar_names,
)
from spreadlab import (
    Filtration,
    HomogeneityError,
    MonomialOrder,
    Polynomial,
    ReesPresentation,
    RingContext,
    analytic_spread,
    analytic_spread_truncated,
    equimultiple_check,
    fiber_nilpotency_witness,
    finite_generation_probe,
    groebner_basis,
    ideal,
    ideal_power,
    ideal_product,
    krull_dim,
    maximal_ideal,
    rees_presentation,
    symbolic_power,
    weighted_degree,
)


# --- truncation --------------------------------------------------------------

def test_truncation_identity_below_bound(curve_symbolic):
    trunc = curve_symbolic.truncate(3)
    for n in (1, 2, 3):
        assert trunc.materialize(n) == curve_symbolic.materialize(n)


def test_truncation_at_one_gives_powers(ctx3):
    F = Filtration.adic(ideal(ctx3, "x", "y"))
    trunc = F.truncate(1)
    base = ideal(ctx3, "x", "y")
    for n in (2, 3, 4):
        assert trunc.materialize(n) == ideal_power(base, n)


def test_truncation_of_a_truncation_at_its_bound_is_itself(curve_symbolic):
    T = curve_symbolic.truncate(2)
    assert T.truncate(2) is T
    # another bound builds a new truncation from T's members
    T3 = T.truncate(3)
    assert T3 is not T and T3.truncation_bound == 3


def test_truncation_partition_sum(curve_symbolic):
    # I_{2,3} = I_1 I_2 as ideals: the cube of I_1 is absorbed
    trunc = curve_symbolic.truncate(2)
    expected = ideal_product(
        curve_symbolic.materialize(1), curve_symbolic.materialize(2)
    )
    assert trunc.materialize(3) == expected


def _filtration(name):
    ctx = RingContext(32003, ("x", "y", "z"))
    if name == "adic":
        return Filtration.adic(ideal(ctx, "x^2", "x*y", "y^3 - z^3"))
    if name == "trivial_max":
        return Filtration.trivial_max(ctx)
    return Filtration.symbolic(monomial_curve_prime(name))


@pytest.mark.parametrize("name", [(3, 4, 5), (3, 4, 7), "adic", "trivial_max"])
def test_truncation_matches_partition_sum(name):
    # beyond a, the two-factor sum of lower members is the sum over
    # every partition, because the members form a filtration
    F = _filtration(name)
    for a in (1, 2):
        trunc = F.truncate(a)
        for n in range(1, 3 * a + 1):
            assert trunc.materialize(n) == truncation_by_partitions(F, a, n), (a, n)


def test_truncation_bound_validated(curve_symbolic):
    with pytest.raises(ValueError):
        curve_symbolic.truncate(0)
    # the truncated spread refuses a < 1 through truncate, on a truncation too
    for F in (curve_symbolic, curve_symbolic.truncate(1)):
        with pytest.raises(ValueError, match="truncation bound must be at least 1"):
            analytic_spread_truncated(F, 0)


def test_filtration_refuses_kind_and_data(ctx3):
    # members handed in as data need not form a filtration: (x), (y)
    # would give member 3 as (x*y), where the partition sum has x^3 too
    with pytest.raises(TypeError):
        Filtration(ctx3, "truncated", {"members": (ideal(ctx3, "x"), ideal(ctx3, "y"))})
    with pytest.raises(TypeError):
        Filtration(ctx3, "bogus", {})
    with pytest.raises(TypeError):
        Filtration(ctx3, "adic")


def test_truncation_bound_only_on_truncations(ctx3, curve_symbolic):
    I = ideal(ctx3, "x", "y")
    for F in (Filtration.adic(I), curve_symbolic, Filtration.trivial_max(ctx3)):
        assert F.truncation_bound is None
        for a in (1, 3):
            assert F.truncate(a).truncation_bound == a
    assert Filtration.adic(I).truncate(2).truncate(3).truncation_bound == 3


def test_truncation_is_freed_without_the_cycle_collector(ctx3):
    # the member rule gets the filtration as an argument, so a truncation
    # whose members are cached holds no reference cycle through itself
    trunc = Filtration.adic(ideal(ctx3, "x", "y")).truncate(1)
    trunc.materialize(3)
    ref = weakref.ref(trunc)
    gc.disable()
    try:
        del trunc
        assert ref() is None
    finally:
        gc.enable()


def test_filtration_axioms_on_truncation(curve_symbolic):
    trunc = curve_symbolic.truncate(2)
    members = {n: trunc.materialize(n) for n in range(0, 5)}
    for n in range(4):
        assert members[n].contains_ideal(members[n + 1])
    for i in range(1, 3):
        for j in range(1, 3):
            prod = ideal_product(members[i], members[j])
            assert members[i + j].contains_ideal(prod)


# --- symbolic powers ----------------------------------------------------------

def test_regular_prime_symbolic_equals_ordinary(ctx3):
    p = ideal(ctx3, "x", "y")
    for n in (1, 2, 3):
        assert symbolic_power(p, n) == ideal_power(p, n)


def test_curve_second_symbolic_strictly_bigger(curve_prime):
    p2 = ideal_power(curve_prime, 2)
    s2 = symbolic_power(curve_prime, 2)
    assert s2 != p2 and s2.contains_ideal(p2)


def test_symbolic_first_power_is_ideal(curve_prime):
    assert symbolic_power(curve_prime, 1) == curve_prime


def test_symbolic_power_argument_errors(ctx3):
    with pytest.raises(ValueError):
        symbolic_power(ideal(ctx3, "x"), 0)


def test_symbolic_chain_properties(curve_symbolic):
    members = {n: curve_symbolic.materialize(n) for n in range(1, 5)}
    base_powers = {
        n: ideal_power(curve_symbolic.materialize(1), n) for n in range(1, 5)
    }
    for n in range(1, 5):
        assert members[n].contains_ideal(base_powers[n])
    for i in range(1, 3):
        for j in range(1, 3):
            prod = ideal_product(members[i], members[j])
            assert members[i + j].contains_ideal(prod)
    # members share dimension (same radical)
    dims = {krull_dim(members[n]) for n in range(1, 5)}
    assert dims == {1}


# --- Rees presentations ---------------------------------------------------------

def test_rees_kernel_two_generated(ctx3):
    pres = rees_presentation(Filtration.adic(ideal(ctx3, "x", "y")), 1)
    assert len(pres.rees_kernel.gens) == 1
    rel = pres.rees_kernel.gens[0]
    # bilinear in (x, T) and vanishes under the substitution
    ext, images = substitution_images(pres)
    assert subs(rel, images).is_zero
    assert pres.fiber_kernel.is_zero


def test_rees_kernel_principal_is_zero(ctx3):
    pres = rees_presentation(Filtration.adic(ideal(ctx3, "x^2 + y*z")), 1)
    assert pres.rees_kernel.is_zero


def test_rees_kernel_koszul(ctx3):
    pres = rees_presentation(Filtration.adic(maximal_ideal(ctx3)), 1)
    assert len(pres.rees_kernel.gb.basis) == 3
    ext, images = substitution_images(pres)
    for g in pres.rees_kernel.gb.basis:
        assert subs(g, images).is_zero


def _check_kernel_rings(pres):
    """The kernels' rings, checked against the base ring and generators."""
    names = tvar_names(pres)
    rees_ctx, fiber_ctx = pres.rees_kernel.ctx, pres.fiber_kernel.ctx
    assert rees_ctx.variables == pres.base_ctx.variables + names
    assert rees_ctx.weights == rees_weights(pres)
    assert fiber_ctx.variables == names
    assert fiber_ctx.weights == tdegree_weights(pres)[pres.base_ctx.nvars:]
    return rees_ctx, fiber_ctx


def test_rees_kernel_homogeneous_in_both_gradings(curve_symbolic):
    pres = rees_presentation(curve_symbolic.truncate(2), 2)
    rees_ctx, fiber_ctx = _check_kernel_rings(pres)
    tweights = tdegree_weights(pres)
    for g in pres.rees_kernel.gb.basis:
        assert homogeneous_under(g, tweights)                 # T-degrees
        assert homogeneous_under(g, rees_ctx.weights)         # w-degrees
    for g in pres.fiber_kernel.gb.basis:
        assert homogeneous_under(g, fiber_ctx.weights)
    ext, images = substitution_images(pres)
    for g in pres.rees_kernel.gb.basis:
        assert subs(g, images).is_zero


def test_presentation_without_generators(ctx3):
    assert [f.name for f in dataclasses.fields(ReesPresentation) if f.init] == [
        "base_ctx", "generators"
    ]
    zero = Filtration.adic(ideal(ctx3))
    pres = rees_presentation(zero, 1)
    assert pres.generators == ()
    assert pres.rees_kernel.is_zero and pres.rees_kernel.ctx.variables == ctx3.variables
    assert pres.fiber_kernel is None
    rep = analytic_spread_truncated(zero, 1)
    assert (rep.ell, rep.witness_exponent, rep.notes) == (0, None, ("zero filtration",))


def test_rees_dimension_is_dim_plus_one(ctx3, curve_prime):
    for I in (ideal(ctx3, "x", "y"), maximal_ideal(ctx3)):
        pres = rees_presentation(Filtration.adic(I), 1)
        assert krull_dim(pres.rees_kernel) == 4
    pres = rees_presentation(Filtration.adic(curve_prime), 1)
    assert krull_dim(pres.rees_kernel) == 4


def _record_basis_rings(monkeypatch):
    """The rings of the bases ``ideals`` computes from here on."""
    rings = []
    compute = ideals.groebner_basis

    def recording(gens, ctx=None):
        rings.append(ctx)
        return compute(gens, ctx)

    monkeypatch.setattr(ideals, "groebner_basis", recording)
    return rings


def test_rees_kernel_keeps_elimination_basis(monkeypatch, curve_symbolic):
    rings = _record_basis_rings(monkeypatch)
    ctx = RingContext(32003, ("x", "y", "z"))
    mono6 = ideal(ctx, *(ctx.monomial(m) for m in (
        (0, 4, 0), (1, 0, 3), (1, 2, 1), (2, 0, 2), (2, 1, 1), (3, 0, 1))))
    presentations = [
        rees_presentation(Filtration.adic(monomial_curve_prime(w)), 1)
        for w in ((3, 4, 5), (3, 4, 7), (4, 5, 6))
    ]
    presentations.append(rees_presentation(Filtration.adic(mono6), 1))
    presentations.append(rees_presentation(curve_symbolic.truncate(2), 2))
    for pres in presentations:
        rees_ctx, _ = _check_kernel_rings(pres)
        assert pres.rees_kernel.gb.basis == groebner_basis(pres.rees_kernel.gens, rees_ctx).basis
        assert rees_ctx not in rings


ORDERS = {
    "grevlex": MonomialOrder.grevlex(),
    "lex": MonomialOrder.lex(),
    "wgrevlex": MonomialOrder.weighted_grevlex((1, 3, 4, 5)),
}


def _eliminate_t(order):
    ctx = RingContext(32003, ("t", "x", "y", "z"), order, (1, 3, 4, 5))
    return ideal(ctx, "x - t^3", "y - t^4", "z - t^5"), ["t"]


def _intersect_case(order):
    ctx = RingContext(32003, ("t", "x", "y", "z"), order, (1, 3, 4, 5))
    return ideal(ctx, "x*y - t*z^2", "y^2"), ideal(ctx, "x^2 + t^3*y", "z")


def _saturate_case(order):
    ctx = RingContext(32003, ("t", "x", "y", "z"), order, (1, 3, 4, 5))
    B = ideal(ctx, "x", "t*y")
    B.gb                          # computed before the saturation, in B's ring
    return ideal(ctx, "x^2*y", "x*y*z", "y^3 - t*x*z^2"), B


ELIMINATIONS = {
    "eliminate": (ideals.eliminate, _eliminate_t),
    "intersect": (ideals.intersect, _intersect_case),
    "saturate_by_elimination": (ideals.saturate_by_elimination, _saturate_case),
}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("operation", sorted(ELIMINATIONS))
def test_elimination_results_keep_their_basis(monkeypatch, operation, order):
    run, inputs = ELIMINATIONS[operation]
    args = inputs(ORDERS[order])
    rings = _record_basis_rings(monkeypatch)
    result = run(*args)
    basis = result.gb.basis
    assert result.ctx not in rings
    monkeypatch.undo()
    assert result.gens and basis == groebner_basis(result.gens, result.ctx).basis


def test_lex_elimination_matches_naive_buchberger():
    # lex with t first eliminates t as block(t, lex) does, by another order
    A, names = _eliminate_t(MonomialOrder.lex())
    result = ideals.eliminate(A, names)
    assert result.ctx.order == MonomialOrder.lex()
    expected = tuple(
        Polynomial(result.ctx, tuple((m[1:], c) for m, c in g.terms))
        for g in naive_buchberger(A.gens, A.ctx)
        if not g.lm()[0]
    )
    assert result.gb.basis == expected


CURVES = ((3, 4, 5), (3, 4, 7), (3, 5, 7), (3, 5, 8), (4, 5, 6), (4, 6, 7), (5, 6, 7))


def _presentations():
    """Rees presentations of curve primes, two symbolic truncations, a
    six-monomial ideal and an inhomogeneous ideal, with their inputs."""
    ctx = RingContext(32003, ("x", "y", "z"))
    mono6 = ideal(ctx, *(ctx.monomial(m) for m in (
        (0, 4, 0), (1, 0, 3), (1, 2, 1), (2, 0, 2), (2, 1, 1), (3, 0, 1))))
    cases = [(Filtration.adic(monomial_curve_prime(w)), 1) for w in CURVES]
    cases.append((Filtration.symbolic(monomial_curve_prime((3, 4, 5))), 2))
    cases.append((Filtration.symbolic(monomial_curve_prime((3, 4, 7))), 2))
    cases.append((Filtration.adic(mono6), 1))
    cases.append((Filtration.adic(ideal(ctx, "x^2 + y", "y*z - z^3", "x*z")), 1))
    return [(F, a, rees_presentation(F, a)) for F, a in cases]


def test_fiber_variables_in_degree_order():
    for F, a, pres in _presentations():
        ctx = F.ctx
        seen = [
            (n, max(sum(e * w for e, w in zip(m, ctx.weights)) for m, _ in g.terms),
             ctx.key(g.lm()))
            for _, n, g in pres.generators
        ]
        assert seen == sorted(seen) and len(set(seen)) == len(seen)
        # numbered T{n}_1@, T{n}_2@, ... within each n
        count = dict.fromkeys(range(1, a + 1), 0)
        for name, n, _ in pres.generators:
            count[n] += 1
            assert name == f"T{n}_{count[n]}@"
        assert pres.base_ctx is ctx
        _check_kernel_rings(pres)


def test_chosen_generators_are_the_greedy_walk():
    for F, a, pres in _presentations():
        walk = greedy_generator_walk(F, a)
        assert sorted((n, g.terms) for _, n, g in pres.generators) == sorted(
            (n, g.terms) for n, g in walk
        )
    # the walk keeps a generator that the two before it in weighted
    # degree would produce, so these curves keep three fiber variables
    for w in ((3, 4, 7), (3, 5, 8), (4, 6, 7)):
        pres = rees_presentation(Filtration.adic(monomial_curve_prime(w)), 1)
        assert len(pres.generators) == 3


def _walk_cases():
    """(filtration, a, kept per level) for walks that reject candidates."""
    ctx = RingContext(32003, ("x", "y", "z"))
    inhomogeneous = ideal(ctx, "x^2 + y", "y*z - z^3", "x*z")
    sym = {w: Filtration.symbolic(monomial_curve_prime(w)) for w in ((3, 4, 7), (4, 5, 7))}
    return [
        # one of the prime's four basis elements is generated by the others
        (Filtration.adic(monomial_curve_prime((3, 5, 8))), 1, [3]),
        # lower products reject whole levels
        (sym[(3, 4, 7)].truncate(2), 2, [3, 0]),
        (sym[(3, 4, 7)].truncate(3), 3, [3, 0, 0]),
        (sym[(4, 5, 7)].truncate(3), 3, [3, 1, 1]),
        (Filtration.adic(inhomogeneous), 1, [len(inhomogeneous.gb.basis)]),
        (Filtration.symbolic(monomial_curve_prime((3, 4, 5), p=2**61 - 1)).truncate(2), 2, [3, 1]),
    ]


def test_generator_walk_is_one_engine_run(monkeypatch):
    rejected = []
    for F, a, per_level in _walk_cases():
        for n in range(1, a + 1):
            F.materialize(n).gb          # the members and their bases come first
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real)
                return real(*args, **kwargs)
            return wrapper

        for module in (groebner, ideals):
            monkeypatch.setattr(module, "groebner_basis", counting(module.groebner_basis))
        monkeypatch.setattr(ideals.Ideal, "contains", counting(ideals.Ideal.contains))
        chosen = filtrations._chosen_generators(F, a)
        monkeypatch.undo()
        assert calls == []
        walk = greedy_generator_walk(F, a)
        assert [(n, g.terms) for n, g in chosen] == [(n, g.terms) for n, g in walk]
        assert [sum(n == k for n, _ in chosen) for k in range(1, a + 1)] == per_level
        rejected.append(sum(per_level) < sum(len(F.materialize(n).gb.basis) for n in range(1, a + 1)))
    # every walk but the inhomogeneous ideal's rejects a candidate
    assert rejected == [True] * 4 + [False, True]


def test_rees_relations_homogeneous_for_elimination_weights(monkeypatch):
    # T{n}_j weighs wdeg(f) + n in the ring that eliminates t, so the
    # engine sees homogeneous input and its sugar is the lcm's degree
    handed = []
    compute = ideals.groebner_basis

    def recording(gens, ctx=None):
        gens = list(gens)
        # the Rees eliminations, not those that make the curve primes
        if ctx.variables[0] == "t@" and "T1_1@" in ctx.variables:
            handed.append((gens, ctx))
        return compute(gens, ctx)

    monkeypatch.setattr(ideals, "groebner_basis", recording)
    for _, _, pres in _presentations():
        pres.rees_kernel                 # the elimination runs on the first read
    assert len(handed) == len(CURVES) + 4
    *graded, (inhomogeneous, _) = handed
    for gens, _ in graded:
        assert all(weighted_degree(g) is not None for g in gens)
    assert any(weighted_degree(g) is None for g in inhomogeneous)


def test_rees_kernel_vanishes_under_substitution():
    for F, a, pres in _presentations():
        assert not pres.rees_kernel.is_zero
        _, images = substitution_images(pres)
        for g in pres.rees_kernel.gb.basis:
            assert subs(g, images).is_zero, (F, a, str(g))


def test_substitution_images_beside_a_base_variable_named_t():
    ctx = RingContext(32003, ("t", "x", "y"))
    pres = rees_presentation(Filtration.adic(ideal(ctx, "t^2", "x*y", "y^2")), 1)
    ext, images = substitution_images(pres)
    assert ext.variables == ("t@", "t", "x", "y")
    assert not pres.rees_kernel.is_zero
    for g in pres.rees_kernel.gb.basis:
        assert subs(g, images).is_zero, str(g)


def test_paper_scale_symbolic_cube_and_truncation():
    # ell of the third symbolic power of the (3, 4, 5) prime
    P = monomial_curve_prime((3, 4, 5))
    report = analytic_spread(symbolic_power(P, 3))
    assert report.ell == 3 and len(report.presentation.generators) == 6
    # the (4, 5, 7) symbolic algebra truncated at a = 3
    report = analytic_spread_truncated(Filtration.symbolic(monomial_curve_prime((4, 5, 7))), 3)
    assert report.ell == 2 and report.witness_exponent == 3
    assert len(report.presentation.generators) == 5


# (k, l) of the first pair the Huneke search finds, per curve
HUNEKE_PAIRS = {
    (3, 4, 7): (1, 1), (3, 5, 8): (1, 1), (4, 5, 6): (1, 1), (4, 6, 7): (1, 1),
    (3, 4, 5): (1, 2), (3, 5, 7): (1, 2), (5, 6, 7): (1, 2), (4, 5, 7): (1, 3),
}


@pytest.mark.parametrize("weights", list(HUNEKE_PAIRS))
def test_huneke_pair_bounds_the_spreads(weights):
    """The Noetherian side of the dichotomy: f in p^(k) and g in p^(l)
    with length(R/(f, g, x)) = k * l * length(R/(p, x)) make the
    symbolic algebra Noetherian (Huneke, Michigan Math. J. 34, 1987),
    and then p^(kl) and the truncation of the symbolic filtration at
    kl have analytic spread at most 2."""
    P = monomial_curve_prime(weights)
    assert colength(ideal(P.ctx, *P.gens, "x")) == weights[0]
    k, l, _, _ = huneke_pair(P, "x")
    assert (k, l) == HUNEKE_PAIRS[weights]
    assert analytic_spread(symbolic_power(P, k * l)).ell <= 2
    assert analytic_spread_truncated(Filtration.symbolic(P), k * l).ell <= 2


# --- analytic spread -------------------------------------------------------------

def test_spread_regular_prime(ctx3):
    rep = analytic_spread(ideal(ctx3, "x", "y"))
    assert rep.ell == 2 and rep.ht == 2 and rep.bounds_ok


def test_spread_maximal(ctx3):
    assert analytic_spread(maximal_ideal(ctx3)).ell == 3


def test_spread_mixed_powers(ctx3):
    assert analytic_spread(ideal(ctx3, "x^2", "y^3", "z^5")).ell == 3


def test_spread_report_frozen_and_memo_hit_unchanged(ctx3):
    rep = analytic_spread(ideal(ctx3, "x^2", "x*y", "y^3"))
    before = (rep.ell, rep.ring_dim, rep.ht, rep.bounds_ok, rep.notes)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.ell = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.presentation.generators = ()
    again = analytic_spread(ideal(ctx3, "y^3", "x*y", "x^2"))
    assert again is rep
    assert (again.ell, again.ring_dim, again.ht, again.bounds_ok, again.notes) == before
    assert again.presentation.generators


def test_spread_rejects_inhomogeneous(ctx3):
    with pytest.raises(HomogeneityError):
        analytic_spread(ideal(ctx3, "x + y^2"))


def test_spread_validates_the_ideal_not_its_generators(ctx3):
    # (x + y^2, y^2) = (x, y^2) is homogeneous though one generator is
    # not: it is answered whichever generators the memo saw first
    mixed, graded = ideal(ctx3, "x + y^2", "y^2"), ideal(ctx3, "x", "y^2")
    for first, second in ((mixed, graded), (graded, mixed)):
        filtrations.analytic_spread.cache_clear()
        rep = analytic_spread(first)
        assert analytic_spread(second) is rep
        assert (rep.ell, rep.ht, rep.bounds) == (2, 2, (2, 2))
    # a refusal is not memoized
    for _ in range(2):
        with pytest.raises(HomogeneityError):
            analytic_spread(ideal(ctx3, "x + y^2"))


def test_spread_zero_ideal(ctx3):
    rep = analytic_spread(ideal(ctx3, []))
    assert rep.ell == 0 and rep.bounds_ok


def test_spread_unit_rejected(ctx3):
    with pytest.raises(ValueError):
        analytic_spread(ideal(ctx3, "1"))


def test_truncated_spread_regular_prime(ctx3):
    F = Filtration.symbolic(ideal(ctx3, "x", "y"))
    for a in (1, 2):
        rep = analytic_spread_truncated(F, a)
        assert rep.ell == 2
        assert rep.witness_exponent is not None


def test_truncated_spread_a1_equals_adic(curve_prime, curve_symbolic):
    rep = analytic_spread_truncated(curve_symbolic, 1)
    assert rep.ell == analytic_spread(curve_prime).ell


def test_trivial_max_truncations_have_full_spread(ctx3):
    F = Filtration.trivial_max(ctx3)
    for a in (1, 2):
        rep = analytic_spread_truncated(F, a)
        assert rep.ell == 3
        assert rep.witness_exponent == 1


# curve truncations whose kept generators all lie in degree 1
DEGREE_ONE_TRUNCATIONS = [(w, 1) for w in CURVES] + [
    (w, a) for a in (2, 3) for w in ((3, 4, 7), (3, 5, 8), (4, 5, 6), (4, 6, 7))
]


@pytest.mark.parametrize("weights, a", DEGREE_ONE_TRUNCATIONS)
def test_truncation_presented_by_I1_has_its_spread(monkeypatch, rees_eliminations, weights, a):
    filtrations.analytic_spread.cache_clear()
    F = Filtration.symbolic(monomial_curve_prime(weights))
    rings = rees_eliminations()
    rep = analytic_spread_truncated(F, a)
    # past a = 1 no Rees ring is eliminated: the bounds (2, 2) of the four
    # curves' primes settle the spread of I_1
    assert a == 1 or rings == []
    # the only elimination is I_1's own, when its bounds do not meet
    lower, upper = rep.bounds
    assert len(rings) == (lower < upper)
    assert {n for _, n, _ in rep.presentation.generators} == {1}
    monkeypatch.undo()
    assert rep == dataclasses.replace(
        analytic_spread(F.materialize(1)), witness_exponent=1, witness_bound=3 * a
    )
    # the truncation's own fiber kernel is the reference
    assert rep.ell == krull_dim(rees_presentation(F.truncate(a), a).fiber_kernel)


def test_first_truncation_is_answered_by_the_spread_of_I1(ctx3, curve_prime, curve_symbolic):
    alone = analytic_spread(curve_prime)
    rep = analytic_spread_truncated(curve_symbolic, 1)
    assert rep == dataclasses.replace(alone, witness_exponent=1, witness_bound=3)
    assert rep.presentation is alone.presentation
    # a zero I_1 keeps the zero-filtration report
    zero = analytic_spread_truncated(Filtration(ctx3, lambda F, n: ideal(ctx3, [])), 1)
    assert (zero.ell, zero.witness_exponent, zero.notes) == (0, None, ("zero filtration",))


def test_truncated_spread_rejects_an_inhomogeneous_higher_member(ctx3):
    I1 = ideal(ctx3, "x", "y")
    I2 = ideal(ctx3, "x^2", "x*y", "y^2", "x + y*z")
    F = Filtration(ctx3, lambda F, n: I1 if n == 1 else I2)
    with pytest.raises(HomogeneityError):
        analytic_spread_truncated(F, 2)
    with pytest.raises(HomogeneityError):
        analytic_spread_truncated(F.truncate(2), 2)
    assert analytic_spread_truncated(F, 1).ell == 2


def test_truncation_with_a_degree_two_generator_searches_for_its_witness(count_calls):
    spreads = count_calls(filtrations, "analytic_spread")
    rep = analytic_spread_truncated(Filtration.symbolic(monomial_curve_prime((3, 4, 5))), 2)
    assert [n for _, n, _ in rep.presentation.generators] == [1, 1, 1, 2]
    # ell(I_1) = 3 misses the truncation's 2; ell(I_2) meets it
    assert (rep.ell, rep.witness_exponent, len(spreads)) == (2, 2, 2)


@pytest.mark.parametrize("weights", [(3, 4, 5), (3, 4, 7)])
def test_probe_first_symbolic_spread_is_that_of_I(weights):
    report = finite_generation_probe(monomial_curve_prime(weights), a_max=1, n_max=2)
    assert report["symbolic_power_spreads"] == {1: analytic_spread(monomial_curve_prime(weights)).ell}


# ell(p^(n)) for n = 1, 2, 3, then (ell, witness exponent) of the truncations
# at a = 2, 3, over F_32003; the (5, 6, 7) cube and its a = 3 truncation take
# minutes and are left out
PAPER_SCALE_SPREADS = {
    (3, 4, 5): ((3, 2, 3), ((2, 2), (2, 2))),
    (3, 4, 7): ((2, 2, 2), ((2, 1), (2, 1))),
    (3, 5, 7): ((3, 2, 3), ((2, 2), (2, 2))),
    (3, 5, 8): ((2, 2, 2), ((2, 1), (2, 1))),
    (4, 5, 6): ((2, 2, 2), ((2, 1), (2, 1))),
    (4, 6, 7): ((2, 2, 2), ((2, 1), (2, 1))),
    (5, 6, 7): ((3, 2), ((2, 2),)),
    (4, 5, 7): ((3, 3, 2), ((3, 1), (2, 3))),
}


@pytest.mark.parametrize("weights", PAPER_SCALE_SPREADS)
def test_paper_scale_spreads_of_curve_primes(weights):
    powers, truncations = PAPER_SCALE_SPREADS[weights]
    F = Filtration.symbolic(monomial_curve_prime(weights))
    got = tuple(analytic_spread(F.materialize(n)).ell for n in range(1, len(powers) + 1))
    assert got == powers
    reports = [analytic_spread_truncated(F, a) for a in range(2, len(truncations) + 2)]
    assert tuple((rep.ell, rep.witness_exponent) for rep in reports) == truncations


# --- equimultiplicity --------------------------------------------------------------

def test_equimultiple_regular_prime(ctx3):
    rep = equimultiple_check(ideal(ctx3, "x", "y"))
    assert (rep.equimultiple, rep.ht, rep.ell) == (True, 2, 2)


def test_not_equimultiple(ctx2):
    rep = equimultiple_check(ideal(ctx2, "x^2", "x*y"))
    assert (rep.equimultiple, rep.ht, rep.ell) == (False, 1, 2)


def test_m_primary_always_equimultiple(ctx3):
    rep = equimultiple_check(ideal(ctx3, "x^2", "y^3", "z^5"))
    assert rep.equimultiple and rep.ht == 3 == rep.ell


# --- nilpotency witnesses ------------------------------------------------------------

def test_witness_trivial_max(ctx3):
    F = Filtration.trivial_max(ctx3)
    assert fiber_nilpotency_witness(F, 1, ctx3.var("x"), 4) == 2


def test_witness_none_for_adic_regular_prime(ctx3):
    F = Filtration.adic(ideal(ctx3, "x", "y"))
    assert fiber_nilpotency_witness(F, 1, ctx3.var("x"), 5) is None


def test_witness_zero_element(ctx3):
    F = Filtration.adic(ideal(ctx3, "x", "y"))
    assert fiber_nilpotency_witness(F, 1, ctx3.zero(), 4) == 1


def test_witness_membership_precondition(ctx3):
    F = Filtration.adic(ideal(ctx3, "x", "y"))
    with pytest.raises(ValueError):
        fiber_nilpotency_witness(F, 1, ctx3.var("z"), 4)
    with pytest.raises(ValueError):
        fiber_nilpotency_witness(F, 1, ctx3.var("x"), 0)


@pytest.mark.parametrize("n", (0, -1))
def test_witness_refuses_a_level_below_one(ctx3, n):
    # I_0 is the unit ideal, which is no member of the filtration
    F = Filtration.trivial_max(ctx3)
    with pytest.raises(ValueError, match=f"filtration level must be at least 1, got {n}"):
        fiber_nilpotency_witness(F, n, ctx3.var("x"), 3)


def test_sp0_dichotomy_small_sweep(ctx3):
    trivial = Filtration.trivial_max(ctx3)
    adic = Filtration.adic(ideal(ctx3, "x", "y"))
    for n in (1, 2):
        for g in maximal_ideal(ctx3).gens:
            assert fiber_nilpotency_witness(trivial, n, g, 4) is not None
    for g in (ctx3.var("x"), ctx3.var("y")):
        assert fiber_nilpotency_witness(adic, 1, g, 4) is None


# --- finite generation probe -----------------------------------------------------------

def test_probe_regular_prime(ctx3):
    report = finite_generation_probe(ideal(ctx3, "x", "y"), a_max=2, n_max=3)
    assert report["generated_in_degrees_at_most"] == 1
    assert report["truncation_matches_symbolic"] == {1: True, 2: True}
    assert set(report["truncation_spreads"].values()) == {2}
    assert report["some_truncation_spread_below_dim"]
    assert not report["all_truncation_spreads_equal_dim"]
    assert set(report["symbolic_power_spreads"].values()) == {2}
    assert report["label"] == "evidence up to bound a = 2"


def test_probe_argument_errors(ctx3):
    with pytest.raises(ValueError):
        finite_generation_probe(ideal(ctx3, "x"), a_max=0)
    with pytest.raises(ValueError):
        finite_generation_probe(ideal(ctx3, "x"), a_max=3, n_max=2)


# --- bound properties ------------------------------------------------------------------

def test_spread_bounds_on_assorted_ideals(ctx3, ctx2):
    samples = [
        ideal(ctx3, "x", "y"),
        ideal(ctx3, "x^2", "x*y", "y^2"),
        ideal(ctx3, "x*y", "y*z", "x*z"),
        ideal(ctx2, "x^3", "x*y"),
        ideal(ctx2, "x^2 + y^2"),
    ]
    for I in samples:
        rep = analytic_spread(I)
        assert rep.ht <= rep.ell <= I.ctx.nvars
        assert rep.bounds_ok
