"""Acceptance suite: one test per criterion, one printed verdict line each.

Exact desk-scale checks plus seeded property sweeps; fat-point criteria
rerun over three independent seeds and demand unanimity.
"""

import itertools
import random

from spreadlab import (
    Filtration,
    Ideal,
    RingContext,
    analytic_spread,
    analytic_spread_truncated,
    equimultiple_check,
    fiber_generator_census,
    fiber_nilpotency_witness,
    finite_generation_probe,
    graded_power_containment,
    groebner_basis,
    h0 as fat_h0,
    ideal,
    ideal_power,
    ideal_product,
    is_max_ideal_associated,
    krull_dim,
    maximal_ideal,
    monomial_integral_closure,
    mult_map_surjective,
    sample_scheme,
    saturate,
    saturate_by_elimination,
)

from oracles import brute_force_dim, naive_buchberger, saturation_index_by_colon

NAGATA_SEEDS = (42, 43, 44)
ELLIPTIC_SEEDS = (7, 8, 9)


def _verdict(number, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {tag}{suffix}")
    assert ok


# -- 1 ------------------------------------------------------------------------

def test_criterion_1_regular_prime_spread(ctx3):
    rep = equimultiple_check(ideal(ctx3, "x", "y"))
    ok = rep.ell == 2 and rep.equimultiple
    _verdict(1, ok, f"ell={rep.ell}, equimultiple={rep.equimultiple}")


# -- 2 ------------------------------------------------------------------------

def test_criterion_2_m_primary_spreads(ctx3):
    ell1 = analytic_spread(maximal_ideal(ctx3)).ell
    ell2 = analytic_spread(ideal(ctx3, "x^2", "y^3", "z^5")).ell
    ok = ell1 == 3 and ell2 == 3
    _verdict(2, ok, f"ell(x,y,z)={ell1}, ell(x^2,y^3,z^5)={ell2}")


# -- 3 ------------------------------------------------------------------------

def _monomials_of_weighted_degree(nvars, weights, degree):
    out = []
    bounds = [degree // w for w in weights]
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        if sum(e * w for e, w in zip(exps, weights)) == degree:
            out.append(exps)
    return out


def _random_homogeneous_ideal(rng):
    nvars = rng.choice((2, 3))
    names = ("x", "y", "z")[:nvars]
    weights = tuple(rng.choice((1, 1, 2, 3)) for _ in range(nvars))
    ctx = RingContext(32003, names, weights=weights)
    gens = []
    for _ in range(rng.randrange(1, 4)):
        for _ in range(6):
            degree = rng.randrange(2, 9)
            monos = _monomials_of_weighted_degree(nvars, weights, degree)
            monos = [m for m in monos if any(m)]
            if monos:
                break
        else:
            continue
        f = ctx.zero()
        for _ in range(rng.randrange(1, 4)):
            f = f + ctx.monomial(rng.choice(monos), rng.randrange(1, 32003))
        if not f.is_zero:
            gens.append(f)
    if not gens:
        return None
    I = Ideal(ctx, gens)
    if I.is_zero or I.is_unit:
        return None
    return I


def test_criterion_3_bound_suite():
    rng = random.Random(2024)
    checked = 0
    failures = []
    while checked < 50:
        I = _random_homogeneous_ideal(rng)
        if I is None:
            continue
        rep = analytic_spread(I)
        n = I.ctx.nvars
        if not (rep.ht <= rep.ell <= n):
            failures.append((I, rep.ht, rep.ell))
        checked += 1
    _verdict(3, not failures, f"{checked} random weighted-homogeneous ideals")


# -- 4 ------------------------------------------------------------------------

def test_criterion_4_trivial_max_dichotomy(ctx3):
    F = Filtration.trivial_max(ctx3)
    witnesses_ok = True
    for n in (1, 2, 3):
        for g in maximal_ideal(ctx3).gens:
            if fiber_nilpotency_witness(F, n, g, 4) is None:
                witnesses_ok = False
    spreads = [analytic_spread_truncated(F, a).ell for a in (1, 2, 3)]
    ok = witnesses_ok and spreads == [3, 3, 3]
    _verdict(4, ok, f"witnesses_ok={witnesses_ok}, truncation spreads={spreads}")


# -- 5 ------------------------------------------------------------------------

def test_criterion_5_space_curve(curve_ctx, curve_prime, curve_symbolic):
    m_ideal = maximal_ideal(curve_ctx)

    p2 = ideal_power(curve_prime, 2)
    s2, index = saturate(p2, m_ideal)
    strict_growth = (s2 != p2) and s2.contains_ideal(p2) and index >= 1
    assoc = is_max_ideal_associated(p2)

    chain_ok = True
    members = {n: curve_symbolic.materialize(n) for n in range(1, 7)}
    for i in range(1, 6):
        for j in range(1, 7 - i):
            prod = ideal_product(members[i], members[j])
            if not members[i + j].contains_ideal(prod):
                chain_ok = False

    report = finite_generation_probe(curve_prime, a_max=4, n_max=6)
    stabilized = report["generated_in_degrees_at_most"]
    spreads = report["truncation_spreads"]
    witnesses = report["truncation_spread_witness"]
    probe_ok = (
        stabilized is not None
        and stabilized <= 4
        and all(v <= 3 for v in spreads.values())
        and all(witnesses[a] is not None for a in spreads)
    )
    ok = strict_growth and assoc and chain_ok and probe_ok
    _verdict(
        5,
        ok,
        f"sat grows={strict_growth}, assoc={assoc}, chain={chain_ok}, "
        f"stabilized at a={stabilized}, spreads={spreads}",
    )


# -- 6 ------------------------------------------------------------------------

def test_criterion_6_monomial_ass_test(ctx2):
    # (x^2, xy): the maximal ideal is associated to the closure of a power
    A = ideal(ctx2, "x^2", "x*y")
    assoc_somewhere = any(
        is_max_ideal_associated(monomial_integral_closure(ideal_power(A, n)))
        for n in (1, 2, 3)
    )
    repA = analytic_spread(A)
    part1 = assoc_somewhere and repA.ell == 2 == ctx2.nvars

    # (x): equimultiple, no power's closure picks up the maximal ideal
    B = ideal(ctx2, "x")
    assoc_never = not any(
        is_max_ideal_associated(monomial_integral_closure(ideal_power(B, n)))
        for n in (1, 2, 3)
    )
    repB = equimultiple_check(B)
    part2 = assoc_never and repB.equimultiple
    ok = part1 and part2
    _verdict(6, ok, f"(x^2,xy): ell={repA.ell}; (x): equimultiple={repB.equimultiple}")


# -- 7 ------------------------------------------------------------------------

def test_criterion_7_nagata_configuration():
    all_ok = True
    details = []
    for seed in NAGATA_SEEDS:
        scheme = sample_scheme(16, 1, "none", seed=seed)
        vanishing = all(fat_h0(scheme, 4 * m, m) == 0 for m in (1, 2, 3))
        surjective = all(
            mult_map_surjective(scheme, 4 * m + 4, m).surjective for m in (1, 2)
        )
        contain = graded_power_containment(scheme, 1, 4, 24)
        contained = (not contain["empty"]) and all(
            row["contained"] for row in contain["degrees"].values()
        )
        all_ok = all_ok and vanishing and surjective and contained
        details.append(f"seed {seed}: h0={vanishing}, mult={surjective}, contain={contained}")
    _verdict(7, all_ok, "; ".join(details))


# -- 8 ------------------------------------------------------------------------

def test_criterion_8_elliptic_configuration():
    all_ok = True
    details = []
    for seed in ELLIPTIC_SEEDS:
        scheme = sample_scheme(12, 1, "elliptic", seed=seed)
        ladder = all(
            fat_h0(scheme, 3 * m, m) == 1
            and all(fat_h0(scheme, d, m) == 0 for d in range(3 * m))
            for m in (1, 2, 3)
        )
        quartics = fat_h0(scheme, 4, 1) == 3
        surjective = all(
            mult_map_surjective(scheme, 4 * m + 4, m).surjective for m in (1, 2)
        )
        census = fiber_generator_census(scheme, 2, 8)
        survivors_ok = census["survivors"] == [(1, 3), (2, 6)]
        all_ok = all_ok and ladder and quartics and surjective and survivors_ok
        details.append(f"seed {seed}: ladder={ladder}, h0(4,1)ok={quartics}, "
                       f"mult={surjective}, census={census['survivors']}")
    nagata_ok = True
    for seed in NAGATA_SEEDS:
        scheme = sample_scheme(16, 1, "none", seed=seed)
        census = fiber_generator_census(scheme, 2, 8)
        nagata_ok = nagata_ok and census["survivors"] == []
    all_ok = all_ok and nagata_ok
    details.append(f"nagata censuses empty={nagata_ok}")
    _verdict(8, all_ok, "; ".join(details))


# -- 9 ------------------------------------------------------------------------

def test_criterion_9_oracle_equivalences(ctx2, ctx3):
    rng = random.Random(4096)

    gb_ok = True
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            f = ctx2.zero()
            for _ in range(rng.randrange(1, 4)):
                f = f + ctx2.monomial(
                    (rng.randrange(4), rng.randrange(4)), rng.randrange(1, 32003)
                )
            gens.append(f)
        if naive_buchberger(gens, ctx2) != tuple(groebner_basis(gens, ctx2).basis):
            gb_ok = False

    dim_ok = True
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        ctx = RingContext(32003, tuple(f"x{i}" for i in range(n)))
        monos = [
            tuple(rng.randrange(3) for _ in range(n))
            for _ in range(rng.randrange(1, 5))
        ]
        monos = [m for m in monos if any(m)]
        if not monos:
            continue
        A = Ideal(ctx, [ctx.monomial(m) for m in monos])
        if krull_dim(A) != brute_force_dim(monos, n):
            dim_ok = False

    sat_ok = True
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            f = ctx2.zero()
            for _ in range(rng.randrange(1, 3)):
                f = f + ctx2.monomial(
                    (rng.randrange(3), rng.randrange(3)), rng.randrange(1, 32003)
                )
            if not f.is_zero and f.constant_value() is None:
                gens.append(f)
        if not gens:
            continue
        A = Ideal(ctx2, gens)
        B = maximal_ideal(ctx2)
        via_colon, index = saturate(A, B)
        via_elim = saturate_by_elimination(A, B)
        if via_colon != via_elim or index != saturation_index_by_colon(A, B):
            sat_ok = False

    ok = gb_ok and dim_ok and sat_ok
    _verdict(9, ok, f"gb={gb_ok}, dim={dim_ok}, saturation={sat_ok}")
