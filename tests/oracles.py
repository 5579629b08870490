"""Independent reference implementations used to validate the engine.

These deliberately avoid the production code paths: the Buchberger
oracle runs the naive all-pairs algorithm with no selection strategy
and no criteria, and the dimension oracle enumerates every variable
subset.  Both operate on the public Polynomial API only.  The fat-point
and linear-algebra oracles use plain Python integers: condition rows by
dict expansion along an arbitrary local frame, Gauss-Jordan elimination,
roots of a univariate polynomial by evaluation at every element, and
smoothness of a plane cubic by saturating its Jacobian ideal.
The certified-reduction reference compares reduced Groebner bases of
J*I + m*I^2 and I^2 where the engine compares ranks modulo m*I^2; the
full-range residue reference reduces every product g_i g_k of the
reduced basis modulo m*I^2, through every degree up to the highest
product's, where the engine first drops the basis elements in m*I; and
the exponent rank is the closed-form analytic spread of an
equigenerated monomial ideal.  The text-syntax oracle builds every
factor, product and sum of a polynomial through Polynomial arithmetic,
and the division and substitution references do the same: exact
division by repeated lead-term subtraction, and the images of a Rees
presentation's variables substituted term by term.
The generator-walk reference keeps, member by member, each reduced
basis element that the products of lower members and the elements kept
before it do not generate.  The partition reference builds a truncation
member as the sum of the products over every partition of its degree,
the definition, which needs no filtration property.  The saturation-index reference is the
definition of the index: it counts colon steps A : B, (A : B) : B, ...
until the result repeats.  The containment reference builds every
product span up to the top degree, one factor at a time, before it
looks at any multiplication map, and the dimension reference
eliminates every degree it is asked about, where the library reads
dimensions and surjectivity off the Hilbert function once the
conditions are independent.  The census reference multiplies out
every s-fold self-product of a piece and reduces it against the
variable multiples by Gauss-Jordan elimination.  The Huneke search looks for the
length condition of Huneke's criterion (Michigan Math. J. 34, 1987)
among pairs of reduced-basis elements of symbolic powers, each length
counted as the standard monomials of one Groebner basis.

Two shared builders are not oracles: the prime of a monomial space curve,
by the library's elimination, and the monomials of one weighted degree.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from spreadlab import (
    Ideal,
    Polynomial,
    RingContext,
    eliminate,
    ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_ideal,
    quotient,
    saturate,
    symbolic_power,
)
from spreadlab.fatpoints import (
    _all_pair_products,
    _condition_matrix,
    _frame_axes,
    _variable_multiples,
    linear_system,
)
from spreadlab.filtrations import _insert_row, _shift, _subtract
from spreadlab.linalg import nullspace_modp, rank_modp, reduce_rows, rref_modp, span_rows
from spreadlab.ring import _tokenize, mono_divides, mono_wdeg, weighted_degree


def monomial_curve_prime(weights, p=32003):
    """The prime of the curve (t^a, t^b, t^c) for weights (a, b, c), in
    x, y, z of those weights, eliminated from k[t, x, y, z]."""
    ctx = RingContext(p, ("t", "x", "y", "z"), weights=(1,) + tuple(weights))
    return eliminate(ideal(ctx, *(f"{v} - t^{e}" for v, e in zip("xyz", weights))), ["t"])


def weighted_monomials(d, weights):
    """Exponent tuples of weighted degree d, in itertools.product order."""
    return [
        m for m in itertools.product(*(range(d // w + 1) for w in weights))
        if sum(a * w for a, w in zip(m, weights)) == d
    ]


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def poly_lead_reduce(f, basis):
    """Plain repeated reduction using only Polynomial arithmetic."""
    ctx = f.ctx
    remainder = ctx.zero()
    while not f.is_zero:
        lm, lc = f.lm(), f.lc()
        hit = None
        for g in basis:
            if mono_divides(g.lm(), lm):
                hit = g
                break
        if hit is None:
            head = ctx.monomial(lm, lc)
            remainder = remainder + head
            f = f - head
            continue
        q = ctx.monomial(mono_div(lm, hit.lm()), lc * pow(hit.lc(), -1, ctx.p))
        f = f - q * hit
    return remainder


def divide_by_lead_terms(f, b):
    """Exact division f / b by repeated lead-term subtraction in Polynomial
    arithmetic; ValueError if b does not divide f."""
    ctx = f.ctx
    q = ctx.zero()
    r = f
    binv = pow(b.lc(), -1, ctx.p)
    while not r.is_zero:
        lm_r, lc_r = r.lm(), r.lc()
        if not mono_divides(b.lm(), lm_r):
            raise ValueError("inexact polynomial division")
        qterm = ctx.monomial(mono_div(lm_r, b.lm()), lc_r * binv)
        q = q + qterm
        r = r - qterm * b
    return q


def subs(f, values):
    """Substitute polynomials (or ints) for variables of f, keeping the rest."""
    target = next((v.ctx for v in values.values() if isinstance(v, Polynomial)), f.ctx)
    images = []
    for name in f.ctx.variables:
        v = values.get(name)
        if v is None:
            images.append(target.var(name))
        else:
            images.append(target.const(v) if isinstance(v, int) else v)
    out = target.zero()
    for m, c in f.terms:
        term = target.const(c)
        for image, e in zip(images, m):
            term = term * image ** e
        out = out + term
    return out


def tvar_names(pres):
    """The fiber variables of a Rees presentation, in generator order."""
    return tuple(name for name, _, _ in pres.generators)


def tdegree_weights(pres):
    """Grading with base variables in degree 0 and T{n}_j in degree n."""
    return (0,) * pres.base_ctx.nvars + tuple(deg for _, deg, _ in pres.generators)


def rees_weights(pres):
    """Weights of the ring of a Rees kernel: the base weights, then for
    each T{n}_j the largest weighted degree of a term of its generator."""
    base = pres.base_ctx
    top = (max(mono_wdeg(m, base.weights) for m, _ in g.terms) for _, _, g in pres.generators)
    return base.weights + tuple(top)


def rees_relations(pres):
    """The relations T{n}_j - f t^n of a Rees presentation, built from its
    base ring and generators alone.

    They live in a ring with ``t@`` first, then the base and fiber
    variables, where t@ weighs 1 and T{n}_j weighs n more than in
    ``rees_weights``; f is lifted term by term.
    """
    base, names = pres.base_ctx, tvar_names(pres)
    degrees = tuple(n for _, n, _ in pres.generators)
    top = rees_weights(pres)[base.nvars:]
    ring = RingContext(
        base.p, ("t@",) + base.variables + names,
        weights=(1,) + base.weights + tuple(w + n for w, n in zip(top, degrees)),
    )
    t, pad = ring.var("t@"), (0,) * len(names)

    def lift(g):
        return sum((ring.monomial((0,) + m + pad, c) for m, c in g.terms), ring.zero())

    return [ring.var(name) - lift(g) * t ** n for name, n, g in pres.generators]


def homogeneous_under(g, weights):
    """Whether every term of g has the same degree under the weight vector."""
    return len({mono_wdeg(m, weights) for m, _ in g.terms}) == 1


def substitution_images(pres):
    """Map of a Rees presentation's variables to their images f * t^n.

    The images live in the base ring extended by one variable named
    ``t@``, so a base variable named t does not clash; substituting them
    into any element of the Rees kernel must give 0.
    """
    base = pres.base_ctx
    ext = RingContext(base.p, ("t@",) + base.variables, weights=(1,) + base.weights)
    tvar = ext.var("t@")

    def lift(g):
        return sum((ext.monomial((0,) + m, c) for m, c in g.terms), ext.zero())

    images = {name: lift(gen) * tvar ** degree for name, degree, gen in pres.generators}
    for v in base.variables:
        images[v] = ext.var(v)
    return ext, images


def naive_buchberger(gens, ctx):
    """All-pairs Buchberger without criteria, then interreduction.

    Returns the reduced basis as a tuple of monic polynomials sorted by
    leading monomial, which must coincide with the engine's output.
    """
    basis = [g.monic() for g in gens if not g.is_zero]
    if not basis:
        return ()
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        lcm = mono_lcm(f.lm(), g.lm())
        sf = ctx.monomial(mono_div(lcm, f.lm())) * f
        sg = ctx.monomial(mono_div(lcm, g.lm())) * g
        s = sf - sg
        h = poly_lead_reduce(s, basis)
        if not h.is_zero:
            basis.append(h.monic())
            t = len(basis) - 1
            pairs.extend((k, t) for k in range(t))
    # minimalize
    keep = []
    order = sorted(range(len(basis)), key=lambda i: ctx.key(basis[i].lm()))
    for i in order:
        lm = basis[i].lm()
        if any(mono_divides(basis[j].lm(), lm) for j in keep):
            continue
        keep = [j for j in keep if not mono_divides(lm, basis[j].lm())]
        keep.append(i)
    reduced = [basis[i] for i in keep]
    # interreduce tails
    changed = True
    while changed:
        changed = False
        for i in range(len(reduced)):
            others = reduced[:i] + reduced[i + 1 :]
            h = poly_lead_reduce(reduced[i], others)
            if h.is_zero:
                reduced.pop(i)
                changed = True
                break
            h = h.monic()
            if h != reduced[i]:
                reduced[i] = h
                changed = True
    reduced.sort(key=lambda g: ctx.key(g.lm()))
    return tuple(reduced)


def brute_force_dim(monomials, nvars):
    """Max size of a variable subset containing no generator support."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
    if not supports:
        return nvars
    if frozenset() in supports:
        return -1
    best = 0
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return best


def monomials_of_degree(d):
    """Exponent triples of degree d, first exponent descending, then second."""
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def local_frame(pt, p):
    """The coordinate unit vectors e_a, e_b that the library's condition
    rows expand pt along (``fatpoints._frame_axes``)."""
    a, b, _ = _frame_axes([pt], p)[1][0].tolist()
    return tuple(tuple(int(i == axis) for i in range(3)) for axis in (a, b))


def condition_rows_reference(pt, U, V, mult, d, p):
    """Vanishing conditions of order mult at pt on degree-d forms.

    Expands every monomial along pt + sU + tV for an arbitrary frame
    (U, V) with dicts of (j, k) -> coefficient, truncated below local
    degree mult.  Rows are the (j, k) with j + k < mult, ordered by
    j + k and then j; columns follow ``monomials_of_degree(d)``.
    """
    pairs = [(j, s - j) for s in range(mult) for j in range(s + 1)]

    def coordinate_power(i, e):
        # (pt_i + s U_i + t V_i)^e, truncated
        terms = {}
        for j in range(min(e, mult - 1) + 1):
            for k in range(min(e - j, mult - 1 - j) + 1):
                c = (math.comb(e, j) * math.comb(e - j, k) * pow(pt[i], e - j - k, p)
                     * pow(U[i], j, p) * pow(V[i], k, p)) % p
                if c:
                    terms[(j, k)] = (terms.get((j, k), 0) + c) % p
        return terms

    columns = []
    for exps in monomials_of_degree(d):
        acc = {(0, 0): 1}
        for i, e in enumerate(exps):
            power = coordinate_power(i, e)
            nxt = {}
            for (j1, k1), c1 in acc.items():
                for (j2, k2), c2 in power.items():
                    if j1 + j2 + k1 + k2 < mult:
                        key = (j1 + j2, k1 + k2)
                        nxt[key] = (nxt.get(key, 0) + c1 * c2) % p
            acc = nxt
        columns.append([acc.get(jk, 0) for jk in pairs])
    return [list(row) for row in zip(*columns)] if pairs else []


def gauss_jordan(rows, p):
    """Reduced row echelon form over F_p with Python integers.

    Returns the nonzero rows and the pivot columns.  The RREF of a matrix
    is unique, so any correct elimination must agree with it.
    """
    R = [[x % p for x in row] for row in rows]
    ncols = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R[:r], pivots


def containment_reference(scheme, n, s, d_max):
    """graded_power_containment's report with every product span built
    first, in every degree up to d_max, whatever the multiplication maps
    later decide.

    Level k holds the spans of k-fold products by degree, each level
    one factor more than the last (level k times the pieces), capped at
    the degrees that can still reach d_max; each degree's comparison
    space is then built and reduced against on its own.
    """
    p = scheme.p
    system = scheme.with_multiplicities(n)
    target = scheme.with_multiplicities(s * n)
    pieces = {}
    for d in range(d_max + 1):
        basis = linear_system(system, d).basis
        if basis.shape[0]:
            pieces[d] = basis
    level = dict(pieces)
    for k in range(2, s + 1):
        bound = d_max - (s - k) * min(pieces)
        chunks = {}
        for da, rowsa in level.items():
            for db, rowsb in pieces.items():
                if da + db <= bound:
                    chunks.setdefault(da + db, []).append(
                        _all_pair_products(rowsa, da, rowsb, db, p))
        level = {D: span_rows(np.vstack(rows), p) for D, rows in chunks.items()}
    degrees = {}
    for D in sorted(level):
        target_dim = linear_system(target, D).h0
        multiples = _variable_multiples(linear_system(target, D - 1).basis, D - 1, p)
        image, pivots = rref_modp(multiples, p) if multiples.size else (multiples, ())
        if image.shape[0] == target_dim:
            degrees[D] = {"contained": True, "via": "multiplication-map surjectivity",
                          "comparison_dim": image.shape[0]}
            continue
        products = level[D]
        degrees[D] = {
            "contained": not reduce_rows(products, image, pivots, p).any(),
            "via": "product-span reduction",
            "products_dim": products.shape[0],
            "comparison_dim": image.shape[0],
        }
    report = {
        "n": n,
        "s": s,
        "d_max": d_max,
        "seed": scheme.seed,
        "constraint": "elliptic" if scheme.cubic is not None else "none",
        "degrees": degrees,
        "empty": not degrees,
    }
    if scheme.cubic is not None:
        report["expected_exception_degree"] = 3 * s * n
    return report


def h0_and_image_rank_by_elimination(scheme, d):
    """The degree-d h0 of the scheme and the rank of x_k * (its degree
    d-1 piece), d >= 1, each from an elimination of that degree's
    condition rows: no table, no record and no rule of the library's.
    The multiples place each coefficient by exponent lookup."""
    p = scheme.p

    def kernel(e):
        return nullspace_modp(_condition_matrix(scheme.points, scheme.multiplicities, e, p), p)

    column = {mono: i for i, mono in enumerate(monomials_of_degree(d))}
    source = kernel(d - 1)
    multiples = np.zeros((3 * source.shape[0], len(column)), dtype=np.int64)
    for k in range(3):
        shifted = [column[tuple(e + (i == k) for i, e in enumerate(mono))]
                   for mono in monomials_of_degree(d - 1)]
        multiples[k * source.shape[0]:(k + 1) * source.shape[0], shifted] = source
    return kernel(d).shape[0], rank_modp(multiples, p)


def census_reference(scheme, n_max, d_max, s):
    """fiber_generator_census's report from its definition.

    Each nonzero piece K_n(d), an elimination of its condition rows,
    has its s-fold self-products, one per multiset of s basis forms,
    multiplied out in monomial coordinates with dicts; the piece
    survives when one of them has a nonzero residue modulo the RREF, by
    gauss_jordan, of x_k * K_sn(s d - 1), placed by exponent lookup.
    No table and neither rule of the library's.
    """
    p = scheme.p

    def kernel(m, e):
        rows = _condition_matrix(scheme.points, (m,) * scheme.r, e, p)
        return nullspace_modp(rows, p)

    def as_dict(row, e):
        return {mono: int(c) for mono, c in zip(monomials_of_degree(e), row) if c}

    def times(f, g):
        out = {}
        for a, c in f.items():
            for b, k in g.items():
                mono = tuple(x + y for x, y in zip(a, b))
                out[mono] = (out.get(mono, 0) + c * k) % p
        return out

    rows = []
    for n in range(1, n_max + 1):
        for d in range(d_max + 1):
            piece = kernel(n, d)
            if not piece.shape[0]:
                continue
            top = monomials_of_degree(s * d)
            multiples = []
            for form in kernel(s * n, s * d - 1) if s * d >= 1 else ():
                for k in range(3):
                    shifted = {tuple(x + (i == k) for i, x in enumerate(mono)): c
                               for mono, c in as_dict(form, s * d - 1).items()}
                    multiples.append([shifted.get(mono, 0) for mono in top])
            R, pivots = gauss_jordan(multiples, p)
            survives = False
            forms = [as_dict(row, d) for row in piece]
            for chosen in itertools.combinations_with_replacement(forms, s):
                product = {(0, 0, 0): 1}
                for f in chosen:
                    product = times(product, f)
                residue = [product.get(mono, 0) for mono in top]
                for row, c in zip(R, pivots):
                    f = residue[c]
                    if f:
                        residue = [(x - f * y) % p for x, y in zip(residue, row)]
                survives = survives or any(residue)
            rows.append({"n": n, "degree": d, "piece_dim": piece.shape[0], "survives": survives})
    return {
        "n_max": n_max,
        "d_max": d_max,
        "s": s,
        "seed": scheme.seed,
        "constraint": "elliptic" if scheme.cubic is not None else "none",
        "pieces": rows,
        "survivors": [(row["n"], row["degree"]) for row in rows if row["survives"]],
    }


def poly_roots_brute_force(f, p):
    """Roots in F_p of sum f[i] b^i, by evaluating at every b."""
    return [b for b in range(p) if sum(c * pow(b, i, p) for i, c in enumerate(f)) % p == 0]


def first_root_scan(f, start, p):
    """The first b = start, start + 1, ... (mod p) with f(b) = 0, or None."""
    for off in range(p):
        b = (start + off) % p
        if sum(c * pow(b, i, p) for i, c in enumerate(f)) % p == 0:
            return b
    return None


def cubic_is_smooth_by_saturation(coeffs, p):
    """Smoothness of the plane cubic with the given coefficient vector
    (monomials of degree 3, first variable dominant) from the saturation
    of its Jacobian ideal J = (g, dg/dx_i) by (x1, x2, x3): g has no
    singular point exactly when J : m^inf is the unit ideal."""
    ctx = RingContext(p, ("x1", "x2", "x3"))
    monomials = [(a, b, 3 - a - b) for a in range(3, -1, -1) for b in range(3 - a, -1, -1)]
    g = ctx.zero()
    for c, m in zip(coeffs, monomials):
        g = g + ctx.monomial(m, int(c) % p)
    if g.is_zero:
        return False
    J = Ideal(ctx, [g, g.deriv("x1"), g.deriv("x2"), g.deriv("x3")])
    return saturate(J, maximal_ideal(ctx))[0].is_unit


def saturation_index_by_colon(A, B):
    """Least k with A : B^k = A : B^(k+1), by taking colons until one repeats."""
    current, index = A, 0
    while True:
        nxt = quotient(current, B)
        if nxt == current:
            return index
        current, index = nxt, index + 1


def reduction_certificate_reference(I, max_subsets=64):
    """The certified-reduction scan with a Groebner-basis certificate.

    Same subsets in the same order as ``filtrations._reduction_shortcut``;
    each J is accepted when the reduced bases of J*I + m*I^2 and I^2
    coincide.  Returns (J, note) for the first accepted subset, else None.
    """
    ctx = I.ctx
    n = ctx.nvars
    gens = list(I.gb.basis)
    if len(gens) <= n:
        return None
    m_ideal = maximal_ideal(ctx)
    base = Ideal.from_groebner(I.gb)
    square = ideal_power(base, 2)
    tried = 0
    for d in range(2, n + 1):
        for combo in itertools.combinations(range(len(gens)), d):
            tried += 1
            if tried > max_subsets:
                return None
            J = Ideal(ctx, [gens[i] for i in combo])
            lhs = ideal_sum(ideal_product(J, base), ideal_product(m_ideal, square))
            if lhs == square:
                note = (
                    "analytic spread via certified reduction: generators "
                    f"{list(combo)} of the reduced basis satisfy "
                    "I^2 = J*I + m*I^2, checked exactly"
                )
                return J, note
    return None


def residues_modulo_m_square(gens):
    """Each product g_i g_k (i <= k) reduced modulo m*I^2, as a sparse vector.

    The full-range residue routine: every product of the weighted-
    homogeneous gens is formed, and m*I^2 is built degree by degree from
    the lowest product degree to the highest.  (m I^2)_E is spanned by
    the x_v times a basis of (I^2)_{E - w_v}, and (I^2)_E by (m I^2)_E
    together with the products of degree E.  Each product is reduced
    fully against an echelon basis of (m I^2)_E, pivoted on the largest
    exponent tuple, so its residue is its normal form modulo that space.
    Returns {(i, k): residue}, zero residues included.
    """
    ctx = gens[0].ctx
    p, weights = ctx.p, ctx.weights
    degs = [weighted_degree(g) for g in gens]
    by_degree = {}
    for i, k in itertools.combinations_with_replacement(range(len(gens)), 2):
        by_degree.setdefault(degs[i] + degs[k], []).append(((i, k), gens[i] * gens[k]))
    square = {}         # degree E -> echelon of (I^2)_E
    residues = {}
    for E in range(min(by_degree), max(by_degree) + 1):
        echelon = {}
        for v, w in enumerate(weights):
            for row in square.get(E - w, {}).values():
                _insert_row(_shift(row, v), echelon, p)
        pivots = sorted(echelon, reverse=True)
        for pair, f in by_degree.get(E, ()):
            vec = dict(f.terms)
            for lead in pivots:
                c = vec.get(lead)
                if c:
                    _subtract(vec, echelon[lead], c, p)
            residues[pair] = vec
            _insert_row(dict(vec), echelon, p)
        square[E] = echelon
    return residues


def greedy_generator_walk(F, a):
    """The Rees presentation's generator choice through degree a, as
    (n, generator) pairs: each member's reduced basis is walked in the
    ring's ascending order, keeping every element not in the ideal of
    the lower products and the elements kept so far."""
    members = {n: F.materialize(n) for n in range(1, a + 1)}
    kept = []
    for n in range(1, a + 1):
        absorbed = []
        for i in range(1, n // 2 + 1):
            absorbed.extend(ideal_product(members[i], members[n - i]).gens)
        for g in members[n].gb.basis:
            if not Ideal(F.ctx, absorbed).contains(g):
                kept.append((n, g))
                absorbed.append(g)
    return kept


def _partitions(n, max_part):
    """Partitions of n into parts <= max_part, parts descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def truncation_by_partitions(F, a, n):
    """Member n of the a-th truncation of F: F_n for n <= a, and beyond
    a the sum over every partition of n into parts <= a of the product
    of the members F_part, multiplied from their reduced bases."""
    if n <= a:
        return F.materialize(n)
    members = [Ideal.from_groebner(F.materialize(k).gb) for k in range(1, a + 1)]
    gens = []
    for part in _partitions(n, a):
        product = members[part[0] - 1]
        for k in part[1:]:
            product = ideal_product(product, members[k - 1])
        gens.extend(product.gens)
    return Ideal(F.ctx, gens)


def exponent_rank(exponents):
    """Rank over Q of the matrix whose rows are the given exponent vectors."""
    rows = [[Fraction(e) for e in row] for row in exponents]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def colength(I):
    """Length of R/I, the number of monomials outside the leading ideal
    of I's reduced basis, or None when that number is infinite."""
    lms = [g.lm() for g in I.gb.basis]
    bounds = []
    for i in range(I.ctx.nvars):
        pure = [m[i] for m in lms if sum(m) == m[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(
        1
        for e in itertools.product(*(range(b) for b in bounds))
        if not any(mono_divides(m, e) for m in lms)
    )


def huneke_pair(P, var, top=3):
    """The first (k, l, f, g) with k <= l <= top, f in the reduced basis
    of P^(k) and g in that of P^(l), such that the length of
    R/(f, g, x) is k * l times that of R/(P, x), for x the variable
    named var; None if there is none.  By Huneke's criterion such a pair
    makes the symbolic algebra of a height-2 prime of a 3-dimensional
    ring Noetherian."""
    ctx = P.ctx
    x = ctx.poly(var)
    base = colength(Ideal(ctx, P.gens + (x,)))
    bases = {k: symbolic_power(P, k).gb.basis for k in range(1, top + 1)}
    for k in range(1, top + 1):
        for l in range(k, top + 1):
            for f in bases[k]:
                for g in bases[l]:
                    if colength(Ideal(ctx, (f, g, x))) == k * l * base:
                        return k, l, f, g
    return None


def parse_polynomial_by_arithmetic(ctx: RingContext, text: str) -> Polynomial:
    tokens = list(_tokenize(text))
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tk, tv = tokens[pos]
        if kind and tk != kind:
            raise ValueError(f"expected {kind}, found {tv!r}")
        pos += 1
        return tv

    def parse_factor() -> Polynomial:
        tk, tv = peek()
        if tk == "int":
            take()
            return ctx.const(int(tv))
        if tk == "name":
            take()
            base = ctx.var(tv)
            if peek()[0] == "^":
                take("^")
                exp = int(take("int"))
                return base ** exp
            return base
        raise ValueError(f"expected a factor, found {tv!r}")

    def parse_term() -> Polynomial:
        out = parse_factor()
        while peek()[0] == "*":
            take("*")
            out = out * parse_factor()
        return out

    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if take() == "-" else 1
    result = parse_term() * sign
    while pos < len(tokens):
        op = take()
        if op not in ("+", "-"):
            raise ValueError(f"expected + or -, found {op!r}")
        t = parse_term()
        result = result + (t if op == "+" else -t)
    return result
