"""Ideal-theoretic calculus: sums, products, intersection, colon,
saturation, elimination, dimension/height, and integral closure of
monomial ideals.

Ideals cache their canonical reduced Groebner basis; equality and
membership go through that basis.  ``_eliminate`` is the one block-order
elimination: ``eliminate``, ``intersect`` (through an auxiliary
variable) and ``saturate_by_elimination`` call it, and so does the Rees
presentation.  Its block order has the result ring's order inside (a lex
ring eliminates in block(idx, lex)), so every result carries its reduced
basis.  The ideal of all variables carries its own.  One rule,
``_by_generators``, gives the colon A : B and ``saturate_by_elimination``:
the intersection of one piece per generator b of B, where the piece of
a unit b is A, so that then the answer is A itself, with its basis.  The
colon's piece A : (b) is (A cap (b)) / b, each generator divided by
``groebner.divide_exact``, a run of the engine's one reduction routine,
so no reduction loop lives here.
``_saturation`` alone chooses how to compute A : B^infinity: by
variable saturations (Bayer-Stillman) for weighted-homogeneous A and B
the ideal of all variables, by iterated colon otherwise.  The variable
saturations A : x_i^infinity are built in variable order, and the first
whose quotient by A has finite length, which the leading monomials of
A's basis decide exactly, is the saturation, since a power of m carries
it into A; only when no piece is certified are the minimal pieces
intersected, by the same fold.  ``saturate`` is the one
place that computes a saturation index, by one normal-form rule on
either route; ``filtrations.symbolic_power`` asks ``_saturation`` for
the ideal alone.  ``saturate_by_elimination`` is the independent check.
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import Callable, Iterable, List, Sequence, Tuple

from .groebner import GroebnerBasis, divide_exact, groebner_basis
from .ring import (
    ContextError,
    HomogeneityError,
    MonomialOrder,
    Polynomial,
    RingContext,
    mono_divides,
)


class Ideal:
    """An ideal of F_p[variables], held as generators plus a cached basis."""

    __slots__ = ("ctx", "gens", "_gb", "_lock")

    def __init__(self, ctx: RingContext, gens: Iterable):
        self.ctx = ctx
        polys = []
        for g in gens:
            f = ctx.poly(g)
            if not f.is_zero:
                polys.append(f)
        # drop exact duplicates, keep first occurrence
        seen = set()
        uniq = []
        for f in polys:
            if f.terms not in seen:
                seen.add(f.terms)
                uniq.append(f)
        self.gens = tuple(uniq)
        self._gb = None
        self._lock = threading.Lock()

    @classmethod
    def from_groebner(cls, gb: GroebnerBasis) -> "Ideal":
        ideal = cls(gb.ctx, gb.basis)
        ideal._gb = gb
        return ideal

    @property
    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            with self._lock:
                if self._gb is None:
                    self._gb = groebner_basis(self.gens, self.ctx)
        return self._gb

    # predicates --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.gb.is_zero_ideal

    @property
    def is_unit(self) -> bool:
        return self.gb.is_unit_ideal

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    def contains(self, f) -> bool:
        return self.gb.contains(self.ctx.poly(f))

    def contains_ideal(self, other: "Ideal") -> bool:
        self._same_ring(other)
        return all(self.gb.contains(g) for g in other.gens)

    def is_homogeneous(self) -> bool:
        from .ring import is_weighted_homogeneous

        return all(is_weighted_homogeneous(g) for g in self.gens)

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.gens)

    def _same_ring(self, other: "Ideal"):
        if self.ctx != other.ctx:
            raise ContextError("ideals from different rings")

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        return self.gb.basis == other.gb.basis

    def __hash__(self):
        return hash(self.gb)

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


def ideal(ctx: RingContext, *gens) -> Ideal:
    if len(gens) == 1 and isinstance(gens[0], (list, tuple)):
        gens = tuple(gens[0])
    return Ideal(ctx, gens)


def maximal_ideal(ctx: RingContext) -> Ideal:
    """The ideal generated by all variables, which are its reduced basis."""
    m = Ideal(ctx, ctx.gens())
    m._gb = GroebnerBasis(ctx, sorted(m.gens, key=lambda g: ctx.key(g.lm())))
    return m


def unit_ideal(ctx: RingContext) -> Ideal:
    return Ideal(ctx, [ctx.one()])


def ideal_equal(A: Ideal, B: Ideal) -> bool:
    """True exactly when the reduced bases coincide."""
    return A == B


# ---------------------------------------------------------------------------
# sum / product / power
# ---------------------------------------------------------------------------

def ideal_sum(A: Ideal, B: Ideal) -> Ideal:
    """A + B.  Public ideal calculus (the README lists sums) with no
    caller in the library."""
    A._same_ring(B)
    return Ideal(A.ctx, A.gens + B.gens)


def ideal_product(A: Ideal, B: Ideal) -> Ideal:
    A._same_ring(B)
    return Ideal(A.ctx, [f * g for f in A.gens for g in B.gens])


def ideal_power(A: Ideal, k: int) -> Ideal:
    """A^k; the first power is A itself, with its cached basis."""
    if k < 0:
        raise ValueError("ideal power wants a nonnegative exponent")
    if k == 0:
        return unit_ideal(A.ctx)
    if k == 1:
        return A
    gens = []
    for combo in itertools.combinations_with_replacement(A.gens, k):
        f = combo[0]
        for g in combo[1:]:
            f = f * g
        gens.append(f)
    return Ideal(A.ctx, gens)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

_AUX = "t@"


def _aux_ring(ctx: RingContext) -> RingContext:
    """ctx's variables after one auxiliary variable of weight 1."""
    return RingContext(ctx.p, (_AUX,) + ctx.variables, weights=(1,) + ctx.weights)


def _lift(f: Polynomial, ring: RingContext) -> Polynomial:
    """f in ``_aux_ring(f.ctx)``."""
    return Polynomial._from_dict(ring, {(0,) + m: c for m, c in f.terms})


def _eliminate(ctx: RingContext, names: Sequence[str], ring: RingContext, gens) -> Ideal:
    """The ideal gens generate in ``ring``, intersected with ctx's ring.

    ``ring`` has the variables ``names``, at any positions, and ctx's, in
    ctx's sequence; its weights steer the engine's sugar and its order
    does not matter.  The basis is computed once, in ring's variables and
    weights under ``MonomialOrder.block(names, ctx.order)``; gens are
    handed to ``groebner_basis`` as they are, and the engine packs and
    sorts their terms for the block order.  That order
    compares monomials free of ``names`` by ctx's order, so the elements
    whose leading monomial is free of them (and then every term is), with
    those exponents dropped, are ctx's reduced basis of the intersection
    in ``groebner_basis``'s order.  The result carries it.
    """
    idx = [ring.var_index(n) for n in names]
    keep = [i for i in range(ring.nvars) if i not in idx]
    big = RingContext(ring.p, ring.variables, MonomialOrder.block(idx, ctx.order), ring.weights)
    gb = groebner_basis(gens, big)
    kept = [
        Polynomial(ctx, tuple((tuple(m[i] for i in keep), c) for m, c in g.terms))
        for g in gb
        if not any(g.lm()[i] for i in idx)
    ]
    return Ideal.from_groebner(GroebnerBasis(ctx, kept))


def eliminate(A: Ideal, names: Sequence[str]) -> Ideal:
    """A intersected with the subring in the remaining variables.

    The result lives in a context on the remaining variables with the
    restricted weights.  Its order is the ring's order when that is
    grevlex or lex, and grevlex for every other kind.  ``_eliminate``
    computes it in the block order with that order inside, so a lex ring
    eliminates in block(idx, lex), and the result carries its reduced
    basis.
    """
    names = list(names)
    if not names:
        raise ValueError("no variables requested for elimination")
    idx = sorted(A.ctx.var_index(n) for n in set(names))
    if len(idx) >= A.ctx.nvars:
        raise ValueError("cannot eliminate every variable")
    ctx = A.ctx
    keep = [i for i in range(ctx.nvars) if i not in idx]
    small = RingContext(
        ctx.p,
        tuple(ctx.variables[i] for i in keep),
        ctx.order if ctx.order.kind in ("grevlex", "lex") else MonomialOrder.grevlex(),
        tuple(ctx.weights[i] for i in keep),
    )
    return _eliminate(small, [ctx.variables[i] for i in idx], ctx, A.gens)


def _reorder(f: Polynomial, target: RingContext) -> Polynomial:
    """Re-sort the terms of f for a context sharing the same variables."""
    terms = sorted(f.terms, key=lambda t: target.key(t[0]), reverse=True)
    return Polynomial(target, tuple(terms))


# ---------------------------------------------------------------------------
# intersection / colon / saturation
# ---------------------------------------------------------------------------

def intersect(A: Ideal, B: Ideal) -> Ideal:
    """A cap B via t*A + (1-t)*B in an extended ring, then eliminating t."""
    A._same_ring(B)
    ctx = A.ctx
    if not A.gens or not B.gens:
        return Ideal(ctx, ())
    ring = _aux_ring(ctx)
    t = ring.var(_AUX)
    gens = [t * _lift(g, ring) for g in A.gens]
    gens += [(ring.one() - t) * _lift(g, ring) for g in B.gens]
    return _eliminate(ctx, (_AUX,), ring, gens)


def _by_generators(A: Ideal, B: Ideal, piece: Callable[[Polynomial], Ideal], zero: str) -> Ideal:
    """The intersection over B's generators b of one piece each: A : (b)
    for the colon A : B, A : b^infinity for the saturation A : B^infinity.

    The piece of a unit b is A, and every piece contains A, so then the
    answer is A itself, with its basis.  A zero B is refused with the
    message ``zero``.
    """
    A._same_ring(B)
    if B.is_zero:
        raise ValueError(zero)
    if any(b.constant_value() is not None for b in B.gens):
        return A
    return _meet(piece(b) for b in B.gens)


def _meet(pieces: Iterable[Ideal]) -> Ideal:
    """The intersection of a nonempty run of ideals, folded left through
    ``intersect``, looked up on every call, so that a rebound
    ``ideals.intersect`` (the benchmark tracer's) sees each one."""
    return functools.reduce(intersect, pieces)


def quotient(A: Ideal, B: Ideal) -> Ideal:
    """Colon ideal A : B = {f | f*B inside A}: the intersection over B's
    generators b of A : (b) = (A cap (b)) / b."""

    def piece(b):
        return Ideal(A.ctx, [divide_exact(g, b) for g in intersect(A, Ideal(A.ctx, [b])).gens])

    return _by_generators(A, B, piece, "colon by the zero ideal")


def saturate(A: Ideal, B: Ideal) -> Tuple[Ideal, int]:
    """A : B^infinity, plus the saturation index.

    The index is the least k with A : B^k = A : B^(k+1), that is with
    sat * B^k inside A for sat = A : B^infinity.  ``_saturation`` chooses
    the route and hands back the basis of A it computed, and one rule
    gives the index on either route: it is the first k with S_k empty,
    where S_0 holds the nonzero normal forms modulo A of sat's
    generators g and S_(k+1) those of the b * r for r in S_k and b in
    B's reduced basis.  Each r is some u * g modulo A with u a product
    of k elements of that basis, so S_k is empty exactly when sat * B^k
    lies in A.
    """
    sat, A_basis = _saturation(A, B)
    factors = [_reorder(b, A_basis.ctx) for b in B.gb.basis]
    level = [_reorder(g, A_basis.ctx) for g in sat.gens]
    for index in itertools.count():
        # monic remainders, so that scalar multiples count once
        rems = {r.terms: r for r in (A_basis.normal_form(f).monic() for f in level) if r.terms}
        if not rems:
            return sat, index
        level = [b * r for r in rems.values() for b in factors]


def _saturation(A: Ideal, B: Ideal) -> Tuple[Ideal, GroebnerBasis]:
    """A : B^infinity and the basis of A its route computed.

    Weighted-homogeneous A and B equal to the ideal of all variables go
    by ``_saturate_by_variables``, which hands back A's basis in x_0's
    saturation order.  Every other input iterates the colon until it
    stabilizes; its first equality test builds A's reduced basis.
    """
    A._same_ring(B)
    if B.is_zero:
        raise ValueError("saturation by the zero ideal")
    # B is the ideal of all variables exactly when its reduced basis is
    if A.is_homogeneous() and set(B.gb.basis) == set(A.ctx.gens()):
        return _saturate_by_variables(A)
    current, nxt = A, quotient(A, B)
    while nxt != current:
        current, nxt = nxt, quotient(nxt, B)
    return current, A.gb


def _saturate_variable(A: Ideal, i: int) -> Tuple[GroebnerBasis, GroebnerBasis]:
    """Bases of A and of A : x_i^infinity in the ``saturation`` order for
    x_i, in a ring with A's variables and weights, which that order reads.

    In that order x_i divides a weighted-homogeneous polynomial as often
    as it divides the leading monomial, so dividing every element of A's
    basis by its largest x_i-power gives a Groebner basis of
    A : x_i^infinity (Bayer and Stillman, Invent. Math. 87, 1987).  It
    need not be reduced, so it serves normal forms only and never becomes
    an ``Ideal``'s cached basis, on which equality relies.
    """
    ctx = A.ctx
    if not A.is_homogeneous():
        raise HomogeneityError("variable saturation needs weighted-homogeneous generators")
    sat = RingContext(ctx.p, ctx.variables, MonomialOrder.saturation(i), ctx.weights)
    G = groebner_basis(A.gens, sat)
    quotients = []
    for g in G:
        k = g.lm()[i]
        terms = [(m[:i] + (m[i] - k,) + m[i + 1 :], c) for m, c in g.terms]
        quotients.append(Polynomial(sat, terms))
    return G, GroebnerBasis(sat, quotients)


def _basis_contains(G: GroebnerBasis, H: GroebnerBasis) -> bool:
    """Whether the ideal of G contains every element of H."""
    return all(G.contains(_reorder(f, G.ctx)) for f in H)


def _certifies_saturation(G: GroebnerBasis, i: int) -> bool:
    """Whether (A : x_i^infinity) / A has finite length, from the leading
    monomials of G, A's basis in the saturation order for x_i.

    LT(A) is generated by the lm(g), and LT(Q) for Q = A : x_i^infinity
    by the lm(g) / x_i^e with e = deg_i(lm(g)).  A is
    weighted-homogeneous, so in each degree the standard monomials are
    a basis, and Q / A has the monomials of LT(Q) outside LT(A) as one.
    That set is finite exactly when, for each u = lm(g) / x_i^e with
    e > 0 and each variable x_j (j != i; x_i^e * u is lm(g)), some
    x_j^N * u lies in LT(A), that is some leading monomial v has
    v_l <= u_l for every l != j.
    """
    lms = [g.lm() for g in G]
    n = G.ctx.nvars
    for w in lms:
        if not w[i]:
            continue
        u = w[:i] + (0,) + w[i + 1 :]
        for j in range(n):
            if j != i and not any(
                all(v[l] <= u[l] for l in range(n) if l != j) for v in lms
            ):
                return False
    return True


def _saturate_by_variables(A: Ideal) -> Tuple[Ideal, GroebnerBasis]:
    """A : m^infinity, the intersection of the A : x_i^infinity, and A's
    basis in x_0's saturation order.

    The pieces Q_i = A : x_i^infinity are built in variable order, and the
    first whose quotient Q_i / A has finite length, which the leading
    monomials of A's basis certify (``_certifies_saturation``), is the
    saturation: m^N * Q_i lies in A, so Q_i lies in A : m^infinity, which
    lies in every piece.  The certificate is exact, so when no piece
    passes it, no piece is the saturation and the minimal pieces are
    intersected: a piece containing another does not change the
    intersection.  Containment, decided only then, uses saturation-order
    bases only, never the ring's order.
    """
    ctx = A.ctx
    pieces: List[GroebnerBasis] = []
    for i in range(ctx.nvars):
        G, piece = _saturate_variable(A, i)
        if i == 0:
            A_basis = G
        if _certifies_saturation(G, i):
            minimal = [piece]
            break
        pieces.append(piece)
    else:
        minimal = []
        for piece in pieces:
            if any(_basis_contains(piece, q) for q in minimal):
                continue
            minimal = [q for q in minimal if not _basis_contains(q, piece)] + [piece]
    return _meet(Ideal(ctx, [_reorder(f, ctx) for f in q]) for q in minimal), A_basis


def saturate_by_elimination(A: Ideal, B: Ideal) -> Ideal:
    """A : B^infinity via the extra-variable route, one generator at a time.

    The piece of a generator b is A + (y*b - 1), built in an extended
    ring, with y eliminated; the pieces are intersected.  Independent
    of the iterated-colon path, which makes it the cross-check of choice.
    """

    def piece(b):
        ring = _aux_ring(A.ctx)
        gens = [_lift(g, ring) for g in A.gens] + [ring.var(_AUX) * _lift(b, ring) - ring.one()]
        return _eliminate(A.ctx, (_AUX,), ring, gens)

    return _by_generators(A, B, piece, "saturation by the zero ideal")


# ---------------------------------------------------------------------------
# dimension and height
# ---------------------------------------------------------------------------

def _min_cover(supports: List[frozenset]) -> int:
    """Minimum number of variables meeting every support set."""
    supports = sorted(set(supports), key=lambda s: (len(s), sorted(s)))
    pruned = []
    for s in supports:
        if not any(t <= s for t in pruned):
            pruned.append(s)
    best = [len(set().union(*pruned))] if pruned else [0]

    def rec(remaining, used):
        if used >= best[0]:
            return
        if not remaining:
            best[0] = used
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            rest = [s for s in remaining if v not in s]
            rec(rest, used + 1)

    rec(pruned, 0)
    return best[0]


def krull_dim(A: Ideal) -> int:
    """Krull dimension of ring/A, from the leading-term monomial ideal.

    dim equals the largest size of a variable subset S such that no
    minimal generator of the leading-term ideal has support inside S;
    the zero ideal gives the full dimension, the unit ideal gives -1.
    """
    if A.is_zero:
        return A.ctx.nvars
    if A.is_unit:
        return -1
    supports = [
        frozenset(i for i, e in enumerate(g.lm()) if e > 0) for g in A.gb.basis
    ]
    return A.ctx.nvars - _min_cover(supports)


def height(A: Ideal) -> int:
    """Height of a proper nonzero ideal: nvars - krull_dim."""
    if A.is_zero or A.is_unit:
        raise ValueError("height wants a proper nonzero ideal")
    return A.ctx.nvars - krull_dim(A)


def is_max_ideal_associated(A: Ideal) -> bool:
    """Whether the maximal ideal is an associated prime of ring/A.

    For the graded-local model this holds exactly when saturating by the
    variable ideal strictly enlarges A, equivalently when the single
    colon A : m already does.  The paper's test for m in Ass(R/p^n)
    (acceptance criteria 5 and 6), public with no caller in the library.
    """
    if not A.is_proper:
        raise ValueError("associated-prime test wants a proper ideal")
    if A.is_zero:
        return False
    return quotient(A, maximal_ideal(A.ctx)) != A


# ---------------------------------------------------------------------------
# integral closure of monomial ideals (Newton polyhedron)
# ---------------------------------------------------------------------------

def _fm_feasible(rows: List[Tuple[Tuple[int, ...], int]], nvars: int) -> bool:
    """Fourier-Motzkin feasibility of {coeffs . u + const >= 0}."""
    from math import gcd

    def normalize(row):
        coeffs, const = row
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        g = gcd(g, abs(const))
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            const = const // g
        return coeffs, const

    rows = [normalize(r) for r in rows]
    for v in range(nvars):
        pos, neg, zero = [], [], []
        for coeffs, const in rows:
            c = coeffs[v]
            if c > 0:
                pos.append((coeffs, const))
            elif c < 0:
                neg.append((coeffs, const))
            else:
                zero.append((coeffs, const))
        new_rows = zero
        for pc, pk in pos:
            for nc, nk in neg:
                a, b = pc[v], -nc[v]
                coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
                new_rows.append(normalize((coeffs, b * pk + a * nk)))
        rows = list(dict.fromkeys(new_rows))
    return all(const >= 0 for _, const in rows)


def _in_newton_polyhedron(point, exps) -> bool:
    """Exactly decide point in conv(exps) + nonnegative orthant."""
    k = len(exps)
    n = len(point)
    if k == 1:
        return all(p >= e for p, e in zip(point, exps[0]))
    # variables u_1..u_{k-1}; u_k = 1 - sum(u_i)
    rows = []
    for i in range(k - 1):
        rows.append((tuple(1 if j == i else 0 for j in range(k - 1)), 0))
    rows.append((tuple(-1 for _ in range(k - 1)), 1))          # u_k >= 0
    last = exps[-1]
    for j in range(n):
        coeffs = tuple(last[j] - exps[i][j] for i in range(k - 1))
        rows.append((coeffs, point[j] - last[j]))
    return _fm_feasible(rows, k - 1)


def _minimal_monomials(exps: List[tuple]) -> List[tuple]:
    out = []
    for e in sorted(set(exps)):
        if not any(mono_divides(f, e) for f in out if f != e):
            out = [f for f in out if not mono_divides(e, f)]
            out.append(e)
    return sorted(out)


def monomial_integral_closure(A: Ideal) -> Ideal:
    """Integral closure of a monomial ideal via its Newton polyhedron.

    Candidate exponents are enumerated up to the componentwise maximum
    of the generators; hull membership is an exact rational feasibility
    test.  Idempotence is part of the test suite rather than assumed.
    """
    if not A.is_monomial():
        raise ValueError("integral closure implemented for monomial ideals only")
    if A.is_zero:
        return Ideal(A.ctx, ())
    exps = _minimal_monomials([g.lm() for g in A.gens])
    bound = tuple(max(e[i] for e in exps) for i in range(A.ctx.nvars))
    members = []
    for cand in itertools.product(*(range(b + 1) for b in bound)):
        if _in_newton_polyhedron(cand, exps):
            members.append(cand)
    gens = _minimal_monomials(members)
    return Ideal(A.ctx, [A.ctx.monomial(e) for e in gens])
