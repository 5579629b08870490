"""Filtrations of ideals, their Rees presentations, and analytic spread.

A filtration is a descending chain I_1 >= I_2 >= ... with
I_i * I_j <= I_{i+j}, given by its member rule n -> I_n.  Four named
constructors each pass one rule:

* ``Filtration.adic(I)`` -- I_n = I^n;
* ``Filtration.symbolic(I, J)`` -- I_n = I^n : J^infinity (J defaults to
  the ideal of all variables, the right notion for space-curve primes);
* ``F.truncate(a)`` -- the Noetherian approximation generated by the
  first a members of F: I_{a,n} = I_n for n <= a and, beyond a, the sum
  over 0 < i <= n/2 of I_{a,i} I_{a,n-i} (``_lower_products``).  That
  two-factor sum is the sum of the products over every partition of n
  into parts <= a only because the members form a filtration: the
  smallest part i of such a partition is at most n/2, and the product
  of the other parts lies in I_{a,n-i}.  The a-th truncation of an a-th
  truncation is itself;
* ``Filtration.trivial_max(ctx)`` -- I_n equal to the maximal ideal for
  every n >= 1.

The Rees algebra of a truncation is presented by adjoining one variable
T{n}_{j} of degree n per chosen generator of I_n and eliminating the
auxiliary variable t from the relations T{n}_{j} - f*t^n.  The new
variables are named ``T{n}_{j}@`` and ``t@``, names the polynomial
parser cannot produce, so they never clash with a base variable.  The
analytic spread is the Krull dimension of the special fiber, i.e. of
k[T] modulo the image of the Rees kernel under x -> 0 (that image
generates exactly (Q + (x)) restricted to k[T], so no second
elimination is needed).  Each level's generators are chosen by a walk
over the member's reduced basis that is one engine run
(``groebner.new_generators``).  Before presenting an ideal I,
``analytic_spread`` looks for a reduction J among I's generators,
certified by I^2 = J*I + m*I^2 from the residues of the products of the
basis elements outside m*I (graded Nakayama).  ``analytic_spread`` is its
own memo, a bounded ``functools.lru_cache`` keyed by the ideal, so a
repeated question is one hash lookup.

Most spreads need no Rees kernel.  ``analytic_spread`` bounds ell(I)
below by L, the larger of ht(I) and the Jacobian rank of the initial
forms of least weighted order (Bivia-Ausina, Comm. Algebra 31 (2003);
Beecken-Mittmann-Saxena, Inf. Comput. 222 (2013)), and above by U, the
smallest of dim R, mu(I) and the size of a certified reduction.  When
L = U that is ell.  A presentation stores only its generators: its
rings, relations and kernels come from one elimination of t, run on the
first read of a kernel, so a settled spread builds none of them.

A truncation generated by I_1, which is every first truncation and every
one whose kept generators all have degree 1, has Rees algebra R[I_1 t]:
its spread is ``analytic_spread(I_1)``, reached by that one path.  Only a
truncation with a kept generator above degree 1 reads its own fiber
kernel.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .groebner import new_generators
from .ideals import (
    _AUX,
    Ideal,
    _eliminate,
    _saturation,
    ideal_power,
    ideal_product,
    height,
    krull_dim,
    maximal_ideal,
    unit_ideal,
)
from .ring import (
    HomogeneityError,
    MonomialOrder,
    Polynomial,
    RingContext,
    mono_wdeg,
    weighted_degree,
)


def symbolic_power(I: Ideal, n: int, J: Optional[Ideal] = None) -> Ideal:
    """n-th symbolic power as the saturation I^n : J^infinity.

    J defaults to the ideal of all variables; arbitrary proper nonzero
    J are accepted for the general colon-algebra setting.
    ``ideals._saturation`` chooses the route from I^n and J, as it does
    for ``saturate``, but no saturation index is computed: a member of
    the filtration has no use for it.
    """
    if n < 1:
        raise ValueError("symbolic power wants n >= 1")
    if not I.is_proper:
        raise ValueError("symbolic power of the unit ideal")
    if J is not None and (J.is_zero or not J.is_proper):
        raise ValueError("saturating ideal must be proper and nonzero")
    return _saturation(ideal_power(I, n), maximal_ideal(I.ctx) if J is None else J)[0]


class Filtration:
    """A filtration given by its member rule, members memoized on demand.

    ``member(F, n)`` returns I_n for n >= 1, with F the filtration
    itself, so a rule can ask F for lower members without holding a
    reference to F.  ``adic``, ``symbolic``, ``trivial_max`` and
    ``truncate`` build the filtrations of the module docstring; a rule
    handed in directly is trusted to give a filtration.
    ``truncation_bound`` is a for the a-th truncation and None otherwise.
    """

    truncation_bound: Optional[int] = None

    def __init__(self, ctx: RingContext, member: Callable[["Filtration", int], Ideal]):
        if not callable(member):
            raise TypeError("a filtration takes its member rule member(F, n)")
        self.ctx = ctx
        self._member = member
        self._cache: Dict[int, Ideal] = {}
        self._lock = threading.Lock()

    # constructors ----------------------------------------------------------

    @classmethod
    def adic(cls, I: Ideal) -> "Filtration":
        return cls(I.ctx, lambda F, n: ideal_power(I, n))

    @classmethod
    def symbolic(cls, I: Ideal, J: Optional[Ideal] = None) -> "Filtration":
        if J is not None and (J.is_zero or not J.is_proper):
            raise ValueError("saturating ideal must be proper and nonzero")
        return cls(I.ctx, lambda F, n: symbolic_power(I, n, J))

    @classmethod
    def trivial_max(cls, ctx: RingContext) -> "Filtration":
        return cls(ctx, lambda F, n: maximal_ideal(F.ctx))

    def truncate(self, a: int) -> "Filtration":
        """The a-th truncated filtration generated by the first a members.

        The a-th truncation of an a-th truncation is itself, so it is
        returned as it is, members and bases included.
        """
        if a < 1:
            raise ValueError("truncation bound must be at least 1")
        if self.truncation_bound == a:
            return self
        members = tuple(self.materialize(n) for n in range(1, a + 1))
        trunc = Filtration(
            self.ctx, lambda F, n: members[n - 1] if n <= a else _lower_products(F, n)
        )
        trunc.truncation_bound = a
        return trunc

    # ------------------------------------------------------------------------

    def materialize(self, n: int) -> Ideal:
        if n < 0:
            raise ValueError("filtration degree must be nonnegative")
        if n == 0:
            return unit_ideal(self.ctx)
        if n in self._cache:
            return self._cache[n]
        value = self._member(self, n)
        with self._lock:
            self._cache.setdefault(n, value)
        return self._cache[n]


def _lower_products(F: Filtration, n: int) -> Ideal:
    """The sum over 0 < i <= n/2 of F_i * F_{n-i}, multiplied from the
    members' reduced bases: what the members below n generate in
    degree n when F is a filtration (see the module docstring)."""
    gens: List[Polynomial] = []
    for i in range(1, n // 2 + 1):
        low, high = F.materialize(i).gb.basis, F.materialize(n - i).gb.basis
        gens.extend(f * g for f in low for g in high)
    return Ideal(F.ctx, gens)


# ---------------------------------------------------------------------------
# Rees presentation and fiber cone
# ---------------------------------------------------------------------------

def _wdeg(g: Polynomial) -> int:
    """The largest term degree of g, which is the degree of a homogeneous g."""
    return max(mono_wdeg(m, g.ctx.weights) for m, _ in g.terms)


@dataclass(frozen=True)
class ReesPresentation:
    """Presentation of the Rees algebra of a truncation, stored as its
    generators.

    ``generators`` holds (name, degree, f) for each fiber variable
    T{n}_{j}, the chosen generator f = f_{n,j} of I_n, all in
    ``base_ctx``.  ``rees_kernel`` is the kernel of T{n}_{j} -> f t^n in
    the ring of the base and fiber variables, T{n}_{j} weighing wdeg(f)
    (the weight of f t^n when t weighs 0); ``fiber_kernel`` lives in the
    fiber variables alone, T{n}_{j} weighing n, and cuts out the special
    fiber (None when there are no generators).  The kernels' rings are
    ``rees_kernel.ctx`` and ``fiber_kernel.ctx``.  Rings, relations and
    kernels come from one elimination of t (``_eliminate_t``), run on the
    first read of either kernel and kept: under a lock, so concurrent
    first readers get the same objects.  A spread that its bounds settle
    never reads them, so it builds none of them (``analytic_spread``).
    """

    base_ctx: RingContext
    generators: Tuple[Tuple[str, int, Polynomial], ...]   # (name, degree, generator)
    _kernels: Optional[Tuple[Ideal, Optional[Ideal]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @property
    def rees_kernel(self) -> Ideal:
        return self._eliminated()[0]

    @property
    def fiber_kernel(self) -> Optional[Ideal]:
        return self._eliminated()[1]

    def _eliminated(self) -> Tuple[Ideal, Optional[Ideal]]:
        with self._lock:
            if self._kernels is None:
                object.__setattr__(self, "_kernels", self._eliminate_t())
        return self._kernels

    def _eliminate_t(self) -> Tuple[Ideal, Optional[Ideal]]:
        """The Rees kernel, by block-order elimination of t from the
        relations T{n}_{j} - f t^n, and the fiber kernel, generated by the
        images of the kernel's basis under x -> 0.

        The relations live in a ring with t@ before the base and fiber
        variables, where T{n}_{j} weighs wdeg(f) + n and t weighs 1, so
        every relation of a weighted-homogeneous filtration is
        homogeneous and the engine's sugar selection proceeds degree by
        degree (the weights do not enter the block order; ``_eliminate``
        ranks t@ above the rest).  Without generators the kernel is zero
        in the base variables and there is no fiber kernel.
        """
        ctx, chosen = self.base_ctx, self.generators
        tnames = tuple(name for name, _, _ in chosen)
        combined = RingContext(
            ctx.p, ctx.variables + tnames, MonomialOrder.grevlex(),
            ctx.weights + tuple(_wdeg(g) for _, _, g in chosen),
        )
        if not chosen:
            return Ideal(combined, ()), None
        ring = RingContext(
            ctx.p,
            (_AUX,) + combined.variables,
            weights=(1,) + ctx.weights + tuple(_wdeg(g) + n for _, n, g in chosen),
        )
        tvar, pad = ring.var(_AUX), (0,) * len(tnames)
        relations = [
            ring.var(name)
            - Polynomial(ring, tuple(((0,) + m + pad, c) for m, c in g.terms)) * tvar ** n
            for name, n, g in chosen
        ]
        rees_kernel = _eliminate(combined, (_AUX,), ring, relations)
        base_n = ctx.nvars
        fiber_ctx = RingContext(ctx.p, tnames, MonomialOrder.grevlex(), tuple(n for _, n, _ in chosen))
        fiber_gens = []
        for g in rees_kernel.gb.basis:
            terms = [(m[base_n:], c) for m, c in g.terms if not any(m[:base_n])]
            if terms:
                terms.sort(key=lambda t: fiber_ctx.key(t[0]), reverse=True)
                fiber_gens.append(Polynomial(fiber_ctx, tuple(terms)))
        return rees_kernel, Ideal(fiber_ctx, fiber_gens)


def _chosen_generators(F: Filtration, a: int) -> List[Tuple[int, Polynomial]]:
    """Canonical algebra-generator choice through degree a.

    Walks the canonical reduced basis of each member in the ring's
    ascending order and keeps exactly the elements not already produced
    by products of lower members and previously kept elements, so higher
    degrees only receive variables for genuinely new generators.  Each
    level's walk is one engine run (``groebner.new_generators``), exact
    for inhomogeneous members too.  The ring's order need not follow
    weighted degree, so an element kept early may be generated by
    elements of lower weighted degree kept after it: the kept set need
    not be minimal.  ``rees_presentation`` numbers the kept elements by
    degree.
    """
    chosen: List[Tuple[int, Polynomial]] = []
    for n in range(1, a + 1):
        member = F.materialize(n)
        if member.is_unit:
            raise ValueError("filtration member is the unit ideal")
        kept = new_generators(_lower_products(F, n).gens, member.gb.basis, F.ctx)
        chosen.extend((n, g) for g in kept)
    return chosen


def rees_presentation(F: Filtration, a: int = 1) -> ReesPresentation:
    """Present the Rees algebra of the truncation of F at a by its
    generators.

    The generators are those ``_chosen_generators`` keeps, numbered
    T{n}_1@, T{n}_2@, ... by ascending (n, weighted degree, ring order of
    the leading monomial).  Nothing else is built here: the rings, the
    relations T{n}_{j} - f_{n,j} t^n and the kernels come from one
    elimination of t on the first read of a kernel
    (``ReesPresentation._eliminate_t``).
    """
    if a < 1:
        raise ValueError("presentation bound must be at least 1")
    key = F.ctx.key
    kept = sorted(_chosen_generators(F, a), key=lambda ng: (ng[0], _wdeg(ng[1]), key(ng[1].lm())))
    counters = dict.fromkeys(range(1, a + 1), 0)
    chosen: List[Tuple[str, int, Polynomial]] = []
    for n, g in kept:
        counters[n] += 1
        chosen.append((f"T{n}_{counters[n]}@", n, g))
    return ReesPresentation(base_ctx=F.ctx, generators=tuple(chosen))


# ---------------------------------------------------------------------------
# analytic spread
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadReport:
    """Analytic spread with its bounds and evidence.

    Frozen because ``analytic_spread`` is a memo: it hands the same
    report object, the zero ideal's included, to every caller asking
    about the same ideal.  ``bounds`` is (L, U), the cheap lower and
    upper bounds of a nonzero ideal's spread (``analytic_spread``);
    L == U means ell was settled by them and no Rees kernel was
    computed.  A truncation generated by I_1 gets the report of I_1,
    bounds included (``analytic_spread_truncated``), so ``bounds`` is
    None only for the zero ideal and for truncations with a kept
    generator above degree 1.  ``bounds_ok`` is ht <= ell <= dim R, read
    from the fields.
    """

    ell: int
    ring_dim: int
    ht: Optional[int]
    presentation: Optional[ReesPresentation]
    witness_exponent: Optional[int] = None
    witness_bound: Optional[int] = None
    notes: Tuple[str, ...] = ()
    bounds: Optional[Tuple[int, int]] = None

    @property
    def bounds_ok(self) -> bool:
        """Whether ht <= ell <= dim R holds (ell <= dim R when ht is None)."""
        return (self.ht is None or self.ht <= self.ell) and self.ell <= self.ring_dim


def _validate_spread_input(I: Ideal):
    """Refuse an ideal that is not proper or not weighted-homogeneous.

    Both are read off the reduced basis, which is homogeneous exactly
    when the ideal is, so the verdict depends on the ideal alone and
    not on the generators it was given by: ``analytic_spread`` memoizes
    by the ideal, and a memo hit is not validated again.
    """
    if not I.is_proper:
        raise ValueError("analytic spread wants a proper ideal")
    if any(weighted_degree(g) is None for g in I.gb.basis):
        raise HomogeneityError(
            "analytic spread needs weighted-homogeneous generators; "
            "inhomogeneous input would break the graded-local dictionary"
        )


def _residues_modulo_m(items: Sequence[Polynomial]) -> List[dict]:
    """Each item reduced modulo m*K, K the ideal the items generate, as a
    sparse vector.

    The items must be weighted-homogeneous.  Works degree by degree from
    the lowest item degree up to the highest: (m K)_E is spanned by the
    x_v times a basis of K_{E - w_v}, and K_E by (m K)_E together with
    the items of degree E.  Each item is reduced fully against an
    echelon basis of (m K)_E, so its residue lies in the span of the
    non-pivot monomials, a complement of (m K)_E: residues have the
    ranks of the items' images in K / m K.  Vectors are dicts from
    exponent tuples to residues mod p, pivoted on their largest exponent
    tuple, with Python-integer arithmetic.
    """
    ctx = items[0].ctx
    p, weights = ctx.p, ctx.weights
    by_degree: Dict[int, List[int]] = {}
    for i, f in enumerate(items):
        by_degree.setdefault(weighted_degree(f), []).append(i)
    spans: Dict[int, Dict[tuple, dict]] = {}       # degree E -> echelon of K_E
    residues: List[dict] = [{} for _ in items]
    for E in range(min(by_degree), max(by_degree) + 1):
        echelon: Dict[tuple, dict] = {}
        for v, w in enumerate(weights):
            for row in spans.get(E - w, {}).values():
                _insert_row(_shift(row, v), echelon, p)
        pivots = sorted(echelon, reverse=True)
        for i in by_degree.get(E, ()):
            vec = dict(items[i].terms)
            for lead in pivots:
                c = vec.get(lead)
                if c:
                    _subtract(vec, echelon[lead], c, p)
            residues[i] = vec
            _insert_row(dict(vec), echelon, p)
        spans[E] = echelon
    return residues


def _shift(row: dict, v: int) -> dict:
    """x_v times a sparse vector."""
    return {m[:v] + (m[v] + 1,) + m[v + 1:]: c for m, c in row.items()}


def _subtract(vec: dict, row: dict, c: int, p: int) -> None:
    """vec -= c * row in place, dropping zero entries."""
    for m, a in row.items():
        value = (vec.get(m, 0) - c * a) % p
        if value:
            vec[m] = value
        else:
            del vec[m]


def _insert_row(vec: dict, echelon: Dict[tuple, dict], p: int) -> bool:
    """Add vec (consumed) to a semi-echelon basis keyed by pivot; False if dependent."""
    while vec:
        lead = max(vec)
        row = echelon.get(lead)
        if row is None:
            inv = pow(vec[lead], -1, p)
            echelon[lead] = {m: c * inv % p for m, c in vec.items()}
            return True
        _subtract(vec, row, vec[lead], p)
    return False


def _rank(rows, p: int) -> int:
    """Dimension of the span of sparse vectors over F_p."""
    echelon: Dict[tuple, dict] = {}
    return sum(_insert_row(dict(row), echelon, p) for row in rows)


def _initial_jacobian_rank(gens: Sequence[Polynomial]) -> int:
    """A lower bound for the analytic spread of the ideal I that gens generate.

    For a positive weight w, let nu(f) be the least w-degree of a term
    of f, in(f) the sum of the terms of that degree, and
    nu(I) = min nu(g).  Sending f in I^n to its part of w-degree
    n*nu(I) is a graded ring map from the fiber cone onto
    k[in(g) : nu(g) = nu(I)]: it vanishes on m*I^n, and initial forms
    multiply.  So ell(I) is at least the transcendence degree of that
    algebra, and that is at least the rank of the Jacobian matrix of
    those initial forms at any point, in every characteristic
    (Bivia-Ausina, Comm. Algebra 31 (2003), for the initial forms;
    Beecken-Mittmann-Saxena, Inf. Comput. 222 (2013), for the rank).
    Returns the larger rank over w = (1, ..., 1) and the ring's weights,
    at the point (3, 7, 11, ...) of F_p^n, from the dict echelon, so it
    is exact at every prime.
    """
    ctx = gens[0].ctx
    p, n = ctx.p, ctx.nvars
    point = [(4 * v + 3) % p for v in range(n)]
    best = 0
    for w in dict.fromkeys(((1,) * n, ctx.weights)):
        degrees = [[mono_wdeg(m, w) for m, _ in g.terms] for g in gens]
        nu = min(min(d) for d in degrees)
        rows = []
        for g, d in zip(gens, degrees):
            row: Dict[int, int] = {}
            for (m, c), e in zip(g.terms, d):
                if e != nu:
                    continue
                for v in range(n):
                    if not m[v]:
                        continue
                    value = c * m[v]
                    for u in range(n):
                        value = value * pow(point[u], m[u] - (u == v), p) % p
                    row[v] = (row.get(v, 0) + value) % p
            rows.append({v: c for v, c in row.items() if c})
        best = max(best, _rank(rows, p))
    return best


# Subsets of generators _reduction_shortcut tries before it gives up.
_MAX_SUBSETS = 64


def _reduction_shortcut(I: Ideal, level1: List[dict]):
    """Certified small reduction of I drawn from its own generators.

    Scans subsets J of 2 to nvars canonical generators in canonical
    order, at most ``_MAX_SUBSETS`` of them, for the Nakayama-form
    certificate I^2 = J*I + m*I^2; graded Nakayama then makes J a
    genuine reduction of I, so the two share the analytic spread while
    J has a much smaller presentation.  Since R = k + m, both sides are
    the k-span of products g_j g_k plus m*I^2, with j in J on the left
    and any j on the right; so the certificate holds exactly when the
    products with a factor in J have the rank of all products modulo
    m*I^2.  Those residues are computed once per ideal, degree by
    degree, from the cached basis of I, in two calls of
    ``_residues_modulo_m`` and no further Groebner basis run.  The first,
    on the reduced basis, is the caller's, passed as ``level1``: it finds
    S, the basis elements outside m*I.  The second reduces the products
    over S x S modulo m*I^2.  A product with a factor in m*I
    lies in m*I^2, so its residue is zero, and by graded Nakayama S
    generates I, so the products over S x S generate I^2: the nonzero
    residues, and so every rank and certificate, are those of all
    products, from degrees up to 2 max deg S only.
    Returns (J, note) for the first subset that passes, else None.
    Entirely deterministic.
    """
    ctx = I.ctx
    n = ctx.nvars
    gens = list(I.gb.basis)
    if len(gens) <= n:
        return None
    p = ctx.p
    S = [i for i, r in enumerate(level1) if r]
    pairs = list(itertools.combinations_with_replacement(S, 2))
    level2 = _residues_modulo_m([gens[i] * gens[k] for i, k in pairs])
    residues = {pair: vec for pair, vec in zip(pairs, level2) if vec}
    full = _rank(residues.values(), p)
    tried = 0
    for d in range(2, n + 1):
        for combo in itertools.combinations(range(len(gens)), d):
            tried += 1
            if tried > _MAX_SUBSETS:
                return None
            rows = [vec for (i, k), vec in residues.items() if i in combo or k in combo]
            if len(rows) >= full and _rank(rows, p) == full:
                note = (
                    "analytic spread via certified reduction: generators "
                    f"{list(combo)} of the reduced basis satisfy "
                    "I^2 = J*I + m*I^2, checked exactly"
                )
                return Ideal(ctx, [gens[i] for i in combo]), note
    return None


@functools.lru_cache(maxsize=1024)
def analytic_spread(I: Ideal) -> SpreadReport:
    """Analytic spread of an ideal: dimension of its special fiber.

    Requires a proper, weighted-homogeneous ideal (hence contained in
    the ideal of variables).  The fiber cone R[It]/(x)R[It] is k[T] modulo
    the fiber kernel of the Rees presentation of I, so its dimension is
    the local analytic spread.  The report records the classical bounds
    ht(I) <= ell <= dim R.

    The spread is bounded by L <= ell <= U, where L is the larger of
    ht(I) and ``_initial_jacobian_rank`` and U the smallest of nvars,
    mu(I) (the rank of the basis's residues modulo m*I) and the size of
    a certified reduction.  For an ideal with more generators than
    variables, a few small subsets of its generators are scanned for
    such a reduction (``_reduction_shortcut``); when one is found, the
    fiber is presented from it instead, which has the same analytic
    spread and a much smaller presentation, and the certificate is
    recorded in the report notes.  Otherwise the ideal is presented
    itself.  When L == U that is ell, and the presentation stays its
    generators: no Rees ring, relation or kernel is built for it unless
    a caller reads a kernel.  Otherwise ell is the dimension of its
    fiber kernel.  The report's ``bounds`` holds (L, U) either way.

    The function is its own memo, a ``functools.lru_cache`` of the last
    1024 ideals asked about, the zero ideal included, so a repeated
    question is one hash lookup: it returns the same report object and
    validates nothing again.  Ideals are keyed by their reduced bases,
    and so is the validation (``_validate_spread_input``).
    """
    _validate_spread_input(I)
    n, gens = I.ctx.nvars, I.gb.basis
    if I.is_zero:
        return SpreadReport(
            ell=0, ring_dim=n, ht=None, presentation=None,
            notes=("zero ideal: fiber is the residue field",),
        )
    level1 = _residues_modulo_m(gens)
    upper = min(n, _rank(level1, I.ctx.p))
    J, notes = I, ()
    found = _reduction_shortcut(I, level1)
    if found is not None:
        J, note = found
        notes = (note,)
        upper = min(upper, len(J.gens))
    ht = height(I)
    # the Jacobian rank is at most ell <= upper, so it cannot raise ht = upper
    lower = ht if ht == upper else max(ht, _initial_jacobian_rank(gens))
    pres = rees_presentation(Filtration.adic(J), 1)
    ell = lower if lower == upper else krull_dim(pres.fiber_kernel)
    return SpreadReport(
        ell=ell, ring_dim=n, ht=ht, presentation=pres, notes=notes, bounds=(lower, upper),
    )


def analytic_spread_truncated(F: Filtration, a: int) -> SpreadReport:
    """Analytic spread of the a-th truncation of F.

    The truncation is ``F.truncate(a)``, which refuses a < 1 and is F
    itself when F is an a-th truncation already.  Every member I_1..I_a
    must pass the checks of ``analytic_spread``.  The height in the
    report is that of I_1.  A truncation generated by I_1 (a = 1, or no
    kept generator above degree 1) has Rees algebra R[I_1 t], so for a
    nonzero I_1 its report is ``analytic_spread(I_1)``'s (memoized,
    bounds, presentation and notes included) with witness e = 1 and
    ``witness_bound`` 3a.  Otherwise ell is the dimension of the
    truncation's own fiber kernel, and the search over e <= 3a for a
    single ideal I_{a,e} whose own analytic spread equals it records
    the least such exponent, or its absence up to the bound
    ``witness_bound``.
    """
    trunc = F.truncate(a)
    for n in range(1, a + 1):
        _validate_spread_input(trunc.materialize(n))
    I1 = trunc.materialize(1)
    bound = 3 * a
    pres = None if a == 1 and not I1.is_zero else rees_presentation(trunc, a)
    if pres is not None and not pres.generators:
        return SpreadReport(
            ell=0, ring_dim=F.ctx.nvars, ht=None, presentation=pres, notes=("zero filtration",),
        )
    if pres is None or all(n == 1 for _, n, _ in pres.generators):
        # the Rees algebra is R[I_1 t], and I_1 = I_{a,1} witnesses its spread
        return replace(analytic_spread(I1), witness_exponent=1, witness_bound=bound)
    ell = krull_dim(pres.fiber_kernel)
    witness = None
    for e in range(1, bound + 1):
        member = trunc.materialize(e)
        if member.is_zero or not member.is_proper:
            continue
        if analytic_spread(member).ell == ell:
            witness = e
            break
    notes = ()
    if witness is None:
        notes = (f"no single-ideal spread witness found up to e = {bound}",)
    return SpreadReport(
        ell=ell, ring_dim=F.ctx.nvars, ht=height(I1), presentation=pres,
        witness_exponent=witness, witness_bound=bound, notes=notes,
    )


@dataclass
class EquimultipleReport:
    """Height and analytic spread of an ideal; it is equimultiple when
    they agree."""

    ht: int
    ell: int

    @property
    def equimultiple(self) -> bool:
        return self.ht == self.ell


def equimultiple_check(I: Ideal) -> EquimultipleReport:
    """Compare height and analytic spread; equal means equimultiple."""
    report = analytic_spread(I)
    if report.ht is None:
        raise ValueError("equimultiplicity needs a nonzero ideal")
    return EquimultipleReport(report.ht, report.ell)


# ---------------------------------------------------------------------------
# spread-zero witnesses and finite-generation probe
# ---------------------------------------------------------------------------

def fiber_nilpotency_witness(
    F: Filtration, n: int, f: Polynomial, max_power: int
) -> Optional[int]:
    """Least m <= max_power with f^m inside m_R * I_{m n}, else None.

    Existence of such witnesses for every element of every member is
    the ideal-theoretic face of the filtration having analytic spread
    zero; an adic filtration of a nonzero ideal never produces one.
    The level n must be at least 1: I_0 is the unit ideal, no member.
    """
    if n < 1:
        raise ValueError(f"filtration level must be at least 1, got {n}")
    if max_power < 1:
        raise ValueError("witness search bound must be at least 1")
    member = F.materialize(n)
    if not member.contains(f):
        raise ValueError("element does not lie in the requested member")
    m_ideal = maximal_ideal(F.ctx)
    for m in range(1, max_power + 1):
        target = ideal_product(m_ideal, F.materialize(m * n))
        if target.contains(f ** m):
            return m
    return None


def finite_generation_probe(
    I: Ideal,
    J: Optional[Ideal] = None,
    a_max: int = 3,
    n_max: Optional[int] = None,
) -> dict:
    """Evidence-gathering probe for the symbolic algebra of I.

    Reports, up to the stated bounds only: (i) for each a <= a_max
    whether the a-th truncation reproduces every symbolic power up to
    n_max (stabilization means the symbolic algebra is generated in
    degrees <= a as far as tested); (ii) the truncation spreads with the
    dichotomy flags; (iii) the spreads of the symbolic powers themselves
    with the below-dimension check at the maximal ideal.  The report is
    a bounded search, never a proof.  Each truncation is built once, for
    the match check, and handed as it is to ``analytic_spread_truncated``,
    whose ``truncate(a)`` returns it.  The first truncation's spread is
    ``analytic_spread(I_1)``, so the first symbolic power's spread is a
    memo hit.
    """
    if a_max < 1:
        raise ValueError("probe bound a_max must be at least 1")
    if n_max is None:
        n_max = a_max + 2
    if n_max < a_max:
        raise ValueError("n_max must be at least a_max")

    F = Filtration.symbolic(I, J)
    n = I.ctx.nvars
    symbolic_members = {k: F.materialize(k) for k in range(1, n_max + 1)}

    matches = {}
    generated_at = None
    truncation_spreads = {}
    truncation_witness = {}
    for a in range(1, a_max + 1):
        # the match check and the spread's witness search share members
        trunc = F.truncate(a)
        ok = all(
            trunc.materialize(k) == symbolic_members[k]
            for k in range(a + 1, n_max + 1)
        )
        matches[a] = ok
        if ok and generated_at is None:
            generated_at = a
        rep = analytic_spread_truncated(trunc, a)
        truncation_spreads[a] = rep.ell
        truncation_witness[a] = rep.witness_exponent

    symbolic_spreads = {
        k: analytic_spread(symbolic_members[k]).ell for k in range(1, a_max + 1)
    }

    return {
        "label": f"evidence up to bound a = {a_max}",
        "evidence_bound": a_max,
        "tested_degree_bound": n_max,
        "ring_dim": n,
        "truncation_matches_symbolic": matches,
        "generated_in_degrees_at_most": generated_at,
        "truncation_spreads": truncation_spreads,
        "truncation_spread_witness": truncation_witness,
        "some_truncation_spread_below_dim": any(
            v < n for v in truncation_spreads.values()
        ),
        "all_truncation_spreads_equal_dim": all(
            v == n for v in truncation_spreads.values()
        ),
        "symbolic_power_spreads": symbolic_spreads,
        "some_symbolic_spread_below_dim": any(
            v < n for v in symbolic_spreads.values()
        ),
    }
