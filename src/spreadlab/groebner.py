"""Buchberger engine: canonical reduced Groebner bases and normal forms.

Pair selection follows the sugar strategy (Giovini, Mora, Niesi,
Robbiano and Traverso, ISSAC 1991) over the ring's weights, with the
Gebauer-Moeller pair pruning criteria.  Each basis element carries a
sugar: an input's is the largest weighted degree of its terms, and an
element reduced from pair (i, j) takes that pair's sugar,
max(sugar_i + wdeg(lcm / lm_i), sugar_j + wdeg(lcm / lm_j)).  Pairs are
reduced by smallest sugar first, then smallest lcm in the ring's order.
For weighted-homogeneous input the sugar is the weighted degree of the
lcm, so a block order that eliminates a variable still proceeds degree
by degree.  The weights steer only which pair comes next, never the
order itself.  All reductions are monic and divisor choice is by basis
index, so the output is the unique reduced basis of the ideal for the
ring's order -- identical for any ordering or rescaling of the input
generators, and for any selection strategy.

Internally a polynomial is a list of (key, exponents, coefficient)
triples sorted strictly descending by key.  Both are packed integers
(Monagan and Pearce, CASC 2007):

* the exponents hold one 32-bit field per variable whose top bit is a
  guard kept clear, so x^a divides x^b exactly when
  ``((b | guard) - a) & guard == guard``, a product is ``a + b``, a
  quotient ``a - b``, and the lcm is a per-field max built from the same
  mask.  The fields are the little-endian bytes of one ``struct``
  record, so packing or unpacking a vector is one call;
* the key is the order's additive key tuple with one field per
  component, wide enough for the key of the all-(2^31 - 1) exponent
  vector, so integer comparison and addition agree with the tuple order
  for every exponent vector the guard admits.  One more field below
  them holds the weighted degree over the ring's weights, which the
  sugar bookkeeping reads with a mask; distinct monomials differ in an
  order field, so it never decides a comparison.

Every exponent therefore stays below 2^31: inputs beyond that, and any
exponent that reaches it in an S-polynomial or in a reduction step,
raise ValueError rather than return a basis computed from wrapped keys.

Every reduction -- of an input, an S-polynomial, a tail in the final
interreduction, a normal form asked of a finished basis, or the exact
division ``divide_exact`` that colon ideals use -- runs in
``_normal_form_terms`` over one table of pending terms and a heap of
their packed keys (Monagan and Pearce's heap division), so each term is
merged once; an S-polynomial enters the table as its two shifted tails,
and a division records the quotient terms of its reduction steps.  A
lone unshifted, unscaled piece (an input, a tail, or a normal form's
argument) first has its irreducible leading terms copied straight into
the remainder, so most such reductions, which take no step at all,
put no term in the table or heap.

A run (``_Run``) holds the monic elements, their sugars and the live
pairs, and has two drivers.  ``groebner_basis`` adds every input, then
completes the pair set once and interreduces.  ``new_generators`` adds
base generators and completes, then takes candidates in order: each is
reduced by the elements so far, a Groebner basis of what was added, and
a nonzero remainder is installed and the pairs completed again, so one
run decides every candidate's membership.

Inputs are packed by the codec of the ring the computation runs in, one
per ring value, shared through a bounded ``functools.lru_cache``.  A
generator may come from any ring with that ring's characteristic and
variables; its terms are re-sorted by packed key when its order differs,
so callers that change orders or weights (eliminations, saturations)
hand polynomials over as they are.  Any other ring raises ContextError.
"""

from __future__ import annotations

import functools
import heapq
import struct
from operator import mul
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from .ring import ContextError, Polynomial, RingContext

_FIELD = 32
_GUARD_SHIFT = _FIELD - 1
_MAX_EXP = (1 << _GUARD_SHIFT) - 1
_RANGE_ERROR = f"exponent above {_MAX_EXP} (2^31 - 1) in a Groebner computation"


class _Codec:
    """Packing of one ring's exponent tuples and order keys."""

    __slots__ = ("guard", "fields", "key_weights", "wdeg_mask")

    def __init__(self, ctx: RingContext):
        n = ctx.nvars
        self.fields = struct.Struct(f"<{n}I")
        self.guard = sum(1 << (_FIELD * j + _GUARD_SHIFT) for j in range(n))
        # Every key component is a sign-definite linear form in the
        # exponents, so for admitted vectors it lies between 0 and its
        # value at the all-maximal vector, and so does the difference of
        # two keys' components.  Only the weighted kinds read ctx.weights,
        # a block order through its inner order alone, so the width comes
        # from the key, not from ctx.weights.
        top = ctx.key((_MAX_EXP,) * n)
        bits = max(abs(c) for c in top).bit_length()
        # the low field: weighted degree over ctx.weights
        wbits = (_MAX_EXP * sum(ctx.weights)).bit_length()
        self.wdeg_mask = (1 << wbits) - 1

        def pack_key(k, w):
            out = 0
            for c in k:
                out = (out << bits) + c
            return (out << wbits) + w

        # keys are additive, so a packed key is a dot product
        self.key_weights = tuple(
            pack_key(ctx.key(tuple(int(i == j) for i in range(n))), ctx.weights[j])
            for j in range(n)
        )

    def terms(self, f: Polynomial):
        pack, weights = self.fields.pack, self.key_weights
        out = []
        for m, c in f.terms:
            if max(m) > _MAX_EXP:
                raise ValueError(_RANGE_ERROR)
            out.append((sum(map(mul, m, weights)), int.from_bytes(pack(*m), "little"), c))
        return out

    def key(self, e: int) -> int:
        fields = self.fields
        return sum(map(mul, fields.unpack(e.to_bytes(fields.size, "little")), self.key_weights))

    def poly(self, ctx: RingContext, terms) -> Polynomial:
        unpack, size = self.fields.unpack, self.fields.size
        return Polynomial(ctx, tuple((unpack(e.to_bytes(size, "little")), c) for _, e, c in terms))


@functools.lru_cache(maxsize=256)
def _codec(ctx: RingContext) -> _Codec:
    """The packing of ctx's ring, one per ring value: every job builds
    fresh elimination and Rees rings, but their shapes recur."""
    return _Codec(ctx)


def _packed(gens, ctx: RingContext, codec: _Codec):
    """The packed terms of each generator in ctx's order, descending.

    Text is parsed in ctx.  A polynomial from another ring with ctx's
    characteristic and variables is packed by ctx's codec, and its terms
    are sorted by the packed keys when that ring's order or weights
    differ, since a weighted order reads its ring's weights; any other
    ring raises ContextError.  A zero generator packs as [].
    """
    out = []
    for g in gens:
        if not isinstance(g, Polynomial):
            g = ctx.poly(g)
        own = g.ctx
        if own is ctx:
            out.append(codec.terms(g))
            continue
        if own.p != ctx.p or own.variables != ctx.variables:
            raise ContextError("generators from different rings")
        terms = codec.terms(g)
        if own.order != ctx.order or own.weights != ctx.weights:
            terms.sort(reverse=True)
        out.append(terms)
    return out


def _normal_form_terms(pieces, basis, p, guard, quotient=None):
    """Remainder of a sum of pieces modulo the monic basis, and the
    number of reduction steps taken.

    A piece (terms, key shift, exponent shift, scale) stands for its
    terms times that monomial and scalar.  ``basis`` holds (lm key, lm,
    tail) entries.  A lone piece with no shift and scale 1 (an input, a
    tail in the final interreduction, or a normal form asked of a basis)
    holds reduced terms in descending order, so its leading terms that no
    leading monomial divides are copied straight into the remainder, and
    only the rest of it goes on.  Pending terms live in one table from
    packed key to [coefficient, packed exponents], with coefficients
    reduced mod p only when popped, and a heap of negated keys.  The
    largest pending term is popped and, if some leading monomial divides
    it, reduced by the first such entry in basis order, whose tail joins
    as one more piece.  A packed key determines its monomial, and every
    added term lies below the popped key, so a key enters the heap once,
    the remainder stays descending after the copied terms, and no
    remainder term is divisible by any leading monomial.  Every added
    exponent is checked against the guard bit, so one that reaches 2^31
    raises ValueError.  When a ``quotient`` list is passed, each step
    appends its quotient term (popped key - lm key, popped exponents -
    lm, coefficient), the term the entry's polynomial was multiplied by.
    """
    rem = []
    if len(pieces) == 1 and pieces[0][1:] == (0, 0, 1):
        terms = pieces[0][0]
        n = 0       # leading terms that no leading monomial divides
        for _, e, _ in terms:
            eg = e | guard
            for entry in basis:
                if (eg - entry[1]) & guard == guard:
                    break
            else:
                n += 1
                continue
            break
        if n:
            rem = terms[:n]
            pieces = [(terms[n:], 0, 0, 1)]
    pending = {}
    heap = []
    push = heapq.heappush

    def add(terms, qkey, qexp, scale):
        for k, e, c in terms:
            e += qexp
            if e & guard:
                raise ValueError(_RANGE_ERROR)
            k += qkey
            entry = pending.get(k)
            if entry is None:
                pending[k] = [c * scale, e]
                push(heap, -k)
            else:
                entry[0] += c * scale

    for piece in pieces:
        add(*piece)
    steps = 0
    pop = heapq.heappop
    while heap:
        k = -pop(heap)
        c, e = pending.pop(k)
        c %= p
        if not c:
            continue
        eg = e | guard
        for hkey, hm, tail in basis:
            if (eg - hm) & guard == guard:
                add(tail, k - hkey, e - hm, p - c)
                if quotient is not None:
                    quotient.append((k - hkey, e - hm, c))
                steps += 1
                break
        else:
            rem.append((k, e, c))
    return rem, steps


def divide_exact(f: Polynomial, b: Polynomial) -> Polynomial:
    """The exact quotient f / b; ValueError if b is zero or does not divide f.

    f scaled by lc(b)^-1 is the only piece and the monic b the only
    basis entry of one ``_normal_form_terms`` run, so the recorded
    quotient terms are f / b.  With one divisor each step's quotient key
    is the popped key less a fixed one, and popped keys fall, so the
    terms come out strictly descending.
    """
    if f.ctx != b.ctx:
        raise ContextError("polynomials from different rings")
    if b.is_zero:
        raise ValueError("division by the zero polynomial")
    ctx = f.ctx
    codec = _codec(ctx)
    divisor = codec.terms(b)
    scale = pow(divisor[0][2], -1, ctx.p)
    divisor = _monic(divisor, ctx.p)
    quotient = []
    rem, _ = _normal_form_terms(
        [(codec.terms(f), 0, 0, scale)],
        [(divisor[0][0], divisor[0][1], divisor[1:])],
        ctx.p,
        codec.guard,
        quotient,
    )
    if rem:
        raise ValueError("inexact polynomial division")
    return codec.poly(ctx, quotient)


def _monic(terms, p):
    c = terms[0][2]
    if c == 1:
        return terms
    inv = pow(c, -1, p)
    return [(k, m, (cc * inv) % p) for k, m, cc in terms]


def _lcm(a, b, guard):
    ge = ((a | guard) - b) & guard          # guard bit set where a >= b
    return b ^ ((a ^ b) & (ge - (ge >> _GUARD_SHIFT)))


class _Run:
    """One Buchberger run: its monic elements, their sugars, the live
    pairs, and the engine's counters.

    ``add`` reduces a packed input by the elements so far and installs a
    nonzero remainder; ``complete`` reduces pairs until none is left, and
    then the elements are a Groebner basis of everything added.
    ``groebner_basis`` adds every input and completes once.
    ``new_generators`` completes before each candidate, so a candidate's
    remainder is zero exactly when the ideal holds it.
    """

    __slots__ = ("p", "codec", "entries", "excess", "heap", "lcms", "stats")

    def __init__(self, ctx: RingContext):
        self.p = ctx.p
        self.codec = _codec(ctx)
        self.entries = []   # (lm key, lm, tail) of each monic element
        self.excess = []    # sugar minus the weighted degree of the lm, per element
        self.heap = []      # (sugar, lcm key, i, j)
        self.lcms = {}      # live (i, j) pairs, i < j -> packed lcm
        self.stats = dict.fromkeys((
            "pairs_created", "pruned_m", "pruned_f", "pruned_b",
            "spolys_reduced", "zero_reductions", "reduction_steps",
        ), 0)

    def add(self, f) -> bool:
        """Reduce the packed f by the elements; install it if nonzero."""
        h, n = _normal_form_terms([(f, 0, 0, 1)], self.entries, self.p, self.codec.guard)
        self.stats["reduction_steps"] += n
        if h:
            wmask = self.codec.wdeg_mask
            self._install(_monic(h, self.p), max(k & wmask for k, _, _ in f))
        return bool(h)

    def complete(self) -> None:
        """Reduce the live pairs, smallest sugar first, until none is left."""
        entries, heap, lcms, p = self.entries, self.heap, self.lcms, self.p
        guard = self.codec.guard
        stats = self.stats
        while heap:
            sugar, lk, i, j = heapq.heappop(heap)
            l = lcms.pop((i, j), None)
            if l is None:
                continue
            s = [
                (entries[i][2], lk - entries[i][0], l - entries[i][1], 1),
                (entries[j][2], lk - entries[j][0], l - entries[j][1], p - 1),
            ]
            h, n = _normal_form_terms(s, entries, p, guard)
            stats["reduction_steps"] += n
            stats["spolys_reduced"] += 1
            if h:
                self._install(_monic(h, p), sugar)
            else:
                stats["zero_reductions"] += 1

    def reduced(self):
        """The canonical reduced basis of the elements, packed."""
        basis, n = _reduce_basis(self.entries, self.p, self.codec.guard)
        self.stats["reduction_steps"] += n
        return basis

    def _install(self, h, sugar):
        """Gebauer-Moeller update of the pair set for a new element h."""
        entries, lcms, codec = self.entries, self.lcms, self.codec
        guard = codec.guard
        t = len(entries)
        lm_h = h[0][1]
        with_h = [_lcm(e[1], lm_h, guard) for e in entries]
        # M: keep only divisibility-minimal lcms.  A divisor is never a
        # larger integer, so one ascending pass against the minimal lcms
        # found so far decides each one.
        minimal = set()
        for l in sorted(set(with_h)):
            lg = l | guard
            for m in minimal:
                if (lg - m) & guard == guard:
                    break
            else:
                minimal.add(l)
        # F: one pair per minimal lcm, its first, and none at all if some
        # pair with that lcm is coprime
        first = {}
        coprime = set()
        kept = 0
        for i, l in enumerate(with_h):
            if l in minimal:
                kept += 1
                first.setdefault(l, i)
                if entries[i][1] + lm_h == l:
                    coprime.add(l)
        # B: retire old pairs strictly refined by the new leading monomial
        pruned_b = 0
        for (i, j) in list(lcms):
            l = lcms[(i, j)]
            if (
                ((l | guard) - lm_h) & guard == guard
                and with_h[i] != l
                and with_h[j] != l
            ):
                del lcms[(i, j)]
                pruned_b += 1
        stats = self.stats
        stats["pairs_created"] += t
        stats["pruned_m"] += t - kept
        stats["pruned_f"] += kept - len(first) + len(coprime)
        stats["pruned_b"] += pruned_b
        wmask = codec.wdeg_mask
        excess = self.excess
        excess.append(sugar - (h[0][0] & wmask))
        entries.append((h[0][0], lm_h, h[1:]))
        for l, i in first.items():
            if l not in coprime:
                lcms[(i, t)] = l
                lk = codec.key(l)
                heapq.heappush(self.heap, ((lk & wmask) + max(excess[i], excess[t]), lk, i, t))


def new_generators(base, candidates, ctx: RingContext) -> list:
    """The candidates, in order, that lie outside the ideal generated by
    base and the candidates kept before them, from one engine run.

    The run adds base and completes its pairs; then each candidate is
    reduced by the elements so far, which form a Groebner basis, so a
    zero remainder means it lies inside.  A nonzero remainder is
    installed and the pairs are completed again before the next
    candidate.  Exact for any generators, homogeneous or not.  Inputs
    are read as ``groebner_basis`` reads them.
    """
    run = _Run(ctx)
    for f in _packed(base, ctx, run.codec):
        run.add(f)
    kept = []
    for g, f in zip(candidates, _packed(candidates, ctx, run.codec)):
        run.complete()
        if run.add(f):
            kept.append(g)
    return kept


def _reduce_basis(elements, p, guard):
    """Minimalize and tail-reduce the (lm key, lm, tail) entries of monic
    elements to the canonical reduced basis; also return the number of
    reduction steps the tail reduction took.

    In ascending order a monomial can only be divisible by leading
    monomials that come before it.  So one pass keeps each element whose
    leading monomial no kept one divides, and reduces its tail by the
    kept elements, which are already reduced.
    """
    entries = []    # (lm key, lm, tail) of the kept, reduced elements
    steps = 0
    for lkey, lm, tail in sorted(elements):
        lmg = lm | guard
        for e in entries:
            if (lmg - e[1]) & guard == guard:
                break
        else:
            tail, n = _normal_form_terms([(tail, 0, 0, 1)], entries, p, guard)
            steps += n
            entries.append((lkey, lm, tail))
    return [[(k, m, 1)] + tail for k, m, tail in entries], steps


class GroebnerBasis:
    """Canonical reduced basis of an ideal for the ring's order.

    ``stats`` is a read-only mapping of the Buchberger run that produced
    the basis, or None for a basis assembled by other means: pairs
    created, pairs pruned by the M, F and B criteria, S-polynomials
    reduced, how many of those reduced to zero, and reduction steps
    (divisor subtractions, the final interreduction included).  Every
    created pair is either pruned or reduced.  The counts take no part
    in equality or hashing.
    """

    __slots__ = ("ctx", "basis", "_entries", "_stats")

    def __init__(self, ctx: RingContext, basis: Sequence[Polynomial], stats=None):
        self.ctx = ctx
        self.basis = tuple(basis)
        self._entries = None
        self._stats = None if stats is None else MappingProxyType(dict(stats))

    @property
    def stats(self):
        return self._stats

    def _divisors(self):
        if self._entries is None:
            codec = _codec(self.ctx)
            self._entries = []
            for g in self.basis:
                t = codec.terms(g)
                self._entries.append((t[0][0], t[0][1], t[1:]))
        return self._entries

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ctx != self.ctx:
            raise ContextError("polynomial from a different ring")
        if f.is_zero or not self.basis:
            return f
        codec = _codec(self.ctx)
        rem, _ = _normal_form_terms(
            [(codec.terms(f), 0, 0, 1)], self._divisors(), self.ctx.p, codec.guard
        )
        return codec.poly(self.ctx, rem)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    @property
    def is_zero_ideal(self) -> bool:
        return not self.basis

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].constant_value() == 1

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ctx == other.ctx
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.variables, self.basis))

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"GroebnerBasis({[str(g) for g in self.basis]})"


def groebner_basis(gens: Iterable[Polynomial], ctx: Optional[RingContext] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens in ctx's ring.

    ctx defaults to the first generator's ring.  Text is parsed in ctx,
    and a generator may come from any ring with ctx's characteristic and
    variables, whatever its order and weights: it is packed by ctx's
    codec and its terms sorted by ctx's order.  A generator from any
    other ring raises ContextError.  An empty or all-zero generator
    list yields the basis of the zero ideal (an empty basis), not an
    error.
    """
    gens = list(gens)
    if ctx is None:
        if not gens:
            raise ValueError("need a ring context for an empty generator list")
        ctx = gens[0].ctx
    codec = _codec(ctx)
    inputs = [f for f in _packed(gens, ctx, codec) if f]
    if not inputs:
        return GroebnerBasis(ctx, ())
    run = _Run(ctx)
    for f in inputs:
        run.add(f)
    run.complete()
    return GroebnerBasis(ctx, [codec.poly(ctx, t) for t in run.reduced()], run.stats)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo G; zero exactly when f lies in the ideal."""
    return G.normal_form(f)
