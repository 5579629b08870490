"""Multivariate polynomial arithmetic over a prime field.

A :class:`RingContext` fixes the characteristic, the variable names, a
monomial order and a positive weight vector.  Polynomials are immutable
term lists kept strictly descending in the ring's order; coefficients
are plain Python ints in ``[1, p)``.  The maximal ideal of the (graded)
local model is always the ideal generated by all variables, and local
computations are only meaningful for ideals that are homogeneous under
the ring's weights -- callers that need that guarantee go through
:func:`weighted_degree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, neg
from typing import Optional


class ContextError(ValueError):
    """Operands belong to different ring contexts."""


class HomogeneityError(ValueError):
    """Input violates the weighted-homogeneity convention."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, k): Miller-Rabin to the first k small primes as bases is exact
# for every n < bound (Jaeschke 1993; Sorenson and Webster 2017).
_MR_RANGES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
MAX_CERTIFIED_PRIME = _MR_RANGES[-1][0] - 1


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division by the primes up to 41,
    then Miller-Rabin with a base set proven exact below MAX_CERTIFIED_PRIME.

    Above that range a value without a small factor raises ValueError
    rather than receive a probabilistic answer.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 1681:                      # 41^2: trial division was complete
        return True
    for bound, k in _MR_RANGES:
        if n < bound:
            break
    else:
        raise ValueError(
            f"{n} exceeds {MAX_CERTIFIED_PRIME}, the largest value whose "
            "primality is decided exactly here"
        )
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# monomials: exponent tuples
# ---------------------------------------------------------------------------

def mono_mul(a, b):
    return tuple(map(add, a, b))

def mono_divides(a, b):
    """True when x^a divides x^b componentwise."""
    return all(x <= y for x, y in zip(a, b))

def mono_wdeg(a, w):
    return sum(x * y for x, y in zip(a, w))


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative total order on exponent tuples.

    Orders are exposed as additive key functions: ``key(a)`` is a tuple
    of ints, tuples compare the way the monomials do, and
    ``key(a*b) == key(a) + key(b)`` componentwise.  An order holds no
    weights: the weighted kinds read the weights of the ring it orders,
    which :class:`RingContext` validates and hands to ``key_function``.
    Kinds:

    * ``grevlex`` -- degree, ties by reverse lexicography.
    * ``lex`` -- plain lexicographic on the exponent tuple.
    * ``wgrevlex`` -- weighted degree first, grevlex tiebreak.
    * ``block`` -- eliminated variables dominate: any monomial touching
      an eliminated variable outranks every monomial free of them, which
      the inner order compares under the weights of the variables kept.
    * ``saturation`` -- weighted degree first, then the degree in one
      variable x_i ascending, grevlex tiebreak.  In a weighted-homogeneous
      polynomial the leading monomial has the least x_i-degree, so x_i
      divides the polynomial whenever it divides its leading monomial
      (the revlex property of Bayer-Stillman); ``ideals._saturation`` reads
      I : x_i^infinity off one Groebner basis in this order.
    """

    kind: str = "grevlex"
    elim: Optional[tuple] = None          # variable indices, block only
    inner: Optional["MonomialOrder"] = None
    var: Optional[int] = None             # variable index, saturation only

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def weighted_grevlex() -> "MonomialOrder":
        return MonomialOrder("wgrevlex")

    @staticmethod
    def block(elim_indices, inner: "MonomialOrder" = None) -> "MonomialOrder":
        return MonomialOrder(
            "block",
            elim=tuple(sorted(elim_indices)),
            inner=inner or MonomialOrder.grevlex(),
        )

    @staticmethod
    def saturation(var: int) -> "MonomialOrder":
        return MonomialOrder("saturation", var=int(var))

    def key_function(self, weights: tuple):
        """Specialized exponent-tuple -> flat int-tuple key closure for a
        ring with these weights, one positive int per variable."""
        k = self.kind
        nvars = len(weights)
        if k == "grevlex":
            def key(exps):
                return (sum(exps), *map(neg, reversed(exps)))
            return key
        if k == "lex":
            return tuple
        if k == "wgrevlex":
            def key(exps):
                return (
                    sum(e * x for e, x in zip(exps, weights)),
                    sum(exps),
                    *map(neg, reversed(exps)),
                )
            return key
        if k == "saturation":
            i = self.var
            if not 0 <= i < nvars:
                raise ValueError("saturation variable index out of range")
            def key(exps):
                return (
                    sum(e * x for e, x in zip(exps, weights)),
                    -exps[i],
                    sum(exps),
                    *map(neg, reversed(exps)),
                )
            return key
        if k == "block":
            elim = self.elim
            if elim and (min(elim) < 0 or max(elim) >= nvars):
                raise ValueError("block elimination index out of range")
            rest = tuple(i for i in range(nvars) if i not in set(elim))
            inner_key = self.inner.key_function(tuple(weights[i] for i in rest))
            def key(exps):
                inside = [exps[i] for i in elim]
                head = (sum(inside), *map(neg, reversed(inside)))
                return head + inner_key(tuple(exps[i] for i in rest))
            return key
        raise ValueError(f"unknown order kind {k!r}")


# ---------------------------------------------------------------------------
# ring context
# ---------------------------------------------------------------------------

DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class RingContext:
    """Ambient polynomial ring data: F_p[variables] with order and weights.

    The weights default to all 1.  They are checked here, one positive
    int per variable, and are the only weights the ring has: they decide
    homogeneity, the engine's sugar and the weighted orders' keys."""

    p: int = DEFAULT_PRIME
    variables: tuple = ("x", "y", "z")
    order: MonomialOrder = field(default_factory=MonomialOrder.grevlex)
    weights: tuple = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        vs = tuple(self.variables)
        if len(vs) < 1:
            raise ValueError("need at least one variable")
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "variables", vs)
        w = self.weights
        w = tuple(int(x) for x in w) if w is not None else (1,) * len(vs)
        if len(w) != len(vs):
            raise ValueError("weight vector length mismatch")
        if any(x <= 0 for x in w):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_keyfn", self.order.key_function(w))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def key(self, mono):
        return self._keyfn(mono)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    # element construction -------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, name: str) -> "Polynomial":
        i = self.var_index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), 1),))

    def gens(self):
        return [self.var(v) for v in self.variables]

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        c = coeff % self.p
        return Polynomial(self, ((exps, c),)) if c else self.zero()

    def poly(self, source) -> "Polynomial":
        if isinstance(source, Polynomial):
            if source.ctx != self:
                raise ContextError("polynomial from a different ring")
            return source
        if isinstance(source, int):
            return self.const(source)
        return parse_polynomial(self, source)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable polynomial: terms sorted strictly descending in the order.

    The zero polynomial is the empty term tuple.  All arithmetic is exact
    mod p and restores the sortedness invariant.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: RingContext, terms):
        self.ctx = ctx
        self.terms = tuple(terms)
        self._hash = None

    @classmethod
    def _from_dict(cls, ctx: RingContext, d: dict) -> "Polynomial":
        p = ctx.p
        items = [(m, c % p) for m, c in d.items() if c % p]
        items.sort(key=lambda t: ctx.key(t[0]), reverse=True)
        return cls(ctx, items)

    # basic inspection ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lm(self):
        """Leading monomial (exponent tuple)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def lc(self) -> int:
        """Leading coefficient.  Public API beside ``lm`` with no caller in
        the library; the term-by-term division oracles use it."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        inv = pow(self.terms[0][1], -1, self.ctx.p)
        if inv == 1:
            return self
        p = self.ctx.p
        return Polynomial(self.ctx, tuple((m, (c * inv) % p) for m, c in self.terms))

    def constant_value(self):
        """Coefficient view of a constant polynomial, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and all(e == 0 for e in self.terms[0][0]):
            return self.terms[0][1]
        return None

    # arithmetic -------------------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.ctx.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextError("mixed ring contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return Polynomial._from_dict(self.ctx, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return Polynomial(self.ctx, tuple((m, p - c) for m, c in self.terms))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ctx.p
            if c == 0:
                return self.ctx.zero()
            p = self.ctx.p
            return Polynomial(self.ctx, tuple((m, (k * c) % p) for m, k in self.terms))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                d[m] = d.get(m, 0) + c1 * c2
        return Polynomial._from_dict(self.ctx, d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def deriv(self, name: str) -> "Polynomial":
        i = self.ctx.var_index(name)
        d = {}
        for m, c in self.terms:
            e = m[i]
            if e == 0:
                continue
            mm = list(m)
            mm[i] = e - 1
            d[tuple(mm)] = d.get(tuple(mm), 0) + c * e
        return Polynomial._from_dict(self.ctx, d)

    # comparisons / hashing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ctx.const(other)
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.variables, self.ctx.p, self.terms))
        return self._hash

    # rendering ----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.ctx.p
        names = self.ctx.variables
        chunks = []
        for m, c in self.terms:
            signed = c if c <= p // 2 else c - p
            sign = "-" if signed < 0 else "+"
            mag = abs(signed)
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# weighted homogeneity
# ---------------------------------------------------------------------------

def weighted_degree(f: Polynomial) -> Optional[int]:
    """Common weighted degree of all terms of f under the ring's weights,
    or None if f is inhomogeneous.

    Raises ValueError on the zero polynomial (its degree is undefined).
    """
    if f.is_zero:
        raise ValueError("weighted degree of the zero polynomial is undefined")
    degs = {mono_wdeg(m, f.ctx.weights) for m, _ in f.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def is_weighted_homogeneous(f: Polynomial) -> bool:
    if f.is_zero:
        return True
    return weighted_degree(f) is not None


# ---------------------------------------------------------------------------
# text syntax
#
#   poly   := [sign] term (sign term)*      sign: "+" or "-" (U+2212 reads as "-")
#   term   := factor ("*" factor)*
#   factor := int | name ["^" int]
#
# An int is a run of digits and a name a letter or "_" followed by letters,
# digits or "_"; whitespace between tokens is ignored.  "^" applies to a
# variable only, so "2^3" is refused, and coefficients are reduced mod p.
# ---------------------------------------------------------------------------

def _tokenize(s: str):
    s = s.replace("−", "-")  # unicode minus
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            yield ch, ch
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            yield "int", s[i:j]
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            yield "name", s[i:j]
            i = j
            continue
        raise ValueError(f"unexpected character {ch!r} in polynomial")


def parse_polynomial(ctx: RingContext, text: str) -> Polynomial:
    """Read ``text`` in one pass over its tokens.

    Each term is a signed integer coefficient times an exponent list; a
    repeated variable adds to its exponent.  Terms with equal monomials
    sum in one dict, which is reduced mod p and sorted once.
    """
    tokens = list(_tokenize(text))
    if not tokens:
        raise ValueError("empty polynomial text")
    tokens.append((None, None))           # end marker: peeks see (None, None)
    index = {name: i for i, name in enumerate(ctx.variables)}
    nvars = ctx.nvars
    acc = {}
    pos = 0
    coeff = 1
    if tokens[0][0] in ("+", "-"):
        coeff = -1 if tokens[0][0] == "-" else 1
        pos = 1
    while True:
        exps = [0] * nvars
        while True:                       # factors of one term, joined by *
            tk, tv = tokens[pos]
            pos += 1
            if tk == "int":
                coeff *= int(tv)
            elif tk == "name":
                i = index.get(tv)
                if i is None:
                    ctx.var_index(tv)     # raises "unknown variable ..."
                if tokens[pos][0] == "^":
                    tk, tv = tokens[pos + 1]
                    if tk != "int":
                        raise ValueError(
                            "unexpected end of polynomial" if tk is None
                            else f"expected int, found {tv!r}"
                        )
                    exps[i] += int(tv)
                    pos += 2
                else:
                    exps[i] += 1
            else:
                raise ValueError(f"expected a factor, found {tv!r}")
            if tokens[pos][0] != "*":
                break
            pos += 1
        mono = tuple(exps)
        acc[mono] = acc.get(mono, 0) + coeff
        tk, tv = tokens[pos]
        if tk is None:
            return Polynomial._from_dict(ctx, acc)
        if tk != "+" and tk != "-":
            raise ValueError(f"expected + or -, found {tv!r}")
        coeff = -1 if tk == "-" else 1
        pos += 1
