import random
import time

import pytest

from spreadlab import (
    ContextError,
    MonomialOrder,
    RingContext,
    weighted_degree,
)
from spreadlab.ring import MAX_CERTIFIED_PRIME, is_prime, mono_mul, parse_polynomial

from oracles import parse_polynomial_by_arithmetic, subs


def test_add_cancellation(ctx3):
    f = ctx3.poly("x + y") + ctx3.poly("x - y")
    assert f == ctx3.poly("2*x")


def test_mul_by_zero(ctx3):
    f = ctx3.poly("x^2 + 3*y*z - 7")
    assert (f * ctx3.zero()).is_zero


def test_difference_of_squares(ctx3):
    assert ctx3.poly("x + y") * ctx3.poly("x - y") == ctx3.poly("x^2 - y^2")


def test_context_mismatch_raises(ctx3, ctx2):
    with pytest.raises(ContextError):
        ctx3.poly("x") + ctx2.poly("x")


def test_weighted_degree_homogeneous():
    ctx = RingContext(32003, ("x", "y", "z"), weights=(3, 4, 5))
    assert weighted_degree(ctx.poly("y^2 - x*z")) == 8
    assert weighted_degree(ctx.poly("x^3 - y*z")) == 9


def test_weighted_degree_inhomogeneous(ctx2):
    assert weighted_degree(ctx2.poly("x + y^2")) is None


def test_weighted_degree_zero_poly(ctx3):
    with pytest.raises(ValueError):
        weighted_degree(ctx3.zero())


def test_prime_checked():
    with pytest.raises(ValueError):
        RingContext(32001, ("x",))


def test_large_prime_accepted_quickly():
    start = time.perf_counter()
    ctx = RingContext(2**61 - 1, ("x", "y"))
    assert time.perf_counter() - start < 1.0
    assert ctx.poly("x + 2*y").terms[1][1] == 2


@pytest.mark.parametrize("n", (561, 2047, 3215031751))
def test_pseudoprimes_rejected(n):
    # a Carmichael number and strong pseudoprimes to bases 2 and 2, 3, 5, 7
    assert not is_prime(n)
    with pytest.raises(ValueError):
        RingContext(n, ("x",))


def test_primality_agrees_with_trial_division():
    def by_trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    rng = random.Random(5)
    numbers = list(range(3000)) + [rng.randrange(10**6, 10**9) for _ in range(300)]
    assert [n for n in numbers if is_prime(n)] == [n for n in numbers if by_trial(n)]


def test_primality_refused_beyond_certified_range():
    assert 2**89 - 1 > MAX_CERTIFIED_PRIME
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)
    assert not is_prime(2**89)      # a small factor still decides exactly


def test_weights_positive():
    with pytest.raises(ValueError):
        RingContext(32003, ("x", "y"), weights=(1, 0))


def test_parser_round_trip(ctx3):
    rng = random.Random(7)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            m = tuple(rng.randrange(4) for _ in range(3))
            terms[m] = rng.randrange(1, 32003)
        f = ctx3.zero()
        for m, c in terms.items():
            f = f + ctx3.monomial(m, c)
        assert ctx3.poly(str(f)) == f


def test_parser_rejects_garbage(ctx3):
    with pytest.raises(ValueError):
        ctx3.poly("x + $")
    with pytest.raises(ValueError):
        ctx3.poly("w + 1")


def test_parser_accepts_unicode_minus(ctx3):
    assert ctx3.poly("y^2 − x*z") == ctx3.poly("y^2 - x*z")


_PARSER_RINGS = [
    (order, p, names)
    for order, names in [
        (MonomialOrder.grevlex(), ("x", "y", "z")),
        (MonomialOrder.lex(), ("a", "b1", "c_d", "w")),
        (MonomialOrder.weighted_grevlex((3, 4, 5)), ("x", "y", "z")),
    ]
    for p in (2, 101, 32003, 2**61 - 1)
]


def _random_factor_text(rng, names, p):
    if rng.random() < 0.25:
        return str(rng.choice([0, 1, 2, p, p + 1, 2 * p, 3 * p - 1, rng.randrange(1, p), 10**30 + 7]))
    name = rng.choice(names)
    shape = rng.random()
    if shape < 0.45:
        return name
    if shape < 0.55:
        return f"{name}^0"
    if shape < 0.6:
        return f"{name}^2147483648"
    return f"{name}^{rng.randrange(1, 6)}"


def _random_term_text(rng, names, p):
    factors = [_random_factor_text(rng, names, p) for _ in range(rng.randrange(1, 5))]
    if rng.random() < 0.3:                      # a repeated variable inside the term
        factors += [rng.choice(factors)] * rng.randrange(1, 3)
    rng.shuffle(factors)
    return rng.choice(["*", " * ", "*  "]).join(factors)


def _random_valid_text(rng, names, p):
    terms = [_random_term_text(rng, names, p) for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.3:                      # a term and the same term with its sign flipped
        terms.insert(rng.randrange(len(terms) + 1), terms[-1])
        ops = ["+"] * (len(terms) - 1)
        ops[rng.randrange(len(ops))] = "-"
    else:
        ops = [rng.choice(["+", "-", "−"]) for _ in terms[1:]]
    text = rng.choice(["", "", "-", "+", "−", " - "]) + terms[0]
    for op, term in zip(ops, terms[1:]):
        text += rng.choice(["", " ", "\t ", "  "]) + op + rng.choice(["", " ", "  "]) + term
    return rng.choice(["", " ", "\n"]) + text + rng.choice(["", " ", "  "])


_MALFORMED = [
    "", "   ", "-", "+", "−", "2^3", "x^-1", "x^", "x y", "$", "q", "x + q*y",
    "x +", "x*", "x**y", "x++y", "--x", "x^2^3", "x^*2", "x^y", "3 4", "x + $", "(x)",
]


def _random_malformed_text(rng, names, p):
    text = _random_valid_text(rng, names, p)
    kind = rng.randrange(5)
    if kind == 0:                                # truncated input
        return text[: rng.randrange(len(text) + 1)]
    cut = rng.randrange(len(text) + 1)
    if kind == 1:                                # a doubled or stray operator
        return text[:cut] + rng.choice(["++", "--", "**", "^^", "+*", "*-", "^", "^-1"]) + text[cut:]
    if kind == 2:                                # juxtaposed factors
        return text + " " + rng.choice(names)
    if kind == 3:                                # an unknown name or character
        return text[:cut] + rng.choice([" + q", "*qq", "$", "#", "!"]) + text[cut:]
    return rng.choice(_MALFORMED)


def _parse_outcome(parser, ctx, text):
    try:
        return "terms", parser(ctx, text).terms
    except Exception as exc:                    # the exception is part of the contract
        return "error", type(exc), str(exc)


def test_parser_matches_arithmetic_oracle():
    """The one-pass parser gives the oracle's terms on valid text and the
    oracle's exception type and message on malformed text."""
    rng = random.Random(20261018)
    checked = valid = 0
    for order, p, names in _PARSER_RINGS:
        weights = order.weights
        ctx = RingContext(p, names, order, weights)
        texts = list(_MALFORMED) + [f"{p}*{names[0]} + {names[1]}", f"{names[0]}*{names[1]}*{names[0]}^2"]
        for _ in range(120):
            texts.append(_random_valid_text(rng, names, p))
        for _ in range(60):
            texts.append(_random_malformed_text(rng, names, p))
        for text in texts:
            got = _parse_outcome(parse_polynomial, ctx, text)
            assert got == _parse_outcome(parse_polynomial_by_arithmetic, ctx, text), (ctx, text)
            valid += got[0] == "terms"
            checked += 1
    assert checked >= 2000
    assert 0.5 * checked < valid < checked       # both kinds were exercised


def _random_monomials(rng, n, count, maxe=6):
    return [tuple(rng.randrange(maxe) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize(
    "order",
    [
        MonomialOrder.grevlex(),
        MonomialOrder.lex(),
        MonomialOrder.weighted_grevlex((3, 4, 5)),
        MonomialOrder.block((0,), MonomialOrder.grevlex()),
    ],
)
def test_order_axioms(order):
    rng = random.Random(11)
    key = order.key_function(3)
    one = (0, 0, 0)
    for _ in range(300):
        a, b, c = _random_monomials(rng, 3, 3)
        # totality
        assert (key(a) < key(b)) + (key(b) < key(a)) + (a == b) == 1
        # multiplicativity
        if key(a) < key(b):
            assert key(mono_mul(a, c)) < key(mono_mul(b, c))
        # 1 is minimal
        if a != one:
            assert key(one) < key(a)


def test_block_order_elimination_property():
    order = MonomialOrder.block((0, 1), MonomialOrder.grevlex())
    key = order.key_function(4)
    rng = random.Random(3)
    for _ in range(200):
        u = tuple(rng.randrange(5) for _ in range(4))
        v = (0, 0) + tuple(rng.randrange(5) for _ in range(2))
        if u[0] + u[1] > 0:
            assert key(u) > key(v)


def test_leading_monomial_multiplicative(ctx3):
    rng = random.Random(5)
    for _ in range(60):
        f = ctx3.zero()
        g = ctx3.zero()
        for _ in range(rng.randrange(1, 4)):
            f = f + ctx3.monomial(tuple(rng.randrange(4) for _ in range(3)),
                                  rng.randrange(1, 32003))
        for _ in range(rng.randrange(1, 4)):
            g = g + ctx3.monomial(tuple(rng.randrange(4) for _ in range(3)),
                                  rng.randrange(1, 32003))
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).lm() == mono_mul(f.lm(), g.lm())


def test_field_inverses(ctx3):
    rng = random.Random(13)
    p = ctx3.p
    for _ in range(200):
        a = rng.randrange(1, p)
        assert a * pow(a, -1, p) % p == 1


def test_pow_and_subs(ctx3):
    f = ctx3.poly("x + y")
    assert f ** 2 == ctx3.poly("x^2 + 2*x*y + y^2")
    g = subs(ctx3.poly("x^2 - z"), {"x": ctx3.poly("y + 1")})
    assert g == ctx3.poly("y^2 + 2*y + 1 - z")
    with pytest.raises(ValueError):
        f ** -1
