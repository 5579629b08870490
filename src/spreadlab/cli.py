"""Command-line front end: session files in, JSON lines out.

A session file declares one ring, then named ideals and filtrations:

    ring p=32003 vars=x,y,z order=grevlex weights=3,4,5
    ideal p = y^2 - x*z, x^3 - y*z, x^2*y - z^2
    ideal zero = 0
    filtration S = symbolic:p
    filtration A = adic:p
    filtration T = trivial-m

The ring line takes each of the keys ``p``, ``vars``, ``order`` and
``weights`` at most once, and every variable name must read as one name
token of the polynomial syntax in ``ring``.  Every declaration error
names its line: ``SessionFile.parse`` prefixes it to any error raised
while it handles that line, the ring's, the polynomial parser's and the
filtration's own checks included.

Lines starting with ``#`` are comments.  Every subcommand is one entry
of ``COMMANDS``: its name, help, arguments and a handler returning its
result fields.  ``main`` wraps those fields in the shared envelope and
prints exactly one JSON object (sorted keys, every key a string,
compact separators) on stdout.  The envelope carries the schema
version, the operation name and an input digest, plus the seed, point
count, constraint and prime on the randomized fat-point commands.  The
digest is the first 12 hex digits of a SHA-256 over the session file
text (for fat points: the subcommand name and the sampled points),
followed by the command's own arguments in declaration order.  Exit
codes: 0 success, 2 validation problems (including an unreadable
session file or a malformed declaration), 1 internal errors.

One process reuses a parsed session, with the bases and filtration
members its ideals have computed, for every call whose session file has
the same text: ``_session`` keeps at most ``SESSION_CACHE_SIZE``
sessions, least recently used out first, and a kept session's members
stay alive until it is evicted.  The file is read on every call, so an
edited file is parsed again; a parse error is raised, never kept.  The
fat-point commands sample their scheme on every call.  Only they import
``fatpoints``, and with it numpy, so the session commands run without
numpy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import Callable, NamedTuple, Optional

from .filtrations import (
    Filtration,
    analytic_spread,
    analytic_spread_truncated,
    equimultiple_check,
    fiber_nilpotency_witness,
    finite_generation_probe,
    symbolic_power,
)
from .groebner import normal_form
from .ideals import (
    Ideal,
    intersect,
    krull_dim,
    height,
    monomial_integral_closure,
    quotient,
    saturate,
)
from .ring import DEFAULT_PRIME, MonomialOrder, RingContext, _tokenize

SCHEMA = "1"

_ORDERS = {
    "grevlex": lambda weights: MonomialOrder.grevlex(),
    "lex": lambda weights: MonomialOrder.lex(),
    "weighted-grevlex": lambda weights: MonomialOrder.weighted_grevlex(weights),
}

_RING_KEYS = ("p", "vars", "order", "weights")


def _integer(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key}= wants an integer, got {text!r}") from None


def _is_variable_name(name: str) -> bool:
    """True when the polynomial syntax reads ``name`` as one variable token."""
    try:
        return list(_tokenize(name)) == [("name", name)]
    except ValueError:
        return False


_FILTRATION_FORMS = {
    "trivial-m": "trivial-m",
    "adic": "adic:NAME",
    "symbolic": "symbolic:NAME or symbolic:NAME:J",
}


class SessionFile:
    """Parsed ring declaration plus named ideals and filtrations."""

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self.ideals = {}          # name -> Ideal
        self.filtrations = {}     # name -> Filtration

    @classmethod
    def parse(cls, text: str) -> "SessionFile":
        """The session the text declares; an error raised while line N is
        handled reads ``line N: ...``."""
        session = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                try:
                    session = cls._parse_line(session, line)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
        if session is None:
            raise ValueError("session file has no ring declaration")
        return session

    @classmethod
    def _parse_line(cls, session, line: str) -> "SessionFile":
        """The session after one declaration; None before the ring line."""
        try:
            head, rest = line.split(None, 1)
        except ValueError:
            raise ValueError(f"cannot parse {line!r}") from None
        if head == "ring":
            if session is not None:
                raise ValueError("duplicate ring declaration")
            return cls._parse_ring(rest)
        if head not in ("ideal", "filtration"):
            raise ValueError(f"unknown declaration {head!r}")
        if session is None:
            raise ValueError(f"{head} before ring")
        if head == "ideal":
            session._parse_ideal(rest)
        else:
            session._parse_filtration(rest)
        return session

    @classmethod
    def _parse_ring(cls, rest: str) -> "SessionFile":
        fields = {}
        for token in rest.split():
            if "=" not in token:
                raise ValueError(f"expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key not in _RING_KEYS:
                raise ValueError(f"unknown ring key {key!r} (expected {', '.join(_RING_KEYS)})")
            if key in fields:
                raise ValueError(f"duplicate ring key {key!r}")
            fields[key] = value
        p = _integer(fields.get("p", str(DEFAULT_PRIME)), "p")
        if "vars" not in fields:
            raise ValueError("ring needs vars=")
        variables = tuple(v.strip() for v in fields["vars"].split(",") if v.strip())
        for name in variables:
            if not _is_variable_name(name):
                raise ValueError(
                    f"{name!r} cannot name a variable "
                    "(the polynomial syntax would not read it as one)"
                )
        weights = None
        if "weights" in fields:
            weights = tuple(_integer(w, "weights") for w in fields["weights"].split(","))
        order_name = fields.get("order", "grevlex")
        if order_name not in _ORDERS:
            raise ValueError(f"unknown order {order_name!r}")
        order = _ORDERS[order_name](weights if weights else (1,) * len(variables))
        return cls(RingContext(p, variables, order, weights))

    def _parse_ideal(self, rest: str):
        if "=" not in rest:
            raise ValueError("ideal needs name = gens")
        name, gens = rest.split("=", 1)
        name = name.strip()
        if not name or name in self.ideals:
            raise ValueError(f"bad or duplicate ideal name {name!r}")
        polys = [self.ctx.poly(g.strip()) for g in gens.split(",") if g.strip()]
        self.ideals[name] = Ideal(self.ctx, polys)

    def _parse_filtration(self, rest: str):
        if "=" not in rest:
            raise ValueError("filtration needs name = kind:...")
        name, spec = rest.split("=", 1)
        name = name.strip()
        spec = spec.strip()
        if not name or name in self.filtrations:
            raise ValueError(f"bad or duplicate filtration name {name!r}")
        kind, *names = spec.split(":")
        if kind == "trivial-m" and not names:
            F = Filtration.trivial_max(self.ctx)
        elif kind == "adic" and len(names) == 1:
            F = Filtration.adic(self._ideal(names[0]))
        elif kind == "symbolic" and len(names) in (1, 2):
            J = self._ideal(names[1]) if len(names) == 2 else None
            F = Filtration.symbolic(self._ideal(names[0]), J)
        elif kind in _FILTRATION_FORMS:
            raise ValueError(f"expected {_FILTRATION_FORMS[kind]}, got {spec!r}")
        else:
            raise ValueError(f"unknown filtration kind {kind!r}")
        self.filtrations[name] = F

    def _ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise ValueError(f"unknown ideal {name!r}")
        return self.ideals[name]

    def filtration(self, name: str) -> Filtration:
        if name not in self.filtrations:
            raise ValueError(f"unknown filtration {name!r}")
        return self.filtrations[name]


def _arg(*flags, **keywords):
    return flags, keywords


_FILE = _arg("-f", "--file", required=True, help="session file")
_FAT_SHARED = (
    _arg("--seed", type=int, required=True),
    _arg("--r", type=int, default=None),
    _arg("--p", type=int, default=DEFAULT_PRIME),
    _arg("--elliptic", action="store_true"),
)
_IDEAL = _arg("-i", "--ideal", required=True)
_SECOND = _arg("-j", "--second", required=True)
_SECOND_OPTIONAL = _arg("-j", "--second", default=None)
_FILTRATION = _arg("-F", "--filtration", required=True)
_POLY = _arg("-e", "--poly", required=True)
_M = _arg("--m", type=int, required=True)
_D = _arg("--d", type=int, required=True)
_S = _arg("--s", type=int, default=4)
_DMAX = _arg("--dmax", type=int, required=True)


def _gens(ideal_obj: Ideal):
    return [str(g) for g in ideal_obj.gb.basis]


def _ideal_pair(session, args):
    return session._ideal(args.ideal), session._ideal(args.second)


def _ideal_and_optional(session, args):
    I = session._ideal(args.ideal)
    return I, (session._ideal(args.second) if args.second else None)


def _spread_fields(report):
    return {
        "ell": report.ell, "ht": report.ht, "dim": report.ring_dim,
        "bounds": {
            "ht_le_ell": (report.ht is None) or (report.ht <= report.ell),
            "ell_le_dim": report.ell <= report.ring_dim,
        },
    }


def _nf(session, args):
    I = session._ideal(args.ideal)
    return {"nf": str(normal_form(session.ctx.poly(args.poly), I.gb))}


def _saturate(session, args):
    sat, index = saturate(*_ideal_pair(session, args))
    return {"gens": _gens(sat), "saturation_index": index}


def _symbolic(session, args):
    I, J = _ideal_and_optional(session, args)
    return {"n": args.power, "gens": _gens(symbolic_power(I, args.power, J))}


def _ell(session, args):
    report = analytic_spread(session._ideal(args.ideal))
    eq = (report.ht == report.ell) if report.ht is not None else None
    return {"equimultiple": eq, **_spread_fields(report)}


def _ell_trunc(session, args):
    report = analytic_spread_truncated(session.filtration(args.filtration), args.bound)
    return {"a": args.bound, "witness_e": report.witness_exponent,
            "witness_bound": report.witness_bound, **_spread_fields(report)}


def _equimult(session, args):
    rep = equimultiple_check(session._ideal(args.ideal))
    return {"equimultiple": rep.equimultiple, "ht": rep.ht, "ell": rep.ell}


def _sp0(session, args):
    F = session.filtration(args.filtration)
    f = session.ctx.poly(args.poly)
    witness = fiber_nilpotency_witness(F, args.level, f, args.max_power)
    return {"n": args.level, "max_power": args.max_power, "witness": witness}


def _multmap(fat, scheme, args):
    rep = fat.mult_map_surjective(scheme, args.d, args.m)
    return {"d": args.d, "m": args.m, "surjective": rep.surjective,
            "image_dim": rep.image_dim, "target_dim": rep.target_dim}


class Command(NamedTuple):
    name: str
    help: Optional[str]       # None leaves the command out of the --help listing
    arguments: tuple          # (flags, add_argument keywords), in digest order
    run: Callable[..., dict]  # (session, args) or (fatpoints, scheme, args) -> fields
    fat: bool = False


# Table order is help order; the fat-point commands come last, under "fatpoints".
COMMANDS = (
    Command("gb", "reduced Groebner basis of a named ideal", (_IDEAL,),
            lambda s, a: {"gb": _gens(s._ideal(a.ideal))}),
    Command("nf", "normal form of a polynomial", (_IDEAL, _POLY), _nf),
    Command("dim", "Krull dimension of ring/I", (_IDEAL,),
            lambda s, a: {"dim": krull_dim(s._ideal(a.ideal))}),
    Command("ht", "height of a proper nonzero ideal", (_IDEAL,),
            lambda s, a: {"ht": height(s._ideal(a.ideal))}),
    Command("intersect", None, (_IDEAL, _SECOND),
            lambda s, a: {"gens": _gens(intersect(*_ideal_pair(s, a)))}),
    Command("quotient", None, (_IDEAL, _SECOND),
            lambda s, a: {"gens": _gens(quotient(*_ideal_pair(s, a)))}),
    Command("saturate", None, (_IDEAL, _SECOND), _saturate),
    Command("closure-monomial", "integral closure of a monomial ideal", (_IDEAL,),
            lambda s, a: {"gens": _gens(monomial_integral_closure(s._ideal(a.ideal)))}),
    Command("symbolic", "symbolic power via saturation",
            (_IDEAL, _arg("-n", "--power", type=int, required=True), _SECOND_OPTIONAL),
            _symbolic),
    Command("ell", "analytic spread of an ideal", (_IDEAL,), _ell),
    Command("ell-trunc", "analytic spread of a truncated filtration",
            (_FILTRATION, _arg("-a", "--bound", type=int, required=True)), _ell_trunc),
    Command("equimult", "equimultiplicity check", (_IDEAL,), _equimult),
    Command("sp0", "nilpotency witness for a filtration element",
            (_FILTRATION, _arg("-n", "--level", type=int, required=True), _POLY,
             _arg("-M", "--max-power", type=int, required=True)), _sp0),
    Command("fingen-probe", "finite-generation evidence probe",
            (_IDEAL, _SECOND_OPTIONAL, _arg("-A", "--amax", type=int, default=3),
             _arg("-N", "--nmax", type=int, default=None)),
            lambda s, a: finite_generation_probe(*_ideal_and_optional(s, a),
                                                 a.amax, a.nmax)),
    Command("h0", "dimension of a linear system", (_M, _D),
            lambda fat, sc, a: {"d": a.d, "m": a.m, "h0": fat.h0(sc, a.d, a.m)}, fat=True),
    Command("multmap", "multiplication-map surjectivity", (_M, _D), _multmap, fat=True),
    Command("contain", "graded power containment sweep",
            (_arg("--n", type=int, required=True), _S, _DMAX),
            lambda fat, sc, a: fat.graded_power_containment(sc, a.n, a.s, a.dmax),
            fat=True),
    Command("census", "surviving fiber generators census",
            (_arg("--nmax", type=int, required=True), _DMAX, _S),
            lambda fat, sc, a: fat.fiber_generator_census(sc, a.nmax, a.dmax, a.s),
            fat=True),
)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadlab",
        description="Groebner bases, analytic spread, symbolic powers, fat points",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fat_sub = None
    for cmd in COMMANDS:
        if cmd.fat and fat_sub is None:
            fat_sub = sub.add_parser(
                "fatpoints", help="fat-point interpolation commands"
            ).add_subparsers(dest="fatcommand", required=True)
        sp = (fat_sub if cmd.fat else sub).add_parser(
            cmd.name, **({"help": cmd.help} if cmd.help else {})
        )
        for flags, keywords in (_FAT_SHARED if cmd.fat else (_FILE,)):
            sp.add_argument(*flags, **keywords)
        dests = tuple(sp.add_argument(*flags, **keywords).dest
                      for flags, keywords in cmd.arguments)
        sp.set_defaults(entry=(cmd, dests))
    return parser


def _read_session(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(exc) from None


# Sessions kept by ``_session``.  On 6 seed-1 rounds of the benchmark's
# cli-calculus stream (three new session files a round, 361 calls), 8 gives
# 318 hits (4 gives 294, 16 gives 338) and each kept session held ~20 KB.
SESSION_CACHE_SIZE = 8


@functools.lru_cache(maxsize=SESSION_CACHE_SIZE)
def _session(text: str) -> SessionFile:
    """The parsed session of this file text, shared by every call that
    reads the same text; a parse error raises and is not kept."""
    return SessionFile.parse(text)


def _str_keys(value):
    """Write every dict key as a string, so integer keys sort as text."""
    if isinstance(value, dict):
        return {str(k): _str_keys(v) for k, v in value.items()}
    return value


def _run(args) -> int:
    cmd, dests = args.entry
    if cmd.fat:
        from . import fatpoints as fat

        constraint = "elliptic" if args.elliptic else "none"
        r = args.r if args.r is not None else (12 if args.elliptic else 16)
        scheme = fat.sample_scheme(r, 1, constraint, seed=args.seed, p=args.p)
        envelope = {"op": f"fatpoints-{cmd.name}", "seed": args.seed, "r": scheme.r,
                    "constraint": constraint, "p": args.p}
        chunks = [cmd.name, str(scheme.points)]
        fields = cmd.run(fat, scheme, args)
    else:
        text = _read_session(args.file)
        envelope = {"op": cmd.name}
        chunks = [text]
        fields = cmd.run(_session(text), args)
    digest = hashlib.sha256()
    for chunk in chunks + [str(getattr(args, d)) for d in dests]:
        digest.update(chunk.encode() + b"\x00")
    payload = {"schema": SCHEMA, "digest": digest.hexdigest()[:12], **envelope, **fields}
    line = json.dumps(_str_keys(payload), sort_keys=True, separators=(",", ":"))
    sys.stdout.write(line + "\n")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:             # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
