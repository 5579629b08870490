"""Seeded job streams for the spreadlab benchmark.

A workload is a closed loop driven by one client: the stream is cut into
rounds, each round holds a fixed number of jobs of every job class, and a
round's inputs are drawn from ``random.Random`` keyed by (workload, seed,
round).  The same seed therefore gives the same inputs, and the cost of a
round does not depend on the seed: random choices only move coefficients,
torus scalings and monomial supports inside classes of bounded cost.

Input generation uses only the standard library; a space-curve job
receives the curve's parametrization and obtains its prime with
``eliminate`` itself.  Jobs call the public API through the package namespace, so wrappers that
the tracer installs there are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

P = 32003


class CheckFailed(Exception):
    """A job returned, but its output breaks an invariant."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _mono(exps, names):
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _form(terms, names):
    """Polynomial text from [(exps, coeff)], coefficients taken mod P."""
    return " + ".join(f"{c % P}*{_mono(e, names)}" for e, c in terms if c % P)


def _weighted_monomials(d, weights):
    return [m for m in itertools.product(*(range(d // w + 1) for w in weights))
            if sum(a * w for a, w in zip(m, weights)) == d]


def _dense_terms(rng, d, weights):
    return [(m, rng.randrange(1, P)) for m in _weighted_monomials(d, weights)]


def _dense(rng, d, weights, names):
    return _form(_dense_terms(rng, d, weights), names)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        import spreadlab

        self.sl = spreadlab
        self.seed = seed
        self.workdir = workdir

    def rng(self, r):
        return random.Random(f"{self.name}/{self.seed}/{r}")

    def prepare(self):
        """Set-up work done once per process, before the warm-up job."""

    def warmup_job(self):
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError

    def execute(self, job):
        raise NotImplementedError

    def check(self, job, out):
        raise NotImplementedError

    def canonical(self, job, out) -> str:
        raise NotImplementedError

    def output_bytes(self, out) -> int:
        return 0


# ---------------------------------------------------------------------------
# spread-rees
# ---------------------------------------------------------------------------

# Monomial space curves (t^a, t^b, t^c) and their primes.  Job costs vary
# by about 10^5 across curves and operations (truncations of (4, 5, 7) at
# a <= 3 alone take minutes), so every job class below uses only curves
# whose job stays under ~0.25 s at the commit that introduced the benchmark.
CURVES = ((3, 4, 5), (3, 4, 7), (3, 5, 7), (3, 5, 8), (4, 5, 6), (4, 6, 7), (5, 6, 7), (4, 5, 7))

# Supports of six degree-4 monomials in x, y, z with no certified reduction
# among their generators, so analytic_spread presents the Rees algebra with
# six fiber variables (a 10-variable ring); chosen for similar cost.
MONO6 = (
    ((0, 4, 0), (1, 0, 3), (1, 2, 1), (2, 0, 2), (2, 1, 1), (3, 0, 1)),
    ((0, 1, 3), (0, 2, 2), (0, 3, 1), (2, 2, 0), (3, 1, 0), (4, 0, 0)),
    ((0, 1, 3), (0, 2, 2), (0, 3, 1), (0, 4, 0), (3, 0, 1), (3, 1, 0)),
    ((0, 0, 4), (0, 1, 3), (1, 0, 3), (1, 3, 0), (2, 0, 2), (2, 1, 1)),
)

# One round: (operation, input source, parameter).  Every round runs this
# whole list in a seeded order, so any number of rounds keeps the mix.
SPREAD_REES_ROUND = tuple(
    [("ell", ("curve", c), None) for c in CURVES]
    + [("sym", ("curve", c), 2) for c in CURVES]
    + [("sym", ("curve", c), 3) for c in ((3, 4, 5), (3, 4, 7), (4, 5, 6), (4, 6, 7))]
    + [("trunc", ("curve", c), 2) for c in ((3, 4, 5), (3, 4, 7), (4, 5, 6), (4, 6, 7), (3, 5, 8))]
    + [("probe", ("curve", c), 1) for c in ((3, 4, 5), (3, 4, 7), (4, 5, 6), (5, 6, 7))]
    + [("ell", ("dense", (1, 1, 1), (2, 3)), None), ("ell", ("dense", (1, 2, 3), (4, 6)), None)]
    + [("sym", ("dense", (1, 1, 1), (2, 3)), 2)] * 2
    + [("ell", ("mono", m), None) for m in MONO6]
)
_XYZ = ("x", "y", "z")


def _primes(lo, hi):
    return [n for n in range(lo | 1, hi + 1, 2) if all(n % q for q in range(3, int(n ** 0.5) + 1, 2))]


class SpreadRees(Workload):
    name = "spread-rees"

    def prepare(self):
        self.seen = set()
        # monomial ideals are fixed by the torus; they differ by field instead
        self.mono_primes = _primes(10007, P)

    def _input(self, rng, source):
        """(kind, prime, weights, data) drawn for one job."""
        kind = source[0]
        if kind == "curve":
            # the curve (l1 t^a, l2 t^b, l3 t^c): its prime is the image of
            # that of (t^a, t^b, t^c) under a torus scaling, so it is a new
            # input with the same Groebner structure and cost
            return kind, P, source[1], tuple(rng.randrange(1, P) for _ in range(3))
        if kind == "dense":
            w, degs = source[1], source[2]
            return kind, P, w, tuple(_dense(rng, d, w, _XYZ) for d in degs)
        return kind, rng.choice(self.mono_primes), (1, 1, 1), tuple(_mono(m, _XYZ) for m in source[1])

    def _job(self, rng, op, source, param):
        for _ in range(1000):
            job = (op, param) + self._input(rng, source)
            if job not in self.seen:
                self.seen.add(job)
                return job
        raise RuntimeError(f"no fresh input left for {op} on {source}")

    def warmup_job(self):
        rng = random.Random(f"warmup/{self.seed}")
        return ("ell", None) + self._input(rng, ("curve", (3, 4, 5)))

    def round(self, r):
        rng = self.rng(r)
        jobs = [self._job(rng, op, source, param) for op, source, param in SPREAD_REES_ROUND]
        rng.shuffle(jobs)
        return jobs

    def _ideal(self, kind, p, weights, data):
        sl = self.sl
        if kind == "curve":
            ctx = sl.RingContext(p, ("t",) + _XYZ, weights=(1,) + weights)
            param = [f"{v} - {c}*t^{e}" for v, c, e in zip(_XYZ, data, weights)]
            return sl.eliminate(sl.ideal(ctx, *param), ["t"])
        return sl.ideal(sl.RingContext(p, _XYZ, weights=weights), *data)

    def execute(self, job):
        sl = self.sl
        op, param = job[:2]
        I = self._ideal(*job[2:])
        if op == "ell":
            rep = sl.analytic_spread(I)
            return {"ell": rep.ell, "ht": rep.ht, "dim": rep.ring_dim, "bounds_ok": rep.bounds_ok,
                    "fiber_vars": len(rep.presentation.generators), "notes": list(rep.notes)}
        if op == "sym":
            S = sl.symbolic_power(I, param)
            return {"n": param, "gb": [str(g) for g in S.gb.basis], "_ideal": S, "_base": I}
        if op == "trunc":
            rep = sl.analytic_spread_truncated(sl.Filtration.symbolic(I), param)
            return {"a": param, "ell": rep.ell, "ht": rep.ht, "dim": rep.ring_dim,
                    "bounds_ok": rep.bounds_ok, "witness": rep.witness_exponent,
                    "fiber_vars": len(rep.presentation.generators)}
        if op == "probe":
            return sl.finite_generation_probe(I, a_max=param, n_max=param + 1)
        raise ValueError(f"unknown job {op!r}")

    def check(self, job, out):
        op, kind = job[0], job[2]
        if op in ("ell", "trunc"):
            _require(out["ht"] is not None and out["ht"] <= out["ell"] <= out["dim"],
                     f"ht <= ell <= dim fails: {out}")
            _require(out["bounds_ok"], "report bounds flag is false")
            if kind == "curve":
                _require(out["ht"] == 2, "a space-curve prime has height 2")
        elif op == "sym":
            S, I = out["_ideal"], out["_base"]
            _require(S.contains_ideal(self.sl.ideal_power(I, out["n"])),
                     "symbolic power misses the ordinary power")
        else:
            dim = out["ring_dim"]
            spreads = out["truncation_spreads"]
            _require(all(0 < v <= dim for v in spreads.values()), f"spreads out of range: {spreads}")
            _require(all(0 < v <= dim for v in out["symbolic_power_spreads"].values()),
                     "symbolic spreads out of range")

    def canonical(self, job, out):
        return json.dumps({k: v for k, v in out.items() if not k.startswith("_")},
                          sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# cli-calculus
# ---------------------------------------------------------------------------

# A round writes one session file per ring size and issues 15 fresh jobs on
# each; a further third as many jobs repeat earlier ones (25 % of all jobs).
CLI_NVARS = (2, 3, 4)
_VARS = ("x", "y", "z", "w")


class CliCalculus(Workload):
    name = "cli-calculus"

    def prepare(self):
        from spreadlab import cli

        self.cli = cli
        self.sessions = {}            # path -> (names, {ideal: gens})
        self.pool = []                # fresh argv tuples issued so far
        self.first_output = {}        # argv -> stdout of its first run
        os.makedirs(self.workdir, exist_ok=True)

    def _session(self, tag, rng, n):
        names = _VARS[:n]
        w = (1,) * n
        lin = lambda: _dense(rng, 1, w, names)
        quadric = _dense_terms(rng, 2, w)
        f = [_form(quadric, names)] + ([_dense(rng, 3, w, names)] if n >= 3 else [])
        g = [lin(), _dense(rng, 2, w, names)]
        mono = sorted({tuple(m) for m in (rng.choice(_weighted_monomials(d, w))
                                          for d in (2, 3, 3))})
        # s = quadric * (variables), so s : M^infinity = (quadric)
        s = [_form([(tuple(a + (j == i) for j, a in enumerate(e)), c) for e, c in quadric], names)
             for i in range(n)]
        ideals = {
            "f": f, "g": g, "l": [lin()], "s": s, "M": list(names),
            "mono": [_mono(m, names) for m in mono],
        }
        text = [f"ring p={P} vars={','.join(names)} order=grevlex"]
        text += [f"ideal {k} = {', '.join(v)}" for k, v in ideals.items()]
        text += ["filtration S = symbolic:f", "filtration A = adic:f", "filtration T = trivial-m"]
        path = os.path.join(self.workdir, f"session-{tag}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(text) + "\n")
        self.sessions[path] = (names, ideals)
        return path, names, ideals

    def warmup_job(self):
        path, _, _ = self._session("warmup", random.Random(f"warmup/{self.seed}"), 3)
        return ("gb", "-f", path, "-i", "f")

    def round(self, r):
        rng = self.rng(r)
        fresh = []
        for n in CLI_NVARS:
            path, names, ideals = self._session(f"r{r}-n{n}", rng, n)
            poly = _dense(rng, 3, (1,) * n, names)
            fresh += [
                ("gb", "-f", path, "-i", "f"),
                ("gb", "-f", path, "-i", "g"),
                ("nf", "-f", path, "-i", "f", "-e", poly),
                ("nf", "-f", path, "-i", "g", "-e", poly),
                ("dim", "-f", path, "-i", "g"),
                ("ht", "-f", path, "-i", "f"),
                ("intersect", "-f", path, "-i", "f", "-j", "g"),
                ("quotient", "-f", path, "-i", "f", "-j", "l"),
                ("saturate", "-f", path, "-i", "s", "-j", "M"),
                ("closure-monomial", "-f", path, "-i", "mono"),
                ("symbolic", "-f", path, "-i", "g", "-n", "2"),
                ("ell", "-f", path, "-i", "f"),
                ("ell-trunc", "-f", path, "-F", "S", "-a", "1"),
                ("equimult", "-f", path, "-i", "g"),
                ("sp0", "-f", path, "-F", "T", "-n", "1", "-e", names[0], "-M", "3"),
            ]
        rng.shuffle(fresh)
        self.pool.extend(fresh)
        repeats = [self.pool[rng.randrange(len(self.pool))] for _ in range(len(fresh) // 3)]
        return fresh + repeats

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, out):
        code, stdout, stderr = out
        _require(code == 0, f"exit code {code}: {stderr.strip()}")
        lines = stdout.splitlines()
        _require(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
        doc = json.loads(lines[0])
        _require(doc.get("schema") == "1", "schema is not \"1\"")
        cmd = argv[0]
        _require(doc.get("op") == cmd, f"op {doc.get('op')!r} for {cmd}")
        if argv in self.first_output:
            _require(self.first_output[argv] == stdout, "repeated job changed its output")
        else:
            self.first_output[argv] = stdout

        sl = self.sl
        names, ideals = self.sessions[argv[2]]
        n = len(names)
        ctx = sl.RingContext(P, names)
        arg = dict(zip(argv[3::2], argv[4::2]))
        I = sl.ideal(ctx, *ideals[arg["-i"]]) if "-i" in arg else None
        if cmd == "gb":
            _require(sl.ideal_equal(sl.ideal(ctx, *doc["gb"]), I),
                     "reduced basis and input generate different ideals")
        elif cmd == "nf":
            diff = ctx.poly(arg["-e"]) - ctx.poly(doc["nf"])
            _require(I.contains(diff), "f - nf(f) is not in the ideal")
        elif cmd == "dim":
            _require(-1 <= doc["dim"] <= n, "dimension out of range")
        elif cmd == "ht":
            _require(1 <= doc["ht"] <= n, "height out of range")
        elif cmd in ("intersect", "quotient", "saturate"):
            R = sl.ideal(ctx, *doc["gens"])
            J = sl.ideal(ctx, *ideals[arg["-j"]])
            if cmd == "intersect":
                _require(I.contains_ideal(R) and J.contains_ideal(R), "intersection too large")
            else:
                _require(R.contains_ideal(I), f"{cmd} lost part of the ideal")
        elif cmd == "closure-monomial":
            _require(sl.ideal(ctx, *doc["gens"]).contains_ideal(I), "closure misses the ideal")
        elif cmd == "symbolic":
            _require(sl.ideal(ctx, *doc["gens"]).contains_ideal(sl.ideal_power(I, 2)),
                     "symbolic square misses the ordinary square")
        elif cmd in ("ell", "ell-trunc"):
            _require(doc["ht"] <= doc["ell"] <= doc["dim"], "ht <= ell <= dim fails")
            _require(all(doc["bounds"].values()), "bound flags are false")
        elif cmd == "equimult":
            _require(doc["ht"] <= doc["ell"] <= n, "ht <= ell <= dim fails")
            _require(doc["equimultiple"] == (doc["ht"] == doc["ell"]), "equimultiple flag")
        elif cmd == "sp0":
            _require(doc["witness"] is None or 1 <= doc["witness"] <= 3, "witness out of range")

    def output_bytes(self, out):
        return len(out[1].encode())

    def canonical(self, argv, out):
        # session paths differ between checkouts; the digest field inside
        # the output already covers the session text
        return json.dumps([argv[0]] + list(argv[3:]) + [out[0], out[1]])


# ---------------------------------------------------------------------------
# fatpoints
# ---------------------------------------------------------------------------

def _fat_round_jobs():
    """Jobs after the two samples; 'N' is the Nagata scheme (r = 16 general
    points), 'E' the elliptic one (r = 12 points on a smooth cubic)."""
    jobs = []
    for m in (1, 2, 3):
        jobs.append(("h0", "N", 4 * m, m))          # criterion 7: h0(4m, m) = 0
        jobs.append(("h0", "E", 3 * m, m))          # criterion 8: the cubic's power
        jobs.append(("h0", "E", 3 * m - 1, m))      # and nothing below degree 3m
    jobs += [
        ("linsys", "N", 6, 1), ("linsys", "N", 9, 2),
        ("linsys", "E", 5, 1), ("linsys", "E", 8, 2),
        ("multmap", "N", 8, 1), ("multmap", "N", 12, 2),
        ("multmap", "E", 8, 1), ("multmap", "E", 12, 2),
        ("contain", "N", 1, 2, 12), ("contain", "N", 1, 3, 15),
        ("contain", "E", 1, 2, 12), ("contain", "E", 1, 3, 12),
        ("census", "N", 2, 6, 2), ("census", "E", 2, 6, 2),
    ]
    return jobs


class FatPoints(Workload):
    name = "fatpoints"

    def prepare(self):
        self.schemes = {}
        self.used = set()

    def _seed(self, rng):
        while True:
            s = rng.randrange(2 ** 31)
            if s not in self.used:
                self.used.add(s)
                return s

    def warmup_job(self):
        return ("sample", "W", 16, "none", -1 - self.seed)

    def round(self, r):
        rng = self.rng(r)
        samples = [("sample", "N", 16, "none", self._seed(rng)),
                   ("sample", "E", 12, "elliptic", self._seed(rng))]
        rest = _fat_round_jobs()
        rng.shuffle(rest)
        return samples + rest

    def execute(self, job):
        sl = self.sl
        op, which = job[0], job[1]
        if op == "sample":
            scheme = sl.sample_scheme(job[2], 1, job[3], seed=job[4])
            self.schemes[which] = scheme
            return {"points": [list(pt) for pt in scheme.points], "cubic": scheme.cubic}
        scheme = self.schemes[which]
        if op == "h0":
            return {"h0": sl.h0(scheme, job[2], job[3])}
        if op == "linsys":
            ls = sl.linear_system(scheme.with_multiplicities(job[3]), job[2])
            return {"h0": ls.h0, "rank": ls.rank, "basis": ls.basis.tolist(), "_ls": ls}
        if op == "multmap":
            rep = sl.mult_map_surjective(scheme, job[2], job[3])
            return {"surjective": rep.surjective, "image_dim": rep.image_dim,
                    "target_dim": rep.target_dim}
        if op == "contain":
            return sl.graded_power_containment(scheme, job[2], job[3], job[4])
        if op == "census":
            rep = sl.fiber_generator_census(scheme, job[2], job[3], job[4])
            rep["survivors"] = [list(t) for t in rep["survivors"]]
            return rep
        raise ValueError(f"unknown job {op!r}")

    def check(self, job, out):
        op, which = job[0], job[1]
        if op == "sample":
            _require(len(out["points"]) == job[2], "wrong number of points")
            _require((out["cubic"] is not None) == (which == "E"), "cubic presence")
        elif op == "h0":
            d, m = job[2], job[3]
            expected = 0 if which == "N" else (1 if d == 3 * m else 0)
            _require(out["h0"] == expected, f"h0({d}, {m}) = {out['h0']}, expected {expected}")
        elif op == "linsys":
            ls = out["_ls"]
            _require(ls.verify_vanishing(), "basis forms do not vanish at the points")
            d = job[2]
            _require(ls.h0 + ls.rank == (d + 1) * (d + 2) // 2, "rank + h0 != number of monomials")
        elif op == "multmap":
            _require(out["surjective"], "multiplication map (4m + 4, m) is not surjective")
        elif op == "contain":
            _require(not out["empty"], "empty containment sweep")
            if which == "N":
                _require(all(row["contained"] for row in out["degrees"].values()),
                         "a Nagata containment degree fails")
            else:          # the cubic's power is the designed exception
                row = out["degrees"].get(out["expected_exception_degree"])
                _require(row is not None and not row["contained"],
                         "elliptic exception degree is missing or contained")
        elif op == "census":
            expected = [] if which == "N" else [[1, 3], [2, 6]]
            _require(out["survivors"] == expected, f"census survivors {out['survivors']}")

    def canonical(self, job, out):
        return json.dumps({k: v for k, v in out.items() if not k.startswith("_")},
                          sort_keys=True, separators=(",", ":"))


WORKLOADS = {cls.name: cls for cls in (SpreadRees, CliCalculus, FatPoints)}
