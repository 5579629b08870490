"""In-memory span tracing around spreadlab's public functions.

The wrappers are installed from outside the package: every module of
``spreadlab`` that binds a traced function (its defining module, the
modules that import it, the package namespace) gets the same wrapper, so
calls are seen whichever binding the caller uses.  Nothing under ``src/``
is edited and no private cache is read or cleared.

A span is ``[span_id, parent_id, trace_id, name, start, end, attrs]``;
``trace_id`` is the index of the benchmark job that caused it.  Spans stay
in memory until :meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.trace_id = None
        self.active = False
        self.gb_accesses = 0          # reads of the Ideal.gb property
        self.gb_access_depth = 0
        self.raw_gb = None            # the untraced Ideal.gb getter

    def wrap(self, name, fn, pre=None, post=None):
        """Span-recording wrapper of fn.

        ``pre(args, kwargs) -> (args, kwargs, state)`` may normalise the
        arguments before the call; ``post(tracer, state, args, kwargs,
        result)`` returns the attributes stored on the span after it ended.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = None
            if pre is not None:
                args, kwargs, state = pre(args, kwargs)
            stack = tracer.stack
            rec = [len(tracer.spans), stack[-1] if stack else None,
                   tracer.trace_id, name, _now(), 0.0, None]
            tracer.spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = _now()
                stack.pop()
            if post is not None:
                rec[6] = post(tracer, state, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "span": sid, "parent": parent, "trace": trace, "name": name,
                    "start": start, "end": end, "attrs": attrs,
                }, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _module_list():
    import spreadlab
    from spreadlab import cli, fatpoints, filtrations, groebner, ideals, linalg, ring

    return [spreadlab, ring, groebner, ideals, filtrations, linalg, fatpoints, cli]


def _rebind(modules, original, wrapper):
    """Point every module-level binding of original at wrapper."""
    count = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                count += 1
    return count


def _gb_pre(args, kwargs):
    gens = list(args[0]) if args else list(kwargs.pop("gens"))
    terms = sum(len(g.terms) for g in gens if hasattr(g, "terms"))
    return (gens,) + tuple(args[1:]), kwargs, terms


def _gb_post(tracer, terms, args, kwargs, result):
    return {"in_terms": terms, "out": len(result.basis), "nvars": result.ctx.nvars,
            "on_access": 1 if tracer.gb_access_depth else 0}


def _rref_post(tracer, state, args, kwargs, result):
    A = args[0]
    rows, cols = A.shape
    rank = result[0].shape[0]
    key = hashlib.blake2b(A.tobytes() + repr((A.shape, str(A.dtype), args[1])).encode(),
                          digest_size=12).hexdigest()
    return {"rows": rows, "cols": cols, "rank": rank, "key": key}


def _interp_post(tracer, state, args, kwargs, result):
    scheme, d = args[0], args[1]
    key = hashlib.blake2b(repr((scheme.p, scheme.points, scheme.multiplicities, d)).encode(),
                          digest_size=12).hexdigest()
    return {"key": key}


def _rees_post(tracer, state, args, kwargs, result):
    return {"fiber_vars": len(result.generators)}


def _spread_post(tracer, state, args, kwargs, result):
    I = args[0]
    many = len(tracer.raw_gb(I).basis) > I.ctx.nvars     # read without counting a gb access
    certified = any("certified reduction" in note for note in result.notes)
    return {"many": many, "certified": certified}


_FUNCTIONS = (
    # (span name, module, attribute, pre, post)
    ("ring.parse_polynomial", "ring", "parse_polynomial", None, None),
    ("groebner.groebner_basis", "groebner", "groebner_basis", _gb_pre, _gb_post),
    ("ideals.eliminate", "ideals", "eliminate", None, None),
    ("ideals.intersect", "ideals", "intersect", None, None),
    ("ideals.quotient", "ideals", "quotient", None, None),
    ("ideals.saturate", "ideals", "saturate", None, None),
    ("ideals.saturate_by_elimination", "ideals", "saturate_by_elimination", None, None),
    ("ideals.krull_dim", "ideals", "krull_dim", None, None),
    ("ideals.height", "ideals", "height", None, None),
    ("ideals.monomial_integral_closure", "ideals", "monomial_integral_closure", None, None),
    ("filtrations.symbolic_power", "filtrations", "symbolic_power", None, None),
    ("filtrations.rees_presentation", "filtrations", "rees_presentation", None, _rees_post),
    ("filtrations.analytic_spread", "filtrations", "analytic_spread", None, _spread_post),
    ("filtrations.analytic_spread_truncated", "filtrations", "analytic_spread_truncated", None, None),
    ("filtrations.equimultiple_check", "filtrations", "equimultiple_check", None, None),
    ("filtrations.fiber_nilpotency_witness", "filtrations", "fiber_nilpotency_witness", None, None),
    ("filtrations.finite_generation_probe", "filtrations", "finite_generation_probe", None, None),
    ("linalg.rref_modp", "linalg", "rref_modp", None, _rref_post),
    ("linalg.rank_modp", "linalg", "rank_modp", None, None),
    ("linalg.nullspace_modp", "linalg", "nullspace_modp", None, None),
    ("linalg.span_rows", "linalg", "span_rows", None, None),
    ("linalg.reduce_rows", "linalg", "reduce_rows", None, None),
    ("fatpoints.sample_scheme", "fatpoints", "sample_scheme", None, None),
    ("fatpoints.interpolation_matrix", "fatpoints", "interpolation_matrix", None, _interp_post),
    ("fatpoints.linear_system", "fatpoints", "linear_system", None, None),
    ("fatpoints.h0", "fatpoints", "h0", None, None),
    ("fatpoints.mult_map_surjective", "fatpoints", "mult_map_surjective", None, None),
    ("fatpoints.graded_power_containment", "fatpoints", "graded_power_containment", None, None),
    ("fatpoints.fiber_generator_census", "fatpoints", "fiber_generator_census", None, None),
    ("cli.main", "cli", "main", None, None),
)


def install(tracer: Tracer) -> int:
    """Wrap the traced functions at every binding; returns bindings wrapped."""
    from spreadlab.cli import SessionFile
    from spreadlab.groebner import GroebnerBasis
    from spreadlab.ideals import Ideal

    if hasattr(Ideal.__dict__["gb"].fget, "__wrapped__"):
        raise RuntimeError("tracing is already installed in this process")
    modules = _module_list()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    total = 0
    for name, modname, attr, pre, post in _FUNCTIONS:
        original = getattr(by_name[modname], attr)
        total += _rebind(modules, original, tracer.wrap(name, original, pre, post))

    # methods: normal_form (groebner.normal_form() delegates to it) and the
    # session-file parser of the command line
    GroebnerBasis.normal_form = tracer.wrap(
        "groebner.normal_form", GroebnerBasis.__dict__["normal_form"])
    SessionFile.parse = classmethod(tracer.wrap(
        "cli.SessionFile.parse", SessionFile.__dict__["parse"].__func__))

    # Ideal.gb: count reads, and mark groebner_basis calls made to serve one
    raw = Ideal.__dict__["gb"].fget
    tracer.raw_gb = raw

    def counted_gb(self):
        if not tracer.active:
            return raw(self)
        tracer.gb_accesses += 1
        tracer.gb_access_depth += 1
        try:
            return raw(self)
        finally:
            tracer.gb_access_depth -= 1

    counted_gb.__wrapped__ = raw
    Ideal.gb = property(counted_gb, doc=Ideal.__dict__["gb"].__doc__)
    return total + 3


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """Per-layer counts and times (self time = span minus its children).

    Returns ``{metric name: (value, unit)}``.
    """
    spans = tracer.spans
    child = defaultdict(float)
    for sid, parent, trace, name, start, end, attrs in spans:
        if parent is not None:
            child[parent] += end - start

    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    for sid, parent, trace, name, start, end, attrs in spans:
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child[sid]
        incl_s[name] += dur

    names = [rec[3] for rec in spans]
    parents = [rec[1] for rec in spans]

    # groebner
    gb_terms = gb_out = gb_nvars = gb_on_access = 0
    # filtrations
    spread_with_rees = set()
    fiber_max = 0
    # linalg / fatpoints duplicates, per job
    rref_seen = defaultdict(set)
    rref_dup = rref_ops = rref_bytes = 0
    interp_keys = defaultdict(set)
    interp_distinct = 0
    sat_steps = 0
    for sid, parent, trace, name, start, end, attrs in spans:
        if name == "ideals.quotient" and parent is not None \
                and names[parent] == "ideals.saturate":
            sat_steps += 1
        if attrs is None:             # no attributes: untraced kind, or the call raised
            continue
        if name == "groebner.groebner_basis":
            gb_terms += attrs["in_terms"]
            gb_out += attrs["out"]
            gb_nvars = max(gb_nvars, attrs["nvars"])
            gb_on_access += attrs["on_access"]
        elif name == "filtrations.rees_presentation":
            fiber_max = max(fiber_max, attrs["fiber_vars"])
            p = parent
            while p is not None:
                if names[p] == "filtrations.analytic_spread":
                    spread_with_rees.add(p)
                p = parents[p]
        elif name == "linalg.rref_modp":
            rref_ops += attrs["rank"] * attrs["rows"] * attrs["cols"]
            rref_bytes += 8 * attrs["rows"] * attrs["cols"]
            seen = rref_seen[trace]
            if attrs["key"] in seen:
                rref_dup += 1
            seen.add(attrs["key"])
        elif name == "fatpoints.interpolation_matrix":
            keys = interp_keys[trace]
            if attrs["key"] not in keys:
                interp_distinct += 1
            keys.add(attrs["key"])

    spread_ids = [rec[0] for rec in spans if rec[3] == "filtrations.analytic_spread"]
    computed = [s for s in spread_ids if s in spread_with_rees]
    many = [s for s in computed if spans[s][6] and spans[s][6]["many"]]
    certified = [s for s in many if spans[s][6]["certified"]]

    memo_ratio = _ratio(len(spread_ids) - len(computed), len(spread_ids))
    reuse_ratio = _ratio(tracer.gb_accesses - gb_on_access, tracer.gb_accesses)
    distinct_ratio = _ratio(interp_distinct, calls["fatpoints.interpolation_matrix"])

    COUNT, S, RATIO = "count", "s", "ratio"
    return {
        "groebner.gb_calls": (calls["groebner.groebner_basis"], COUNT),
        "groebner.gb_self_s": (self_s["groebner.groebner_basis"], S),
        "groebner.gb_input_terms": (gb_terms, COUNT),
        "groebner.gb_output_elems": (gb_out, COUNT),
        "groebner.gb_max_nvars": (gb_nvars, "vars"),
        "groebner.nf_calls": (calls["groebner.normal_form"], COUNT),
        "groebner.nf_self_s": (self_s["groebner.normal_form"], S),
        "filtrations.rees_calls": (calls["filtrations.rees_presentation"], COUNT),
        "filtrations.rees_self_s": (self_s["filtrations.rees_presentation"], S),
        "filtrations.rees_fiber_vars_max": (fiber_max, "vars"),
        "filtrations.spread_calls": (len(spread_ids), COUNT),
        "filtrations.spread_memo_ratio": (memo_ratio, RATIO),
        "filtrations.reduction_shortcut_ratio": (_ratio(len(certified), len(many)), RATIO),
        "filtrations.symbolic_power_s": (incl_s["filtrations.symbolic_power"], S),
        "filtrations.truncated_spread_s": (incl_s["filtrations.analytic_spread_truncated"], S),
        "ideals.intersect_calls": (calls["ideals.intersect"], COUNT),
        "ideals.quotient_calls": (calls["ideals.quotient"], COUNT),
        "ideals.saturate_calls": (calls["ideals.saturate"], COUNT),
        "ideals.saturation_steps": (sat_steps, COUNT),
        "ideals.intersect_self_s": (self_s["ideals.intersect"], S),
        "ideals.quotient_self_s": (self_s["ideals.quotient"], S),
        "ideals.eliminate_self_s": (self_s["ideals.eliminate"], S),
        "ideals.krull_dim_s": (incl_s["ideals.krull_dim"], S),
        "ideals.closure_s": (incl_s["ideals.monomial_integral_closure"], S),
        "ideals.gb_reuse_ratio": (reuse_ratio, RATIO),
        "linalg.rref_calls": (calls["linalg.rref_modp"], COUNT),
        "linalg.rref_self_s": (self_s["linalg.rref_modp"], S),
        "linalg.rref_ops_computed": (rref_ops, "ops"),
        "linalg.rref_bytes_computed": (rref_bytes, "bytes"),
        "linalg.duplicate_rref_ratio": (_ratio(rref_dup, calls["linalg.rref_modp"]), RATIO),
        "fatpoints.interp_matrix_calls": (calls["fatpoints.interpolation_matrix"], COUNT),
        "fatpoints.interp_matrix_self_s": (self_s["fatpoints.interpolation_matrix"], S),
        "fatpoints.interp_matrix_distinct_ratio": (distinct_ratio, RATIO),
        "fatpoints.linear_system_calls": (calls["fatpoints.linear_system"], COUNT),
        "fatpoints.mult_map_calls": (calls["fatpoints.mult_map_surjective"], COUNT),
        "fatpoints.containment_s": (incl_s["fatpoints.graded_power_containment"], S),
        "fatpoints.census_s": (incl_s["fatpoints.fiber_generator_census"], S),
        "fatpoints.sample_scheme_s": (incl_s["fatpoints.sample_scheme"], S),
        "ring.parse_calls": (calls["ring.parse_polynomial"], COUNT),
        "ring.parse_self_s": (self_s["ring.parse_polynomial"], S),
        "cli.main_calls": (calls["cli.main"], COUNT),
        "cli.self_s": (self_s["cli.main"], S),
        "cli.session_parse_s": (incl_s["cli.SessionFile.parse"], S),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
