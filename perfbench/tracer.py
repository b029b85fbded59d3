"""Span recorder for the traced benchmark run.

Public functions of each layer are wrapped at every module attribute that
binds them, so calls made through `schreier.norms.member`,
`schreier.analysis.norm` and the like are all seen.  Each wrapped function
belongs to a group (`families.member`, `norms.T`, ...).  A span is opened
only where the calling group differs from the called one: calls inside one
group (a membership test recursing into itself) are counted, not timed
again.  Self time of a group is its span time minus the time of the child
spans it opened.

Spans are kept in memory as (name, start, end, parent, op id) tuples and
written out at exit; counters are read from outside the library (memo
sizes, `cache_info()`, report fields).  A counter whose source no longer
exists is reported as missing, never as 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LIBRARY_LAYERS = ("ordinals", "families", "vectors", "norms", "constructions", "analysis")

# Spans beyond this many are aggregated into the counters only; the
# per-group self times stay exact either way.
MAX_KEPT_SPANS = 50_000

_NORM_GROUPS = {
    "TsirelsonSpace": "norms.T",
    "MixedSchreierSpace": "norms.X",
    "SchlumprechtSpace": "norms.S",
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.stack = []  # frames: [group, span id, child time]
        self.spans = []
        self.dropped_spans = 0
        self.next_id = 0
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.missing = {}

    # -- span bookkeeping ---------------------------------------------------

    def call(self, group, fn, args, kwargs):
        stack = self.stack
        if stack and stack[-1][0] == group:
            return fn(*args, **kwargs)
        span_id = self.next_id
        self.next_id += 1
        parent = stack[-1][1] if stack else None
        frame = [group, span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[group] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((group, start, end, parent, self.op_id))
            else:
                self.dropped_spans += 1

    def run_op(self, op_id, fn):
        """Run one benchmark op as a root span of group `bench`."""
        self.op_id = op_id
        self.enabled = True
        try:
            return self.call("bench", fn, (), {})
        finally:
            self.enabled = False

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, group, before=None, after=None, generator=False):
        """Wrapper counting calls of `fn` under `name` and timing it as `group`.

        `group` may be a callable choosing the group from the arguments.
        `after(args, result, state)` reads counters off a result, with
        `state` taken by `before()` just ahead of the call.  Generators are
        counted per yielded item and not timed: their work runs inside the
        consumer's span.
        """
        tracer = self

        if generator:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[name] += 1
                for item in fn(*args, **kwargs):
                    tracer.counts[name + ".items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            g = group(args) if callable(group) else group
            # a call whose group depends on its arguments (norm -> norms.T)
            # is counted under that group
            tracer.calls[g if callable(group) else name] += 1
            state = before() if before is not None else None
            result = tracer.call(g, fn, args, kwargs)
            if after is not None:
                after(args, result, state)
            return result

        return wrapper


def _rebind(modules, original, replacement):
    """Point every module attribute bound to `original` at `replacement`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer, schreier_modules):
    """Wrap the public functions of every layer.

    `schreier_modules` maps short names (`families`, `norms`, ...) to the
    imported modules.  Functions that no longer exist are recorded in
    `tracer.missing`.
    """
    m = schreier_modules
    mods = list(m.values())

    def wrap(layer, fname, group, **kw):
        mod = m[layer]
        fn = getattr(mod, fname, None)
        if fn is None:
            tracer.missing[f"{layer}.{fname}"] = "function not found"
            return
        _rebind(mods, fn, tracer.wrap(fn, f"{layer}.{fname}", group, **kw))

    def wrap_method(layer, cls_name, meth, group):
        cls = getattr(m[layer], cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            tracer.missing[f"{layer}.{cls_name}.{meth}"] = "method not found"
            return
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(tracer.wrap(raw.__func__, f"{layer}.{meth}", group)))
        else:
            setattr(cls, meth, tracer.wrap(raw, f"{layer}.{meth}", group))

    for fname in ("fundamental", "add", "compare"):
        wrap("ordinals", fname, "ordinals")

    families = m["families"]
    cache = getattr(families, "_member_cache", None)

    if cache is None:
        tracer.missing["families.member.hit_ratio"] = "families._member_cache not found"
        wrap("families", "member", "families.member")
    else:
        # a call that misses stores at least its own entry; a hit stores none
        def member_after(args, result, size_before):
            tracer.counts["families.member.hits"] += len(cache) == size_before

        wrap("families", "member", "families.member", before=cache.__len__, after=member_after)
    wrap("families", "iter_maximal", None, generator=True)
    wrap("families", "enumerate_maximal", "families.enum")
    wrap("families", "family_mass", "families.mass")

    def threshold_after(args, result, _):
        rejections = getattr(result, "rejections", None)
        if rejections is None:
            tracer.missing["families.threshold.rejections"] = "ThresholdResult.rejections not found"
        else:
            tracer.counts["families.threshold.rejections"] += len(rejections)

    def report_after(args, result, _):
        stats = getattr(result, "stats", None)
        if getattr(result, "method", None) != "dominance" or not getattr(result, "ok", False):
            return
        if stats is None or "patterns" not in stats:
            tracer.missing["families.verify.patterns"] = "WitnessReport.stats['patterns'] not found"
        else:
            tracer.counts["families.verify.patterns"] += stats["patterns"]

    wrap("families", "threshold_search", "families.verify", after=threshold_after)
    wrap("families", "verify_bracket_inclusion", "families.verify", after=report_after)
    for fname in ("construct_L", "construct_L_bracket", "construct_N", "verify_union_property"):
        wrap("families", fname, "families.verify")

    for fname in ("combine", "block_combine", "evaluate", "validate_functional"):
        wrap("vectors", fname, "vectors")
    for meth in ("restrict", "__add__", "__mul__", "from_dict"):
        wrap_method("vectors", "Vector", meth, "vectors")

    def norm_group(args):
        return _NORM_GROUPS.get(type(args[0]).__name__, "norms.closed")

    def norm_after(args, result, _):
        if norm_group(args) == "norms.X" and not getattr(result, "converged", True):
            tracer.counts["norms.X.unconverged"] += 1

    wrap("norms", "norm", norm_group, after=norm_after)
    wrap("norms", "interval_norm", "norms.cover")
    wrap("norms", "norm_j", "norms.cover")
    wrap("norms", "generate_W", "norms.W")

    constructions = m["constructions"]
    budget_exc = getattr(constructions, "BudgetExhausted", None)
    for fname in ("scc_basic", "scc_on_blocks", "build_l1_average", "build_ris",
                  "build_schreier_functional", "james_blocking_step", "two_norm_blocking",
                  "c0_to_l1_blocking", "l1_to_c0_blocking"):
        fn = getattr(constructions, fname, None)
        if fn is None:
            tracer.missing[f"constructions.{fname}"] = "function not found"
            continue
        _rebind(mods, fn, _count_raises(tracer, tracer.wrap(fn, f"constructions.{fname}", "constructions"),
                                        budget_exc, "constructions.budget_exhausted"))

    analysis = m["analysis"]
    candidates = getattr(analysis, "_candidate_vectors", None)
    if candidates is None:
        tracer.missing["analysis.distortion.tried_ratio"] = "analysis._candidate_vectors not found"
    else:
        def candidates_after(args, result, _):
            tracer.counts["analysis.distortion.pairs"] += len(result) ** 2

        _rebind(mods, candidates, tracer.wrap(candidates, "analysis._candidate_vectors",
                                              "analysis", after=candidates_after))

    def distortion_after(args, result, _):
        tried = getattr(result, "candidates_tried", None)
        if tried is None:
            tracer.missing["analysis.distortion.tried_ratio"] = "DistortionReport.candidates_tried not found"
        else:
            tracer.counts["analysis.distortion.tried"] += tried

    for fname in ("spreading_profile", "l1_lower_constant", "l1_lower_candidates",
                  "interval_distortion_experiment", "ratio_bound_check",
                  "alpha_index_diagnostic", "standard_corpus"):
        if fname == "l1_lower_candidates":
            wrap("analysis", fname, None, generator=True)
        else:
            wrap("analysis", fname, "analysis")
    wrap("analysis", "distortion_witness", "analysis", after=distortion_after)

    if "parsing" in m:
        parsing = m["parsing"]
        for fname in [n for n in vars(parsing) if n.startswith(("parse_", "print_"))]:
            if callable(getattr(parsing, fname)):
                wrap("parsing", fname, "cli.parsing")
    if "cli" in m:
        wrap("cli", "_emit", "cli.reports")
        wrap("reports", "to_jsonable", "cli.reports")


def _count_raises(tracer, fn, exc_type, counter):
    if exc_type is None:
        tracer.missing[counter] = "BudgetExhausted not found"
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except exc_type:
            if tracer.enabled:
                tracer.counts[counter] += 1
            raise

    return wrapper


def summary(tracer, extra_counts=None):
    """Raw per-pass totals from one traced process, JSON-ready."""
    counts = dict(tracer.counts)
    counts.update(extra_counts or {})
    return {
        "calls": dict(tracer.calls),
        "counts": counts,
        "self_s": dict(tracer.self_s),
        "missing": dict(tracer.missing),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
    }


def write_spans(tracer, path):
    with open(path, "w") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def schreier_modules(with_cli=False):
    """The package's layer modules, imported."""
    import importlib

    names = list(LIBRARY_LAYERS) + ["reports"]
    if with_cli:
        names += ["parsing", "cli"]
    out = {n: importlib.import_module("schreier." + n) for n in names}
    out["schreier"] = sys.modules["schreier"]
    return out
