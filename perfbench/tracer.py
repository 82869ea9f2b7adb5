"""Spans and counters around hopfforge's public functions, installed from outside.

Every instrumented function is named once, by module and qualified name, in
TARGETS.  A name that no longer resolves is reported as absent instead of
failing the run, so the tracer keeps working while functions are merged or
deleted.  Installation replaces the function in its class or module and every
alias of it in the loaded hopfforge modules (``from .tensors import tensor_mul``
binds a second name, ``__rmul__ = __mul__`` a third); ``restore`` puts every
original back.

Spans hold (label, parent span, start, end, command index).  They stay in
memory until the traced run ends and are then reduced to the per-layer
metrics.  Scalar arithmetic and the pairing memo are only counted: they run
10^5-10^6 times per workload, and timing each call would distort what is
measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPAN, COUNT = "span", "count"

# (label, module, qualified name, kind)
TARGETS = (
    ("scalars.Scalar.mul", "hopfforge.scalars", "Scalar.__mul__", COUNT),
    ("scalars.Scalar.add", "hopfforge.scalars", "Scalar.__add__", COUNT),
    ("scalars.Scalar.div", "hopfforge.scalars", "Scalar.div", COUNT),
    ("scalars.ParamPoly.mul", "hopfforge.scalars", "ParamPoly.__mul__", COUNT),
    ("scalars.ParamPoly.add", "hopfforge.scalars", "ParamPoly.__add__", COUNT),
    ("presentation.load_presentation", "hopfforge.presentation", "load_presentation", SPAN),
    ("pbw.Engine.init", "hopfforge.pbw", "Engine.__init__", SPAN),
    ("pbw.normal_form", "hopfforge.pbw", "Engine.normal_form", SPAN),
    ("pbw.multiply", "hopfforge.pbw", "Engine.multiply", SPAN),
    ("pbw.check_confluence", "hopfforge.pbw", "Engine.check_confluence", SPAN),
    ("tensors.tensor_mul", "hopfforge.tensors", "tensor_mul", SPAN),
    ("tensors.exp_tensor", "hopfforge.tensors", "exp_tensor", SPAN),
    ("hopf.HopfOps.init", "hopfforge.hopf", "HopfOps.__init__", SPAN),
    ("hopf.coproduct_mono", "hopfforge.hopf", "HopfOps.coproduct_mono", SPAN),
    ("hopf.antipode_mono", "hopfforge.hopf", "HopfOps.antipode_mono", COUNT),
    ("hopf.verify_hopf", "hopfforge.hopf", "verify_hopf", SPAN),
    ("pairing.Pairing.init", "hopfforge.pairing", "Pairing.__init__", COUNT),
    ("pairing.pair_mono", "hopfforge.pairing", "Pairing.pair_mono", COUNT),
    ("pairing.calibrate", "hopfforge.pairing", "calibrate", SPAN),
    ("pairing.verify_duality", "hopfforge.pairing", "verify_duality", SPAN),
    ("double.cross_product", "hopfforge.double", "Double.cross_product", SPAN),
    ("double.cross_product_via_structure_constants", "hopfforge.double",
     "Double.cross_product_via_structure_constants", SPAN),
    ("double.derive_double_presentation", "hopfforge.double",
     "derive_double_presentation", SPAN),
    ("double.verify_universal_identity", "hopfforge.double", "verify_universal_identity", SPAN),
    ("rmatrix.RMatrixContext.init", "hopfforge.rmatrix", "RMatrixContext.__init__", SPAN),
    ("rmatrix.build_R", "hopfforge.rmatrix", "build_R", SPAN),
    ("rmatrix.verify_intertwining", "hopfforge.rmatrix", "verify_intertwining", SPAN),
    ("rmatrix.verify_coproduct_laws", "hopfforge.rmatrix", "verify_coproduct_laws", SPAN),
    ("rmatrix.verify_auxiliary", "hopfforge.rmatrix", "verify_auxiliary", SPAN),
    ("families.compare_limit_with", "hopfforge.families", "compare_limit_with", SPAN),
    ("families.verify_h1_limit", "hopfforge.families", "verify_h1_limit", SPAN),
    ("families.verify_deforming_field", "hopfforge.families", "verify_deforming_field", SPAN),
    ("families.verify_newquant_consistency", "hopfforge.families",
     "verify_newquant_consistency", SPAN),
    ("families.verify_alpha_arbitrariness", "hopfforge.families",
     "verify_alpha_arbitrariness", SPAN),
    ("families.verify_family_relations", "hopfforge.families", "verify_family_relations", SPAN),
    ("bialgebra.from_family", "hopfforge.bialgebra", "from_family", SPAN),
    ("bialgebra.check_jacobi", "hopfforge.bialgebra", "check_jacobi", SPAN),
    ("bialgebra.check_cojacobi", "hopfforge.bialgebra", "check_cojacobi", SPAN),
    ("bialgebra.check_cocycle", "hopfforge.bialgebra", "check_cocycle", SPAN),
    ("bialgebra.compare_bialgebras", "hopfforge.bialgebra", "compare_bialgebras", SPAN),
    ("cli.main", "hopfforge.cli", "main", SPAN),
)

# spans under a checked R-matrix group that belong to its bumped-cutoff re-run
_AUDITED = ("rmatrix.verify_intertwining", "rmatrix.verify_coproduct_laws",
            "rmatrix.verify_auxiliary")
_AUDIT_WORK = _AUDITED + ("rmatrix.RMatrixContext.init", "rmatrix.build_R")


def _resolve(module: str, qualname: str):
    """(owner, attribute, function), or None when the name no longer exists."""
    try:
        owner = sys.modules.get(module) or importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Wraps TARGETS; one instance per traced process."""

    def __init__(self):
        self.spans: list = []          # [label, parent, start, end, command]
        self._stack = [-1]
        self.command = -1
        self.counts = dict.fromkeys((t[0] for t in TARGETS if t[3] == COUNT), 0)
        self.stats = {"letters": 0, "max_letters": 0, "multiply_pairs": 0,
                      "tensor_pairs": 0, "max_terms_out": 0}
        self.pairings: list = []
        self.absent: list = []
        self.hook_errors: dict = {}
        self._patches: list = []       # (namespace owner, attribute, original)

    # -- installation --------------------------------------------------------
    def install(self):
        hooks = {"pbw.normal_form": self._on_normal_form,
                 "pbw.multiply": self._on_multiply,
                 "tensors.tensor_mul": self._on_tensor_mul,
                 "pairing.Pairing.init": self._on_pairing}
        for label, module, qualname, kind in TARGETS:
            found = _resolve(module, qualname)
            if found is None:
                self.absent.append(label)
                continue
            owner, attr, fn = found
            make = self._span if kind == SPAN else self._count
            wrapper = make(label, fn, hooks.get(label))
            holders = [owner] + [m for name, m in sorted(sys.modules.items())
                                 if name.startswith("hopfforge") and m is not owner]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, wrapper)
                        self._patches.append((holder, name, fn))

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for holder, name, fn in reversed(self._patches):
            setattr(holder, name, fn)
        ok = all(vars(holder)[name] is fn for holder, name, fn in self._patches)
        self._patches = []
        return ok

    def _span(self, label, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, stack[-1], clock(), 0.0, tracer.command]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                tracer._run_hook(label, hook, args, result)
            return result
        return wrapper

    def _count(self, label, fn, hook):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                tracer._run_hook(label, hook, args, result)
            return result
        return wrapper

    def _run_hook(self, label, hook, args, result):
        # a hook that no longer fits the signature loses its statistic, not the run
        try:
            hook(args, result)
        except (AttributeError, IndexError, TypeError) as e:
            self.hook_errors.setdefault(label, repr(e))

    # -- statistics taken at the boundary -----------------------------------
    def _on_normal_form(self, args, result):
        n = len(args[1])
        self.stats["letters"] += n
        if n > self.stats["max_letters"]:
            self.stats["max_letters"] = n

    def _on_multiply(self, args, result):
        self.stats["multiply_pairs"] += len(args[1].terms) * len(args[2].terms)

    def _on_tensor_mul(self, args, result):
        self.stats["tensor_pairs"] += len(args[0].terms) * len(args[1].terms)
        if len(result.terms) > self.stats["max_terms_out"]:
            self.stats["max_terms_out"] = len(result.terms)

    def _on_pairing(self, args, result):
        self.pairings.append(args[0])

    # -- reduction -----------------------------------------------------------
    def metrics(self, wall_s: float):
        """Reduce the spans and counters to {metric: value}.

        Also returns the metrics whose functions are absent (reported as 0) and
        the self-time check: the self times of all spans must add up to the
        root spans, and those to the traced wall time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls, incl, self_s = {}, {}, {}
        groups = {"families": 0.0, "bialgebra": 0.0}
        cache_misses, audit_s, min_self = 0, 0.0, 0.0
        for sid, (label, parent, t0, t1, _) in enumerate(spans):
            dur = t1 - t0
            own = dur - child_time[sid]
            min_self = min(min_self, own)
            calls[label] = calls.get(label, 0) + 1
            self_s[label] = self_s.get(label, 0.0) + own
            # inclusive time counts only the outermost of nested calls
            if label in _INCLUSIVE and not self._nested_in(sid, {label}):
                incl[label] = incl.get(label, 0.0) + dur
            layer = label.split(".", 1)[0]
            if layer in groups and not self._nested_in(sid, _GROUPS[layer]):
                groups[layer] += dur
            parent_label = spans[parent][0] if parent >= 0 else None
            if label == "pbw.normal_form" and parent_label == "pbw.multiply":
                cache_misses += 1
            if label in _AUDIT_WORK and parent_label in _AUDITED:
                audit_s += dur
        roots = sum(t1 - t0 for _, parent, t0, t1, _ in spans if parent < 0)
        total_self = sum(self_s.values())
        check = {"consistent": (abs(total_self - roots) <= 1e-6 * max(1.0, roots)
                                and abs(roots - wall_s) <= 0.01 * wall_s + 0.005
                                and min_self > -1e-6),
                 "self_s_total": total_self, "root_s_total": roots, "wall_s": wall_s,
                 "min_self_s": min_self, "spans": len(spans)}

        counts = dict(calls, **self.counts)
        values = {}
        for label, fields in _PLAIN:
            for field in fields:
                if field == "calls":
                    values[f"{label}.calls"] = counts.get(label, 0)
                elif field == "s":
                    values[f"{label}.s"] = incl.get(label, 0.0)
                else:
                    values[f"{label}.self_s"] = self_s.get(label, 0.0)
        st = self.stats
        values["pbw.normal_form.letters"] = st["letters"]
        values["pbw.normal_form.max_letters"] = st["max_letters"]
        values["pbw.multiply.term_pairs"] = st["multiply_pairs"]
        values["pbw.product_cache.misses"] = cache_misses
        values["pbw.product_cache.hit_ratio"] = (
            1.0 - cache_misses / st["multiply_pairs"] if st["multiply_pairs"] else 0.0)
        values["tensors.tensor_mul.term_pairs"] = st["tensor_pairs"]
        values["tensors.tensor_mul.max_terms_out"] = st["max_terms_out"]
        # a statistic whose hook no longer fits its function is not trusted either
        absent = set(self.absent) | set(self.hook_errors)
        memo_sizes = [getattr(p, "_memo", None) for p in self.pairings]
        if any(m is None for m in memo_sizes):
            absent.add("pairing.Pairing._memo")
        memo_misses = sum(len(m) for m in memo_sizes if m is not None)
        pm_calls = counts.get("pairing.pair_mono", 0)
        values["pairing.pair_mono.memo_misses"] = memo_misses
        values["pairing.pair_mono.memo_hit_ratio"] = (
            1.0 - memo_misses / pm_calls if pm_calls else 0.0)
        values["rmatrix.audit_s"] = audit_s
        for layer, value in groups.items():
            values[f"{layer}.s"] = value

        missing = [name for name in values if _is_absent(name, absent)]
        for name in missing:
            values[name] = 0
        missing += [f"{label}: {err}" for label, err in self.hook_errors.items()]
        return values, missing, check

    def _nested_in(self, sid, labels) -> bool:
        spans = self.spans
        parent = spans[sid][1]
        while parent >= 0:
            if spans[parent][0] in labels:
                return True
            parent = spans[parent][1]
        return False


# metrics read straight off one label: (label, fields)
_PLAIN = (
    ("scalars.Scalar.mul", ("calls",)),
    ("scalars.Scalar.add", ("calls",)),
    ("scalars.Scalar.div", ("calls",)),
    ("scalars.ParamPoly.mul", ("calls",)),
    ("scalars.ParamPoly.add", ("calls",)),
    ("presentation.load_presentation", ("calls", "s")),
    ("pbw.Engine.init", ("calls", "s")),
    ("pbw.normal_form", ("calls", "self_s")),
    ("pbw.multiply", ("calls", "self_s")),
    ("pbw.check_confluence", ("s",)),
    ("tensors.tensor_mul", ("calls", "self_s")),
    ("tensors.exp_tensor", ("s",)),
    ("hopf.HopfOps.init", ("calls", "s")),
    ("hopf.coproduct_mono", ("calls", "s")),
    ("hopf.antipode_mono", ("calls",)),
    ("hopf.verify_hopf", ("s",)),
    ("pairing.pair_mono", ("calls",)),
    ("pairing.calibrate", ("s",)),
    ("pairing.verify_duality", ("s",)),
    ("double.cross_product", ("s",)),
    ("double.cross_product_via_structure_constants", ("s",)),
    ("double.derive_double_presentation", ("calls", "s")),
    ("double.verify_universal_identity", ("s",)),
    ("rmatrix.RMatrixContext.init", ("calls", "s")),
    ("rmatrix.build_R", ("s",)),
    ("rmatrix.verify_intertwining", ("s",)),
    ("rmatrix.verify_coproduct_laws", ("s",)),
    ("cli.main", ("calls", "s")),
)
_INCLUSIVE = {label for label, fields in _PLAIN if "s" in fields}
_GROUPS = {layer: {t[0] for t in TARGETS if t[0].startswith(layer + ".")}
           for layer in ("families", "bialgebra")}


def _is_absent(name: str, absent: set) -> bool:
    """A metric is absent when a function it is read from no longer exists;
    a layer's total time only when every function of the layer is gone."""
    if name in ("families.s", "bialgebra.s"):
        return _GROUPS[name[:-2]] <= absent
    if name == "rmatrix.audit_s":
        labels = _AUDIT_WORK
    elif name.startswith("pbw.product_cache"):
        labels = ("pbw.multiply", "pbw.normal_form")
    elif name.startswith("pairing.pair_mono.memo"):
        labels = ("pairing.pair_mono", "pairing.Pairing.init", "pairing.Pairing._memo")
    else:
        labels = (name.rsplit(".", 1)[0],)
    return any(label in absent for label in labels)

