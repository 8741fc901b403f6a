"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the program's public functions and methods with
wrappers that count calls and work and time spans; `uninstall()` puts the
originals back.  A function imported by name into several modules is
replaced in every module that binds it, so calls through any of those names
are seen.  Methods are replaced on their class.

Self time of a span is its duration minus the duration of the wrapped calls
made inside it.  Work counts (terms, rows, products) are computed after the
span's clock stops and are excluded from every span's time.  Counts are kept
apart from timings: for the same inputs the counts repeat exactly, the times
do not.
"""

from __future__ import annotations

import copy
import sys
import time
from collections import Counter, defaultdict

from ruminalg import cinfty, finite, forms, linalg, parser, poly, rumin

# (metric name, unit) for every per-layer metric, in report order.  Stats
# ending in "calls", "terms_*", "rows", "term_products" or "solver_builds" are
# deterministic counts; "self_s" is a time.
PER_LAYER = [
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"), ("poly.mul.terms_out", "count"),
    ("poly.add.calls", "count"), ("poly.add.self_s", "s"),
    ("poly.deriv.calls", "count"), ("poly.deriv.self_s", "s"),
    ("poly.pow.calls", "count"), ("poly.pow.self_s", "s"),
    ("poly.to_text.calls", "count"), ("poly.to_text.self_s", "s"),
    ("forms.wedge.calls", "count"), ("forms.wedge.self_s", "s"),
    ("forms.wedge.term_products", "count"),
    ("forms.exterior_d.calls", "count"), ("forms.exterior_d.self_s", "s"),
    ("forms.exterior_d.terms_in", "count"),
    ("forms.lefschetz_power_matrix.calls", "count"), ("forms.lefschetz_power_matrix.self_s", "s"),
    ("forms.to_text.self_s", "s"),
    ("linalg.inverse.calls", "count"), ("linalg.inverse.self_s", "s"), ("linalg.inverse.rows", "count"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("rumin.gamma.calls", "count"), ("rumin.gamma.self_s", "s"),
    ("rumin.pi.calls", "count"), ("rumin.pi.self_s", "s"),
    ("rumin.m3.calls", "count"), ("rumin.m3.self_s", "s"),
    ("rumin.m2.calls", "count"), ("rumin.f2.calls", "count"),
    ("rumin.in_rumin.calls", "count"), ("rumin.in_rumin.self_s", "s"),
    ("rumin.solver_builds", "count"),
    ("cinfty.check_stasheff.calls", "count"), ("cinfty.check_stasheff.self_s", "s"),
    ("cinfty.check_morphism.calls", "count"), ("cinfty.check_morphism.self_s", "s"),
    ("cinfty.shuffle_vanishing_residual.calls", "count"),
    ("cinfty.shuffle_vanishing_residual.self_s", "s"),
    ("cinfty.apply_tensor_ops.calls", "count"), ("cinfty.apply_tensor_ops.self_s", "s"),
    ("cinfty.transfer.op_calls", "count"), ("cinfty.transfer.self_s", "s"),
    ("cinfty.transfer.mu_calls", "count"), ("cinfty.transfer.h_calls", "count"),
    ("finite.vector.eq.calls", "count"), ("finite.vector.add.calls", "count"),
    ("finite.vector.scale.calls", "count"),
    ("finite.mu_vec.calls", "count"), ("finite.mu_vec.self_s", "s"),
    ("finite.cohomology.self_s", "s"), ("finite.ce_retract.self_s", "s"),
    ("parser.eval_text.calls", "count"), ("parser.eval_text.self_s", "s"),
    ("trace.overhead", "ratio"),
]

_APPLY = "cinfty.apply_tensor_ops"
_OP = "cinfty.transfer"


def _wedge_products(args, result):
    # Coefficient products a wedge must make: |terms(pa)| * |terms(pb)| over
    # every pair of coframe monomials with disjoint indices.
    a, b = args
    if a.is_zero() or b.is_zero() or a.degree + b.degree > a.model.dim:
        return {}
    total = 0
    for ia, pa in a.terms.items():
        sa = set(ia)
        for ib, pb in b.terms.items():
            if sa.isdisjoint(ib):
                total += len(pa.terms) * len(pb.terms)
    return {"forms.wedge.term_products": total}


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list = []  # [span name, time spent in wrapped children]
        self._restore: list = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, work=None):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[name] += end - start - frame[1]
                counts[name + ".calls"] += 1
            if work is not None:
                for key, value in work(args, result).items():
                    counts[key] += value
            if stack:
                stack[-1][1] += clock() - start
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_function(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("ruminalg"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        fn = self._replace_function
        fn(forms.wedge, self.span("forms.wedge", forms.wedge, work=_wedge_products))
        fn(forms.exterior_d, self.span(
            "forms.exterior_d", forms.exterior_d,
            work=lambda args, out: {"forms.exterior_d.terms_in": len(args[0].terms)}))
        fn(forms.lefschetz_power_matrix,
           self.span("forms.lefschetz_power_matrix", forms.lefschetz_power_matrix))
        fn(linalg.inverse, self.span(
            "linalg.inverse", linalg.inverse,
            work=lambda args, out: {"linalg.inverse.rows": len(args[0])}))
        fn(linalg.rref, self.span("linalg.rref", linalg.rref))
        for name in ("gamma", "pi", "m3", "in_rumin"):
            original = getattr(rumin, name)
            fn(original, self.span("rumin." + name, original))
        fn(rumin.m2, self.counter("rumin.m2.calls", rumin.m2))
        fn(rumin.f2, self.counter("rumin.f2.calls", rumin.f2))
        for name in ("check_stasheff", "check_morphism", "shuffle_vanishing_residual",
                     "apply_tensor_ops"):
            original = getattr(cinfty, name)
            fn(original, self.span("cinfty." + name, original))
        fn(cinfty.markl_transfer, self._traced_transfer(cinfty.markl_transfer))
        fn(finite.cohomology, self.span("finite.cohomology", finite.cohomology))
        fn(finite.heisenberg_ce_retract,
           self.span("finite.ce_retract", finite.heisenberg_ce_retract))
        fn(parser.eval_text, self.span("parser.eval_text", parser.eval_text))

        method = self._replace_method
        P = poly.Poly
        method(P, "__mul__", self.span(
            "poly.mul", P.__mul__,
            work=lambda args, out: {"poly.mul.terms_out": len(out.terms)}
            if isinstance(out, P) else {}))
        for attr in ("__add__", "__sub__", "add_scaled"):
            method(P, attr, self.span("poly.add", P.__dict__[attr]))
        method(P, "deriv", self.span("poly.deriv", P.deriv))
        method(P, "__pow__", self.span("poly.pow", P.__pow__))
        method(P, "to_text", self.span("poly.to_text", P.to_text))
        method(forms.Form, "to_text", self.span("forms.to_text", forms.Form.to_text))
        V = finite.FiniteVector
        method(V, "__eq__", self.counter("finite.vector.eq.calls", V.__eq__))
        method(V, "__add__", self.counter("finite.vector.add.calls", V.__add__))
        method(V, "scale", self.counter("finite.vector.scale.calls", V.scale))
        A = finite.FiniteGradedAlgebra
        method(A, "mu_vec", self.span("finite.mu_vec", A.mu_vec))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _traced_transfer(self, markl_transfer):
        """Count calls into the transferred families, and the calls the
        transfer recursion psi makes into the retract's mu and h.  psi calls
        h only through apply_tensor_ops; the m_k/f_k evaluators call h
        directly, so h calls are attributed by the enclosing span."""
        counts, stack = self.counts, self._stack

        def traced(retract, max_arity):
            clone = copy.copy(retract)
            mu, h = retract.mu, retract.h

            def counted_mu(*args):
                counts["cinfty.transfer.mu_calls"] += 1
                return mu(*args)

            def counted_h(*args):
                if stack and stack[-1][0] == _APPLY:
                    counts["cinfty.transfer.h_calls"] += 1
                return h(*args)

            clone.mu, clone.h = counted_mu, counted_h
            mset, fset = markl_transfer(clone, max_arity)
            for family in (mset, fset):
                for k, op in list(family.ops.items()):
                    family.ops[k] = self.span(_OP, op)
            return mset, fset

        return traced

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead, 0 where the layer was
        not exercised.  rumin.solver_builds is left for the caller, which
        sees the solver cache before and after each pass."""
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead":
                continue
            if name.endswith(".self_s"):
                value = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name == "cinfty.transfer.op_calls":
                value = self.counts.get(_OP + ".calls", 0)
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out
