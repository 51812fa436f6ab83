"""Spans around calls into each dworkcong module, recorded from outside it.

`Recorder.install()` replaces public functions and methods of the library
with wrappers that record a span (name, parent span, request, start, end)
and a few work counters.  A module-level function is replaced at every
import site inside the package (for example `polytope.is_admissible`,
`congruence.is_admissible` and `cli.is_admissible`), so calls are seen no
matter which name the caller used.  Spans stay in memory; `write` dumps them
once the pass is over.

A span is named `<layer>.<kind>`, the layer being the module.  Its self time
is its duration minus the time covered by its direct child spans, so a
layer's self time is the work done in that module's own code.  Multiplies
issued while parsing are kept apart as `laurent.mul_parse`, so that
`laurent.mul_exact` and `laurent.mul_mod` measure the computation kernels.

Small helpers called millions of times (field arithmetic, digit expansion)
are left unwrapped; their time counts toward the span that called them.
"""

import json
import os
import sys
import time
from collections import Counter

from dworkcong import (apery, congruence, ghost, laurent, padic, polyparse,
                       polytope, unitroot)

LaurentPoly = laurent.LaurentPoly


class Recorder:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, request, start, end]
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._request = -1
        self._smooth_cache = unitroot.is_smooth_cubic  # the lru_cache object

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            record = [span, stack[-1] if stack else -1, self._request, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            active[span] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                active[span] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, after)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "dworkcong" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)

    def _method(self, cls, attr, name, after=None):
        setattr(cls, attr, self._wrap(cls.__dict__[attr], name, after))

    # -- counters ------------------------------------------------------------

    def _mul_span(self, args):
        a, b = args
        if not isinstance(b, LaurentPoly):
            return "laurent.other"
        if self._active["polyparse.parse_poly"]:
            return "laurent.mul_parse"
        return "laurent.mul_exact" if a.modulus is None else "laurent.mul_mod"

    def _count_mul(self, args, result):
        a, b = args
        if isinstance(b, LaurentPoly):
            self.counts["laurent.mul.calls"] += 1
            self.counts["laurent.mul.term_pairs"] += len(a) * len(b)
            self.counts["laurent.mul.terms_out"] += len(result)

    def _count_b_terms(self, args, result):
        self.counts["laurent.b_terms"] += len(result)

    def _count_tuple(self, args, result):
        if self._active["ghost.c_direct"]:
            self.counts["ghost.tuples_summed"] += 1

    def _count_apery_terms(self, args, result):
        self.counts["apery.terms"] += len(result)

    def install(self):
        fn, meth = self._function, self._method
        fn(polyparse, "parse_poly", "polyparse.parse_poly")

        fn(polytope, "is_admissible", "polytope.is_admissible")
        fn(polytope, "newton_polytope", "polytope.other")
        for attr in ("contains", "vertices"):
            meth(polytope.LatticePolytope, attr, "polytope." + attr)
        meth(polytope.LatticePolytope, "interior_lattice_points", "polytope.other")

        meth(LaurentPoly, "__mul__", self._mul_span, self._count_mul)
        for attr in ("__rmul__", "__add__", "__sub__", "__pow__",
                     "substitute_power", "reduce_mod"):
            meth(LaurentPoly, attr, "laurent.other")
        fn(laurent, "constant_term_sequence", "laurent.other", self._count_b_terms)
        fn(laurent, "constant_term_of_product", "laurent.ct_of_product",
           self._count_tuple)
        meth(laurent.PowerCache, "power", "laurent.other")
        meth(laurent.PowerCache, "constant_terms", "laurent.other",
             self._count_b_terms)
        for attr in ("__mul__", "__add__", "__sub__", "invert", "compose_xp"):
            meth(laurent.TruncSeries, attr, "laurent.series")

        calc = ghost.GhostCalculator
        meth(calc, "c_direct", "ghost.c_direct")
        meth(calc, "ghost_term", "ghost.ghost_term")
        for attr in ("tuple_product_constant_term", "tuple_product",
                     "indecomposable_sum", "constant_terms", "power",
                     "decomposition_residual"):
            meth(calc, attr, "ghost.other")
        for attr in ("c_from_b_sequence", "reconstruct_b"):
            fn(ghost, attr, "ghost.other")

        for attr in ("check_c1", "check_c2", "check_digit_product", "check_dig2",
                     "run_lemma_suite"):
            fn(congruence, attr, "congruence.check")

        fn(apery, "apery_numbers", "apery.numbers", self._count_apery_terms)
        fn(apery, "apery_numbers_mod", "apery.numbers", self._count_apery_terms)
        fn(apery, "apery_polynomial", "apery.other")

        fn(padic, "teichmuller", "padic.lift")
        fn(padic, "hensel_quadratic_unit_root", "padic.lift")

        fn(unitroot, "unit_root_compare", "unitroot.fiber")
        fn(unitroot, "is_smooth_cubic", "unitroot.smooth")
        fn(unitroot, "count_projective_points", "unitroot.count_points")
        for attr in ("unit_root_sweep", "omega_approx", "dwork_domain_test",
                     "apery_fiber", "a_p"):
            fn(unitroot, attr, "unitroot.other")

    def call_cli(self, main, argv, request):
        """Run one CLI request inside a `cli.main` span tagged with `request`."""
        self._request = request
        return self._wrap(main, "cli.main")(argv)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls, counters and self times by layer for everything recorded."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_s = Counter()
        layer_s = Counter()
        for (name, _, _, start, end), under in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - under
            layer_s[name.split(".")[0]] += end - start - under
        info = self._smooth_cache.cache_info()
        lookups = info.hits + info.misses
        c = self.counts
        return {
            "polyparse.parse_poly.calls": calls["polyparse.parse_poly"],
            "polyparse.self_s": layer_s["polyparse"],
            "polytope.is_admissible.calls": calls["polytope.is_admissible"],
            "polytope.contains.calls": calls["polytope.contains"],
            "polytope.vertices.calls": calls["polytope.vertices"],
            "polytope.self_s": layer_s["polytope"],
            "laurent.mul.calls": c["laurent.mul.calls"],
            "laurent.mul.term_pairs": c["laurent.mul.term_pairs"],
            "laurent.mul.terms_out": c["laurent.mul.terms_out"],
            "laurent.mul_mod.self_s": self_s["laurent.mul_mod"],
            "laurent.mul_exact.self_s": self_s["laurent.mul_exact"],
            "laurent.b_terms": c["laurent.b_terms"],
            "laurent.series.self_s": self_s["laurent.series"],
            "laurent.ct_of_product.self_s": self_s["laurent.ct_of_product"],
            "laurent.self_s": layer_s["laurent"],
            "ghost.c_direct.calls": calls["ghost.c_direct"],
            "ghost.tuples_summed": c["ghost.tuples_summed"],
            "ghost.ghost_term.calls": calls["ghost.ghost_term"],
            "ghost.self_s": layer_s["ghost"],
            "congruence.checks": calls["congruence.check"],
            "congruence.self_s": layer_s["congruence"],
            "apery.terms": c["apery.terms"],
            "apery.self_s": layer_s["apery"],
            "padic.calls": calls["padic.lift"],
            "padic.self_s": layer_s["padic"],
            "unitroot.fibers": calls["unitroot.fiber"],
            "unitroot.is_smooth_cubic.calls": calls["unitroot.smooth"],
            "unitroot.smooth_cache.hit_ratio": info.hits / lookups if lookups else 0.0,
            "unitroot.smooth.self_s": self_s["unitroot.smooth"],
            "unitroot.count_points.self_s": self_s["unitroot.count_points"],
            "unitroot.self_s": layer_s["unitroot"],
            "cli.requests": calls["cli.main"],
            "cli.self_s": layer_s["cli"],
        }

    def write(self, path):
        """Write the spans as JSON lines, one object per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, request, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent,
                                     "request": request, "name": name,
                                     "start_s": start, "end_s": end}) + "\n")
