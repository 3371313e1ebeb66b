"""Span tracer for the benchmark, kept entirely outside the nhcz package.

``Tracer.install`` replaces each layer-boundary function of nhcz with a
wrapper that records one span (name, start, end, parent, tag) and, where the
boundary exposes it, a count of the work done.  Functions are replaced under
every name an nhcz module binds them to, so calls through an imported alias
(``nhcz.verify.growth_constant``) and through a call-time import
(``from nhcz.fastsum import apply_fast``) are both seen.  ``uninstall``
puts the originals back.  Spans stay in memory until ``to_json`` hands them
over to be written out.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _rows(cloud, targets):
    return len(cloud) if targets is None else int(np.asarray(targets).size)


def _count_ladder(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    centers = a.get("centers")
    n_centers = len(a["cloud"]) if centers is None else len(centers)
    return {"ball_sum_evals": n_centers * len(a["radii"]) * len(a["weight_list"])}


def _count_cauchy(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"direct_calls": 1, "direct_pairs": _rows(a["cloud"], a.get("targets")) * len(a["cloud"])}


def _count_maximal(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"maximal_evals": _rows(a["cloud"], a.get("targets")) * len(a["fields"])}


def _count_tree(fn, args, kwargs, tree):
    leaves = int(tree.is_leaf.sum())
    return {
        "trees_built": 1,
        "tree_cells": int(tree.n_cells),
        "tree_leaves": leaves,
        "tree_depth": int(tree.depth.max()),
        "tree_nodes": len(tree.cloud),
        "leaf_slots": leaves * int(tree.leaf_cap),
    }


def _count_cz(fn, args, kwargs, rep):
    # sampled scans draw ``budget`` triples per smoothness condition; the
    # exhaustive scan visits all n^3 triples for each condition
    per_condition = rep.n_nodes**3 if rep.exhaustive else rep.budget
    return {"cz_triples": 2 * per_condition}


# (span name, module, attribute, counter).  Nested boundaries of one layer
# (operator_norm -> power_iteration) share a name; self times stay additive.
BOUNDARIES = [
    ("geometry.generate", "nhcz.geometry", "generate_family", lambda f, a, k, fam: {"squares_generated": len(fam)}),
    ("geometry.generate", "nhcz.geometry", "generate_cascade_family", lambda f, a, k, fam: {"squares_generated": len(fam)}),
    ("geometry.packing_constant", "nhcz.geometry", "packing_constant", lambda f, a, k, r: {"packing_constant_calls": 1}),
    ("measure.quadrature", "nhcz.measure", "build_measure", None),
    ("measure.quadrature", "nhcz.measure", "build_quadrature", None),
    ("measure.ball_sums", "nhcz.measure", "growth_constant", None),
    ("measure.ball_sums", "nhcz.measure", "a2_constant", None),
    ("measure.ball_sums", "nhcz.measure", "_ladder_ball_sums", _count_ladder),
    ("measure.ball_mass", "nhcz.measure", "ball_mass", lambda f, a, k, r: {"ball_mass_calls": 1}),
    ("kernels.cz", "nhcz.kernels", "cz_constants", _count_cz),
    ("operators.direct_apply", "nhcz.operators", "apply_direct", None),
    ("operators.direct_apply", "nhcz.operators", "apply_direct_targets", None),
    ("operators.direct_apply", "nhcz.operators", "adjoint_apply_direct", None),
    ("operators.direct_apply", "nhcz.operators", "_cauchy_square_apply", _count_cauchy),
    ("operators.norm", "nhcz.operators", "operator_norm", None),
    ("operators.norm", "nhcz.operators", "power_iteration", lambda f, a, k, est: {"norm_iterations": est.iterations}),
    ("operators.maximal", "nhcz.operators", "_maximal_many", _count_maximal),
    ("operators.t1", "nhcz.operators", "t1_testing", lambda f, a, k, rep: {"t1_skipped": rep.skipped}),
    ("fastsum.build_tree", "nhcz.fastsum", "build_tree", _count_tree),
    ("fastsum.apply", "nhcz.fastsum", "apply_fast", lambda f, a, k, r: {"apply_calls": 1}),
    ("fastsum.moments", "nhcz.fastsum", "QuadTree.moments", None),
    ("verify", "nhcz.verify", "scaling_study", None),
    ("verify", "nhcz.verify", "check_main_inequality", None),
    ("verify", "nhcz.verify", "check_domination", None),
    ("verify", "nhcz.verify", "check_decomposition", None),
    ("verify", "nhcz.verify", "_fast_apply_pair", None),
    ("verify", "nhcz.verify", "_direct_apply_pair", None),
]

APPLY_SPANS = ("operators.direct_apply", "fastsum.apply")
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag, counts or None]
        self.stack = []
        self.tag = ""
        self._saved = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(fn, args, kwargs, out)
            return out

        return traced

    def install(self):
        import nhcz  # noqa: F401  (loads every nhcz module)

        modules = [m for n, m in list(sys.modules.items()) if n == "nhcz" or n.startswith("nhcz.")]
        for name, mod_name, attr, counter in BOUNDARIES:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def phase(self, tag, fn, *args):
        """Run ``fn(*args)`` under a root span tagged ``tag``; returns the
        result and the span's duration."""
        self.tag = tag
        first = len(self.spans)
        out = self._wrap(ROOT, fn, None)(*args)
        _, start, end, *_ = self.spans[first]
        return out, end - start

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "tag": t, "counts": c or {}}
            for n, s, e, p, t, c in self.spans
        ]

    def summary(self, select):
        """Per-span-name self and inclusive times, summed counts, and the
        number of outermost applies under each span name, over the spans
        whose tag satisfies ``select``."""
        child = defaultdict(float)
        for n, s, e, p, t, c in self.spans:
            if p >= 0:
                child[p] += e - s
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        counts = defaultdict(int)
        depth = 0
        applies_under = defaultdict(int)
        for idx, (n, s, e, p, t, c) in enumerate(self.spans):
            if not select(t):
                continue
            self_s[n] += (e - s) - child[idx]
            if p < 0 or self.spans[p][0] != n:
                incl_s[n] += e - s
            for key, val in (c or {}).items():
                if key == "tree_depth":
                    depth = max(depth, val)
                else:
                    counts[key] += val
            if n in APPLY_SPANS and (p < 0 or self.spans[p][0] not in APPLY_SPANS):
                for anc in self._ancestors(p):
                    applies_under[anc] += 1
        counts["tree_depth"] = depth
        return self_s, incl_s, counts, applies_under

    def _ancestors(self, p):
        names = set()
        while p >= 0:
            names.add(self.spans[p][0])
            p = self.spans[p][3]
        return names
