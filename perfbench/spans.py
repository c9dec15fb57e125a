"""Span recording for the traced run, and the per-layer metrics derived
from the spans.

`install` wraps scbound's public functions (and the term-kernel methods of
`_TermBank` and `_SupportCone`) from the benchmark's side. A function is
replaced in every scbound module that holds it, so names bound by
`from ... import` are traced as well as their defining module. Spans are
kept in memory and written out once the traced pass has ended. Nothing here
runs in the untraced measurement.
"""

import functools
import importlib
import time

import numpy as np

# span record fields
NAME, T0, T1, PARENT, OP, INFO, TAX = range(7)

_MODULES = ("cli", "bounds", "simplex", "normal_form", "common_info", "dists", "protocols",
            "cmss")
_NORMAL_FORM = ("channel_normal_form", "is_channel_normal_form", "pair_normal_form",
                "is_pair_normal_form", "sampling_normal_form", "is_sampling_normal_form",
                "bigraph_connected", "check_condition1", "check_condition2")
_VERIFY = ("verify_correctness", "verify_privacy", "verify_cutset", "verify_info_inequality",
           "verify_transcript_independence")


class Tracer:
    """Records (name, start, end, parent, op id, counts, tax) per call.

    `op` names the operation being traced; while it is None the wrappers
    record nothing. `tax` is time spent inside a span taking its counts,
    which is subtracted from the span and its ancestors.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrap(self, name, fn, counts=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if counts is not None:
                    t = clock()
                    rec[INFO] = counts(args, kwargs, out)
                    tax = clock() - t
                    for i in stack:
                        spans[i][TAX] += tax
                return out
            finally:
                rec[T1] = clock()
                stack.pop()

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\tcounts\n")
            for rec in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%s\t%s\n"
                         % (rec[NAME], rec[T0], rec[T1], rec[PARENT], rec[OP], rec[INFO] or ""))


# -- counts taken from arguments and return values --------------------------


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _polish_counts(args, kwargs, out):
    value = kwargs.get("value", args[3] if len(args) > 3 else None)
    best, _, evals = out
    return {"evals": evals, "gain": 0.0 if value is None else best - value}


def _pair_counts(args, kwargs, out):
    bank = args[0]
    n_a = len(_as_rows(_arg(args, kwargs, 1, "A")))
    n_b = len(_as_rows(_arg(args, kwargs, 2, "B")))
    # the pz output-law tensor is (n_a, n_b, nz) float64 across its chunks
    return {"cells": n_a * n_b, "bytes": n_a * n_b * bank.nz * 8}


def _as_rows(a):
    return np.atleast_2d(np.asarray(a, dtype=float))


def _joint_counts(args, kwargs, out):
    q = np.asarray(_arg(args, kwargs, 1, "Q"))
    return {"rows": 1 if q.ndim == 2 else len(q)}


def _cone_counts(args, kwargs, out):
    return {"rows": len(_as_rows(_arg(args, kwargs, 1, "Qs")))}


def _run_exact_counts(args, kwargs, out):
    from scbound.dists import SUPPORT_EPS

    spec, p_xy = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "p_xy")
    r1, r2, r3 = spec.randomness
    probs = out.joint.probs
    return {
        "branches": len(list(p_xy.support())) * len(r1) * len(r2) * len(r3),
        "cells": int(probs.size),
        "support": int(np.count_nonzero(probs > SUPPORT_EPS)),
    }


def _marginal_counts(args, kwargs, out):
    return {"cells": int(args[0].probs.size)}


def _optimize_counts(args, kwargs, out):
    return {"evals": out.evaluations}


def _candidate_counts(args, kwargs, out):
    return {"points": len(out)}


def install(tracer):
    """Wrap every traced scbound function in every module that holds it."""
    mods = {m: importlib.import_module("scbound." + m) for m in _MODULES}
    targets = [
        ("cli", "main", "cli.main", None),
        ("dists", "dumps", "cli.emit", None),
        ("simplex", "optimize_over_simplex", "simplex.optimize", _optimize_counts),
        ("simplex", "coordinate_polish", "simplex.polish", _polish_counts),
        ("simplex", "candidate_points", "simplex.candidates", _candidate_counts),
        ("common_info", "residual_info", "common_info.residual_info", None),
        ("protocols", "run_exact", "protocols.run_exact", _run_exact_counts),
        ("protocols", "expected_lengths", "protocols.expected_lengths", None),
        ("protocols", "spec_to_json", "protocols.spec_to_json", None),
        ("protocols", "spec_from_json", "protocols.spec_from_json", None),
        ("cmss", "separation_report", "cmss.separation_report", None),
        ("cmss", "cmss_joint", "cmss.cmss_joint", None),
    ]
    targets += [("bounds", fam + "_bounds", "bounds." + fam, None)
                for fam in ("prelim", "intermediate", "improved", "switched", "conditional",
                            "cmss")]
    targets.append(("bounds", "best_bounds", "bounds.best_bounds", None))
    targets += [("normal_form", f, "normal_form", None) for f in _NORMAL_FORM]
    targets += [("protocols", f, "protocols.verify", None) for f in _VERIFY]

    import scbound

    holders = list(mods.values()) + [scbound]
    for mod, attr, name, counts in targets:
        original = getattr(mods[mod], attr)
        wrapper = tracer.wrap(name, original, counts)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)

    methods = [
        (mods["bounds"]._TermBank, "pair_values", "bounds.kernel.pair", _pair_counts),
        (mods["bounds"]._TermBank, "joint_values", "bounds.kernel.joint", _joint_counts),
        (mods["bounds"]._SupportCone, "values", "bounds.kernel.cone", _cone_counts),
        (mods["dists"].JointDist, "marginal", "dists.marginal", _marginal_counts),
    ]
    for cls, attr, name, counts in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), counts))


# -- per-layer metrics -------------------------------------------------------


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans):
    """Per-layer metrics from one traced pass (and its set-up)."""
    n = len(spans)
    net = [rec[T1] - rec[T0] - rec[TAX] for rec in spans]
    children = [[] for _ in range(n)]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    by_name = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def outermost(name):
        """Busy time of `name`: its spans not nested in another of its spans."""
        total = 0.0
        for i in idx(name):
            p = spans[i][PARENT]
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:
                total += net[i]
        return total

    def info(i, key):
        """A count of span i; 0 when its call raised before counting."""
        return spans[i][INFO][key] if spans[i][INFO] else 0

    def info_sum(name, key):
        return sum(info(i, key) for i in idx(name))

    def net_of_children(i, keep):
        return net[i] - sum(net[c] for c in children[i] if not keep(spans[c][NAME]))

    m = {}
    polish = idx("simplex.polish")
    m["simplex.polish.s"] = outermost("simplex.polish")
    m["simplex.polish.calls"] = len(polish)
    m["simplex.polish.evals"] = info_sum("simplex.polish", "evals")
    m["simplex.polish.gain_bits"] = info_sum("simplex.polish", "gain")
    m["simplex.polish.useful_frac"] = (
        sum(1 for i in polish if info(i, "gain") > 1e-12) / len(polish) if polish else 0.0
    )
    scan_s, scan_evals = 0.0, 0
    for i in idx("simplex.optimize"):
        scan_s += net_of_children(i, lambda c: c != "simplex.polish")
        scan_evals += info(i, "evals") - sum(
            info(c, "evals") for c in children[i] if spans[c][NAME] == "simplex.polish"
        )
    m["simplex.scan.s"] = scan_s
    m["simplex.scan.evals"] = scan_evals
    m["simplex.candidates.points"] = info_sum("simplex.candidates", "points")

    for fam in ("best_bounds", "prelim", "intermediate", "improved", "switched", "conditional",
                "cmss"):
        m["bounds.%s.s" % fam] = outermost("bounds." + fam)
    for fam in ("switched", "conditional"):
        # the nested sweep (its kernel calls) net of polish and other layers
        m["bounds.%s.self_s" % fam] = sum(
            net_of_children(i, lambda c: _layer(c) == "bounds") for i in idx("bounds." + fam)
        )

    pair = "bounds.kernel.pair"
    m[pair + ".calls"] = len(idx(pair))
    m[pair + ".cells"] = info_sum(pair, "cells")
    m[pair + ".cells_per_call"] = m[pair + ".cells"] / len(idx(pair)) if idx(pair) else 0.0
    m[pair + ".bytes_computed"] = info_sum(pair, "bytes")
    m[pair + ".s"] = outermost(pair)
    for kern in ("joint", "cone"):
        name = "bounds.kernel." + kern
        m[name + ".calls"] = len(idx(name))
        m[name + ".rows"] = info_sum(name, "rows")
        m[name + ".s"] = outermost(name)

    m["protocols.run_exact.s"] = outermost("protocols.run_exact")
    m["protocols.run_exact.branches"] = info_sum("protocols.run_exact", "branches")
    cells = info_sum("protocols.run_exact", "cells")
    m["protocols.joint.cells"] = cells
    m["protocols.joint.support"] = info_sum("protocols.run_exact", "support")
    m["protocols.joint.support_frac"] = m["protocols.joint.support"] / cells if cells else 0.0
    for name in ("verify", "expected_lengths", "spec_to_json", "spec_from_json"):
        m["protocols.%s.s" % name] = outermost("protocols." + name)

    m["dists.marginal.calls"] = len(idx("dists.marginal"))
    m["dists.marginal.cells_read"] = info_sum("dists.marginal", "cells")
    m["dists.marginal.s"] = outermost("dists.marginal")
    m["normal_form.s"] = outermost("normal_form")
    m["normal_form.calls"] = len(idx("normal_form"))
    m["common_info.residual_info.s"] = outermost("common_info.residual_info")
    m["common_info.residual_info.calls"] = len(idx("common_info.residual_info"))
    m["cmss.separation_report.s"] = outermost("cmss.separation_report")
    m["cmss.cmss_joint.s"] = outermost("cmss.cmss_joint")
    m["cli.self_s"] = sum(net_of_children(i, lambda c: False) for i in idx("cli.main"))
    m["cli.emit_s"] = outermost("cli.emit")
    return m


def partition(m):
    """Disjoint shares of traced time, for naming the dominant layer."""
    return {
        "cli": m["cli.self_s"] + m["cli.emit_s"],
        "normal_form": m["normal_form.s"],
        "common_info": m["common_info.residual_info.s"],
        "simplex.polish": m["simplex.polish.s"],
        "simplex.scan": m["simplex.scan.s"],
        "bounds.nested_sweep": m["bounds.switched.self_s"] + m["bounds.conditional.self_s"],
        "protocols.run_exact": m["protocols.run_exact.s"],
        "protocols.verify": m["protocols.verify.s"],
        "protocols.expected_lengths": m["protocols.expected_lengths.s"],
    }
