"""Correctness checks on the reports the operations wrote.

An operation fails if it raised or exited nonzero, if a link value falls
more than TOL below its seed-0 reference (at a nonzero seed only the
distribution-free terms, which do not depend on the input, are compared),
if a bound exceeds the matching built-in's simulated entropy at the same
input by more than TOL, or if a lookup-table protocol and the built-in
closures disagree by more than TOL at the same input.
"""

import json

TOL = 1e-9
LINKS = ("m12", "m23", "m31")


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def reference_of(op, report):
    """The values of one seed-0 report that later runs are held to."""
    if op.kind == "reproduce":
        return {"rows": {r["name"]: r["bounds"] for r in report["rows"]}}
    if op.kind == "analyze":
        return {
            "links": {l: report["links"][l]["value"] for l in LINKS},
            "terms": {
                "%s/%s" % (l, t["name"]): t["value"]
                for l in LINKS
                for t in report["links"][l]["terms"]
                if t["distribution_free"]
            },
        }
    return {"entropies": report["entropies"]}


class Simulator:
    """In-process runs of the built-in closures, cached per op."""

    def __init__(self):
        self._cache = {}

    def __call__(self, op):
        if op.id not in self._cache:
            from scbound.protocols import expected_lengths, run_exact

            e = run_exact(op.builtin.spec, op.p_xy)
            self._cache[op.id] = (
                {l: e.h(l) for l in LINKS},
                expected_lengths(op.builtin.spec, op.p_xy, execution=e),
            )
        return self._cache[op.id]


def _at_least(got, ref, what, problems):
    """Record a shortfall below the reference; return the shortfall."""
    if ref - got > TOL:
        problems.append("%s = %.12g is below its reference %.12g" % (what, got, ref))
    return ref - got


def _close(got, want, what, problems):
    if abs(got - want) > TOL:
        problems.append("%s = %.12g differs from %.12g" % (what, got, want))


def check(op, rc, report, ref, seed, simulate):
    """Return (problems, deficit_bits) for one operation's outcome."""
    if rc != 0:
        return ["exit code %r" % (rc,)], 0.0
    if ref is None:
        return ["no reference for op %s" % op.id], 0.0
    problems, deficit = [], 0.0
    if op.kind == "reproduce":
        rows = {r["name"]: r for r in report["rows"]}
        for name, bounds in ref["rows"].items():
            if name not in rows:
                problems.append("row %s missing" % name)
                continue
            row = rows[name]
            for l in LINKS:
                deficit = max(deficit, _at_least(row["bounds"][l], bounds[l], "%s %s" % (name, l),
                                                 problems))
                if row["bounds"][l] > row["simulated"][l] + TOL:
                    problems.append("%s %s bound exceeds the simulated entropy" % (name, l))
    elif op.kind == "analyze":
        links = report["links"]
        if seed == 0:
            for l in LINKS:
                deficit = max(deficit, _at_least(links[l]["value"], ref["links"][l], l, problems))
        terms = {"%s/%s" % (l, t["name"]): t["value"] for l in LINKS for t in links[l]["terms"]}
        for key, value in ref["terms"].items():
            if key not in terms:
                problems.append("term %s missing" % key)
                continue
            deficit = max(deficit, _at_least(terms[key], value, key, problems))
        entropies, _ = simulate(op)
        for l in LINKS:
            if links[l]["value"] > entropies[l] + TOL:
                problems.append("%s bound %.12g exceeds the built-in's entropy %.12g"
                                % (l, links[l]["value"], entropies[l]))
    else:
        got = report["entropies"]
        table = "--spec" in op.argv
        if seed == 0 or not table:
            for l in LINKS:
                deficit = max(deficit, ref["entropies"][l] - got[l])
                _close(got[l], ref["entropies"][l], l, problems)
        if table:
            entropies, lengths = simulate(op)
            for l in LINKS:
                _close(got[l], entropies[l], "%s against the built-in" % l, problems)
                _close(report["expected_lengths"][l], lengths[l],
                       "%s expected length against the built-in" % l, problems)
    return problems, deficit
