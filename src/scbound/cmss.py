"""Correlated multi-secret sharing on the triangle.

A dealer maps correlated secrets (X, Y, Z) plus uniform randomness to three
link shares so that each party reconstructs exactly its own secret from its
two incident shares and learns nothing else. Transcripts of any secure
computation protocol form such a scheme; the converse fails, and the AND
scheme here is the witness: its Alice-Bob share is strictly smaller than any
protocol's transcript on that link.
"""

import itertools
from dataclasses import dataclass

from . import bounds as bounds_mod
from .dists import (
    Alphabet,
    JointDist,
    LINKS,
    SupportJoint,
    entropy,
    join,
)
from .protocols import LINK_AXIS, ExecutionJoint, builtin, verify_cutset, verify_privacy
from .simplex import OptConfig


@dataclass(frozen=True)
class CmssSpec:
    secret_axes: tuple  # (X, Y, Z) Alphabets
    dealer_randomness: Alphabet
    share_axes: tuple  # (M12, M23, M31) Alphabets
    share_fn: object  # fn(x, y, z, r) -> (m12, m23, m31)


def cmss_joint(spec, p_xyz):
    """Exact joint over (X, Y, Z, M12, M23, M31) for uniform dealer randomness,
    in support form."""
    if p_xyz.n_axes != 3 or tuple(p_xyz.axes) != tuple(spec.secret_axes):
        raise ValueError("secret distribution axes do not match the scheme")
    r_weight = 1.0 / len(spec.dealer_randomness)
    rows = (
        ((x, y, z) + tuple(spec.share_fn(x, y, z, r)), p * r_weight)
        for (x, y, z), p in p_xyz.support()
        for r in spec.dealer_randomness
    )
    return SupportJoint.accumulate(tuple(spec.secret_axes) + tuple(spec.share_axes), rows)


def verify_cmss(joint):
    """The three reconstruction and three privacy checks on a 6-axis joint
    (`verify_cutset` and `verify_privacy` of the same joint), as a dict of
    named booleans. Works on protocol execution joints too."""
    e = ExecutionJoint(joint)
    names = ("reconstruct_x", "reconstruct_y", "reconstruct_z",
             "privacy_alice", "privacy_bob", "privacy_charlie")
    return dict(zip(names, verify_cutset(e) + verify_privacy(e)))


def share_entropies(joint):
    return {link: entropy(joint, (LINK_AXIS[link],)) for link in LINKS}


def and_cmss():
    """The three-label AND scheme: a random permutation (a, b, c) of {0,1,2};
    the Alice-Bob share is a, Alice's link to Charlie carries a iff X=1 else
    b, Bob's carries a iff Y=1 else c. All three shares are uniform over
    three labels. The secrets are those of the AND built-in, whose inputs
    are 1-tuples of bits."""
    ch = builtin("and").channel
    labels = Alphabet("L", (0, 1, 2))
    perms = Alphabet("R", tuple(itertools.permutations((0, 1, 2))))

    def share(x, y, z, r):
        a, b, c = r
        return a, (a if y[0] else c), (a if x[0] else b)

    return CmssSpec(
        secret_axes=(ch.x_axis, ch.y_axis, ch.z_axis),
        dealer_randomness=perms,
        share_axes=(Alphabet("M12", labels.symbols), Alphabet("M23", labels.symbols),
                    Alphabet("M31", labels.symbols)),
        share_fn=share,
    )


def and_secret_dist():
    """Uniform independent input bits pushed through AND."""
    b = builtin("and")
    return join(b.default_input, b.channel)


@dataclass
class SeparationReport:
    cmss_bounds: dict  # link -> share lower bound
    gaps: dict  # link -> protocol bound minus share bound (clamped at 0)
    scheme_entropies: dict  # achieved share entropies, when a scheme is known
    scheme_checks: dict  # verify_cmss of that scheme's joint, when one is known


def separation_report(ch=None, p_xy=None, cfg=None, report=None):
    """Dealer-vs-protocol gap for a channel (default: AND, uniform inputs).

    For AND the known three-label scheme achieves the share bounds, so the
    Alice-Bob gap is the protocol bound minus log 3; the report carries the
    scheme's share entropies and its six CMSS checks. `report`, when given,
    is the best_bounds report of (p_xy, ch) the caller already has.
    """
    cfg = cfg or OptConfig()
    is_and = ch is None
    if is_and:
        ch = builtin("and").channel
    if p_xy is None:
        p_xy = JointDist.uniform((ch.x_axis, ch.y_axis))
    if report is None:
        report = bounds_mod.best_bounds(p_xy, ch, cfg)
    p_xyz = join(p_xy, ch)
    cm = bounds_mod.cmss_bounds(p_xyz, cfg)
    cmss_vals = {link: cm[link].value for link in LINKS}
    gaps = {link: max(report.link(link).value - cmss_vals[link], 0.0) for link in LINKS}
    scheme, checks = {}, {}
    if is_and:
        joint = cmss_joint(and_cmss(), and_secret_dist())
        scheme, checks = share_entropies(joint), verify_cmss(joint)
    return SeparationReport(cmss_bounds=cmss_vals, gaps=gaps,
                            scheme_entropies=scheme, scheme_checks=checks)

