"""Exact execution and verification of finite 3-party protocols.

A protocol is a static schedule of deterministic message maps over declared
finite alphabets, with one uniform randomness symbol per party drawn up
front (resampling makes this lossless for honest executions). Every message,
and Charlie's output, is a function of one party's `View`: its input, its
randomness and the transcripts on its two links so far. Execution walks
every (x, y, r1, r2, r3) branch, round by round, as integer arrays in
blocks of whole input pairs, and sums the exact joint over inputs, output
and the three link transcripts; all security checks are entropy statements
on that joint.

The call contract: maps are deterministic functions of their `View`, and
each map is called once per distinct view the branches reach, in the order
the branches first reach them (a map is not called once per branch). Its
transcripts hold the round alphabets' own symbols. A map that steps outside
its alphabet raises ProtocolSpecError at the first such view of its round;
errors surface round by round, not branch by branch.

Built-ins: the one-time-pad group adder, the masked arithmetic sum, the
controlled erasure transfer, remote one-out-of-m OT, and the permutation
based AND.
"""

import heapq
import inspect
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dists import (
    Alphabet,
    CapacityError,
    Channel,
    JointDist,
    LINKS,
    SUPPORT_EPS,
    SupportJoint,
    ZERO_TOL,
    alphabet_from_json,
    alphabet_to_json,
    cond_entropy,
    cond_mutual_info,
    entropy,
    mutual_info,
    sym_str,
    unique_dict,
    _codes,
)

BRANCH_CAP = 10_000_000
# the elements (tuples x factors) one product of a built-in's symbols may hold
PRODUCT_CAP = 1 << 23

X, Y, Z, M12, M23, M31 = range(6)
LINK_AXIS = dict(zip(LINKS, (M12, M23, M31)))  # a link's axis in an execution joint
_ENDS = dict(zip(LINKS, ((1, 2), (2, 3), (3, 1))))  # a link's two parties
_LINK = {pair: link for link, ends in _ENDS.items() for pair in (ends, ends[::-1])}
# a party's two links, in View field order
_PARTY_LINKS = {p: tuple(link for link in LINKS if p in _ENDS[link]) for p in (1, 2, 3)}


class ProtocolSpecError(ValueError):
    """A message map stepped outside its declared alphabet."""


class View(NamedTuple):
    """What a party reads to send a message, and what Charlie reads to
    output: its own input (None for Charlie), its randomness, and the
    transcript tuple of each link it is on (None on the link it is not on)."""

    inp: object
    rand: object
    m12: object
    m23: object
    m31: object


@dataclass(frozen=True)
class Round:
    sender: int
    receiver: int
    alphabet: Alphabet
    fn: object  # fn(View) -> symbol

    def link(self):
        return _LINK[(self.sender, self.receiver)]


@dataclass(frozen=True)
class ProtocolSpec:
    x_axis: Alphabet
    y_axis: Alphabet
    z_axis: Alphabet
    randomness: tuple  # three Alphabets, possibly trivial
    rounds: tuple
    output_fn: object  # fn(Charlie's final View) -> z symbol

    def __post_init__(self):
        if len(self.randomness) != 3:
            raise ProtocolSpecError("randomness needs 3 alphabets, one per party, not %d"
                                    % len(self.randomness))
        for rnd in self.rounds:
            if rnd.sender not in (1, 2, 3) or rnd.receiver not in (1, 2, 3):
                raise ProtocolSpecError("parties are 1, 2, 3")
            if rnd.sender == rnd.receiver:
                raise ProtocolSpecError("sender and receiver must differ")

    def link_rounds(self, link):
        return [r for r in self.rounds if r.link() == link]


@dataclass
class ExecutionJoint:
    """Exact joint over (X, Y, Z, M12, M23, M31), in support form; transcripts
    are tuples of the symbols exchanged on the link in schedule order."""

    joint: SupportJoint

    def h(self, link):
        return entropy(self.joint, (LINK_AXIS[link],))


def _link_alphabet(spec, link):
    # a link with no rounds carries the one empty transcript, ()
    return Alphabet(link.upper(), _product(*(r.alphabet.symbols for r in spec.link_rounds(link))))


# the walker runs whole input pairs in blocks of about this many branches
# (at least one pair), so its arrays never grow with BRANCH_CAP
_BLOCK_BRANCHES = 1 << 16


def _first_seen(code):
    """The first row of each distinct code, in first-seen order, and each
    row's position among them."""
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _walk(spec, xs, ys, mass):
    """Run the schedule on input index pairs (xs[i], ys[i]), each under every
    randomness triple in (r1, r2, r3) order, a branch of pair i weighing
    mass[i].

    Each round's map, and Charlie's output map, is called once per distinct
    sender view, in first-seen branch order. A view is keyed by its codes
    (input index, randomness index, transcript number on each of the
    sender's links), where a transcript's number is the mixed-radix number
    of its message indices, so a link's final number is its index in
    _link_alphabet. Returns the per-round {key: (View, symbol index)}
    tables, the output's last, and the distinct (x, y, z, m12, m23, m31)
    index rows in first-seen order with their masses, each summed from 0.0
    in branch order. Blocks hold whole input pairs and every row holds its
    pair, so each row's branches all fall in one block. Raises
    ProtocolSpecError when a message or the output is outside its alphabet.
    """
    r_sizes = [len(a) for a in spec.randomness]
    # the (r1, r2, r3) index columns of every triple, r3 fastest, as in
    # itertools.product
    r_cols = np.unravel_index(np.arange(np.prod(r_sizes)), r_sizes)
    n_r = len(r_cols[0])
    link_rounds = {link: spec.link_rounds(link) for link in LINKS}
    texts = {}  # (link, depth, transcript number) -> symbol tuple

    def text(link, depth, t):
        got = texts.get((link, depth, t))
        if got is None:
            got = ()
            if depth:
                a = link_rounds[link][depth - 1].alphabet
                got = text(link, depth - 1, t // len(a)) + (a.symbols[t % len(a)],)
            texts[link, depth, t] = got
        return got

    # per step: the sender, its map, alphabet and miss message, the link it
    # sends on (None for the output), its input symbols (Charlie has one,
    # None) and randomness symbols, and its links' View fields, depths and
    # spans (the count of transcript numbers so far)
    plan, depth, span = [], dict.fromkeys(link_rounds, 0), dict.fromkeys(link_rounds, 1)
    inputs = {1: spec.x_axis.symbols, 2: spec.y_axis.symbols, 3: (None,)}
    for rnd in spec.rounds + (None,):
        if rnd is None:
            party, fn, alphabet, link = 3, spec.output_fn, spec.z_axis, None
            miss = "output %r outside the output alphabet"
        else:
            party, fn, alphabet, link = rnd.sender, rnd.fn, rnd.alphabet, rnd.link()
            miss = "round %d->%d produced %%r outside its alphabet" % (rnd.sender, rnd.receiver)
        links = [(View._fields.index(on), on, depth[on], span[on])
                 for on in _PARTY_LINKS[party]]
        plan.append((party, fn, alphabet, miss, link, inputs[party],
                     spec.randomness[party - 1].symbols, links))
        if link is not None:
            depth[link] += 1
            span[link] *= len(alphabet)
    tables = [{} for _ in plan]
    sizes = [len(spec.x_axis), len(spec.y_axis), len(spec.z_axis)] + [span[l] for l in LINKS]

    rows, masses = [], []
    per = max(1, _BLOCK_BRANCHES // n_r)
    for lo in range(0, len(xs), per):
        bx, by = xs[lo:lo + per], ys[lo:lo + per]
        n = len(bx) * n_r
        inp = {1: np.repeat(bx, n_r), 2: np.repeat(by, n_r), 3: np.zeros(n, dtype=np.int64)}
        rand = {p: np.tile(r_cols[p - 1], len(bx)) for p in (1, 2, 3)}
        tid = {on: np.zeros(n, dtype=np.int64) for on in link_rounds}
        for step, table in zip(plan, tables):
            party, fn, alphabet, miss, link, inp_syms, rand_syms, links = step
            (pos_a, la, da, span_a), (pos_b, lb, db, span_b) = links
            cols = [inp[party], rand[party], tid[la], tid[lb]]
            first, inverse = _first_seen(
                _codes(cols, [len(inp_syms), len(rand_syms), span_a, span_b])
            )
            sent = []
            for key in zip(*(c[first].tolist() for c in cols)):
                hit = table.get(key)
                if hit is None:
                    row = [inp_syms[key[0]], rand_syms[key[1]], None, None, None]
                    row[pos_a] = text(la, da, key[2])
                    row[pos_b] = text(lb, db, key[3])
                    view = View(*row)
                    sym = fn(view)
                    i = alphabet._index.get(sym)
                    if i is None:
                        raise ProtocolSpecError(miss % (sym,))
                    hit = table[key] = (view, i)
                sent.append(hit[1])
            sent = np.array(sent, dtype=np.int64)[inverse]
            if link is None:
                z = sent
            else:
                tid[link] = tid[link] * len(alphabet) + sent
        cols = [inp[1], inp[2], z] + [tid[l] for l in LINKS]
        first, inverse = _first_seen(_codes(cols, sizes))
        rows.append(np.stack([c[first] for c in cols], axis=1))
        masses.append(np.bincount(inverse, weights=np.repeat(mass[lo:lo + per], n_r),
                                  minlength=len(first)))
    return tables, np.concatenate(rows), np.concatenate(masses)


def run_exact(spec, p_xy):
    """Walk all branches of the supported input pairs and return the exact
    execution joint."""
    if p_xy.n_axes != 2 or p_xy.axes[0] != spec.x_axis or p_xy.axes[1] != spec.y_axis:
        raise ValueError("input distribution axes do not match the protocol")
    r1, r2, r3 = spec.randomness
    branches = len(spec.x_axis) * len(spec.y_axis) * len(r1) * len(r2) * len(r3)
    if branches > BRANCH_CAP:
        raise CapacityError("%d branches exceed cap %d" % (branches, BRANCH_CAP))
    axes = (spec.x_axis, spec.y_axis, spec.z_axis) + tuple(_link_alphabet(spec, l) for l in LINKS)
    r_weight = 1.0 / (len(r1) * len(r2) * len(r3))
    xs, ys = np.nonzero(p_xy.probs > SUPPORT_EPS)  # the support, in support() order
    _, coords, probs = _walk(spec, xs, ys, p_xy.probs[xs, ys] * r_weight)
    return ExecutionJoint(joint=SupportJoint(axes, coords, probs))


# ---------------------------------------------------------------------------
# Security checks (all tolerances ZERO_TOL = 1e-9)


def verify_correctness(e, ch):
    """Charlie's conditional output law equals the channel row on every
    supported input pair."""
    p_xyz = e.joint.marginal({X, Y, Z}).probs
    p_xy = p_xyz.sum(axis=2)
    on = p_xy > SUPPORT_EPS
    got = p_xyz[on] / p_xy[on][:, None]
    return not (np.abs(got - ch.kernel[on]) > ZERO_TOL).any()


def verify_privacy(e):
    """The three curious-party Markov chains, as vanishing conditional MI:
    (against Alice, against Bob, against Charlie)."""
    d = e.joint
    return (
        cond_mutual_info(d, (M12, M31), (Y, Z), (X,)) <= ZERO_TOL,
        cond_mutual_info(d, (M12, M23), (X, Z), (Y,)) <= ZERO_TOL,
        cond_mutual_info(d, (M23, M31), (X, Y), (Z,)) <= ZERO_TOL,
    )


def verify_cutset(e):
    """Each party's cut determines its input/output:
    (H(X|M12,M31), H(Y|M12,M23), H(Z|M23,M31)) all zero."""
    d = e.joint
    return (
        cond_entropy(d, (X,), (M12, M31)) <= ZERO_TOL,
        cond_entropy(d, (Y,), (M12, M23)) <= ZERO_TOL,
        cond_entropy(d, (Z,), (M23, M31)) <= ZERO_TOL,
    )


def verify_info_inequality(e):
    """For independent inputs, unconditioned link MI dominates the MI
    conditioned on the third link, for all three rotations."""
    d = e.joint
    checks = []
    for a, b, c in ((M31, M23, M12), (M12, M31, M23), (M23, M12, M31)):
        lhs = mutual_info(d, (a,), (b,))
        rhs = cond_mutual_info(d, (a,), (b,), (c,))
        checks.append(lhs >= rhs - ZERO_TOL)
    return tuple(checks)


def verify_transcript_independence(
    e, bigraph_connected=None, condition1=None, condition2=None, product_inputs=None
):
    """Transcript-input independences, each checked only when its gating
    flag is True; inapplicable checks come back None."""
    d = e.joint
    out = {}
    out["m12"] = mutual_info(d, (X, Y, Z), (M12,)) <= ZERO_TOL if bigraph_connected else None
    out["m31"] = mutual_info(d, (X, Y, Z), (M31,)) <= ZERO_TOL if condition1 else None
    out["m23"] = mutual_info(d, (X, Y, Z), (M23,)) <= ZERO_TOL if condition2 else None
    if product_inputs:
        out["x_m23"] = mutual_info(d, (X,), (M23,)) <= ZERO_TOL
        out["y_m31"] = mutual_info(d, (Y,), (M31,)) <= ZERO_TOL
    else:
        out["x_m23"] = out["y_m31"] = None
    return out


# ---------------------------------------------------------------------------
# Expected communication under per-round prefix-free codes


def huffman_lengths(weights):
    """Binary Huffman codeword lengths for {label: probability}.

    Merges the two lowest-probability nodes, ties broken lexicographically
    on the smallest label string in each node. A single symbol needs no bits.
    """
    items = sorted(weights.items(), key=lambda kv: str(kv[0]))
    if len(items) == 1:
        return {items[0][0]: 0}
    heap = [(p, str(lab), [lab]) for lab, p in items]
    heapq.heapify(heap)
    depth = {lab: 0 for lab, _ in items}
    while len(heap) > 1:
        p1, k1, l1 = heapq.heappop(heap)
        p2, k2, l2 = heapq.heappop(heap)
        for lab in l1 + l2:
            depth[lab] += 1
        heapq.heappush(heap, (p1 + p2, min(k1, k2), l1 + l2))
    return depth


def expected_lengths(spec, p_xy, execution=None):
    """Expected bits per link when each round's message is Huffman-coded
    conditioned on the link's transcript so far."""
    e = execution or run_exact(spec, p_xy)
    out = {}
    for link in LINKS:
        marg = e.joint.marginal({LINK_AXIS[link]})
        support = [(key[0], p) for key, p in marg.support()]
        n_rounds = len(spec.link_rounds(link))
        total = 0.0
        for t in range(n_rounds):
            by_prefix = {}
            for sym, p in support:
                by_prefix.setdefault(sym[:t], {}).setdefault(sym[t], 0.0)
                by_prefix[sym[:t]][sym[t]] += p
            for prefix, cond in by_prefix.items():
                w = sum(cond.values())
                lens = huffman_lengths({m: q / w for m, q in cond.items()})
                total += sum(cond[m] * lens[m] for m in cond)
        out[link] = total
    return out


# ---------------------------------------------------------------------------
# Built-in protocols


@dataclass(frozen=True)
class Builtin:
    name: str
    spec: ProtocolSpec
    channel: Channel
    default_input: JointDist
    params: dict = None  # every builder parameter, as builtin() bound them


def _product(*factors):
    """itertools.product of the factors as a tuple, or a CapacityError before
    any is built when it would hold over PRODUCT_CAP tuples x factors."""
    size = math.prod(map(len, factors)) * len(factors)
    if size > PRODUCT_CAP:
        raise CapacityError("a product of %d elements exceeds cap %d" % (size, PRODUCT_CAP))
    return tuple(itertools.product(*factors))


def _tuples(base, n):
    return _product(*(base,) * n)


def _trivial(name):
    return Alphabet(name, ("-",))


def _xor(a, b):
    return tuple(u ^ v for u, v in zip(a, b))


def _add(a, b, order):
    return tuple((u + v) % order for u, v in zip(a, b))


def _sub(a, b, order):
    return tuple((u - v) % order for u, v in zip(a, b))


def _bernoulli_power(axis, p1):
    probs = np.array([
        float(np.prod([p1 if b else 1.0 - p1 for b in sym])) for sym in axis.symbols
    ])
    return JointDist((axis,), probs)


def group_add(order=2, n=1):
    """One-time-pad addition in the cyclic group of the given order: Charlie
    keys Bob, the masked sum travels Bob -> Alice -> Charlie."""
    if order < 2:
        raise ValueError("group order must be >= 2")
    syms = _tuples(range(order), n)
    x_axis, y_axis, z_axis = (Alphabet(nm, syms) for nm in ("X", "Y", "Z"))
    ch = Channel.from_function(x_axis, y_axis, z_axis, lambda x, y: _add(x, y, order))
    r3 = Alphabet("R3", syms)

    rounds = (
        Round(3, 2, Alphabet("K", syms), lambda v: v.rand),
        Round(2, 1, Alphabet("YK", syms), lambda v: _add(v.inp, v.m23[0], order)),
        Round(1, 3, Alphabet("XYK", syms), lambda v: _add(v.inp, v.m12[0], order)),
    )
    spec = ProtocolSpec(
        x_axis, y_axis, z_axis,
        (_trivial("R1"), _trivial("R2"), r3),
        rounds,
        lambda v: _sub(v.m31[0], v.rand, order),
    )
    return Builtin("group-add", spec, ch, JointDist.uniform((x_axis, y_axis)))


def sum_protocol(n=1):
    """Arithmetic sum of two bits into {0,1,2}, masked with a uniform
    ternary pad from Charlie, travelling Charlie -> Alice -> Bob -> Charlie."""
    bits = _tuples((0, 1), n)
    tern = _tuples((0, 1, 2), n)
    x_axis, y_axis = Alphabet("X", bits), Alphabet("Y", bits)
    z_axis = Alphabet("Z", tern)
    ch = Channel.from_function(
        x_axis, y_axis, z_axis, lambda x, y: tuple(a + b for a, b in zip(x, y))
    )
    r3 = Alphabet("R3", tern)

    rounds = (
        Round(3, 1, Alphabet("K", tern), lambda v: v.rand),
        Round(1, 2, Alphabet("KX", tern), lambda v: _add(v.m31[0], v.inp, 3)),
        Round(2, 3, Alphabet("KXY", tern), lambda v: _add(v.m12[0], v.inp, 3)),
    )
    spec = ProtocolSpec(
        x_axis, y_axis, z_axis,
        (_trivial("R1"), _trivial("R2"), r3),
        rounds,
        lambda v: _sub(v.m23[0], v.rand, 3),
    )
    return Builtin("sum", spec, ch, JointDist.uniform((x_axis, y_axis)))


def erasure(p=0.5, q=0.5, n=1):
    """Controlled erasure: Alice's bit decides whether Charlie sees Bob's bit
    or an erasure (output symbol 2). Bob one-time-pads his input to Charlie
    and hands the key to Alice; Alice reveals her input and the key bits at
    the non-erased positions. p and q are the probabilities of a 1 in each
    of Alice's and Bob's input bits."""
    for name, v in (("p", p), ("q", q)):
        if not 0 <= v <= 1:
            raise ValueError("erasure parameter %s must be in [0, 1], got %r" % (name, v))
    bits = _tuples((0, 1), n)
    x_axis, y_axis = Alphabet("X", bits), Alphabet("Y", bits)
    z_axis = Alphabet("Z", _tuples((0, 1, 2), n))
    ch = Channel.from_function(
        x_axis, y_axis, z_axis,
        lambda x, y: tuple(y[i] if x[i] else 2 for i in range(n)),
    )
    r2 = Alphabet("R2", bits)

    reveal_syms = tuple((x, ks) for x in bits for ks in _tuples((0, 1), sum(x)))

    def reveal(v):
        k = v.m12[0]
        return (v.inp, tuple(k[i] for i in range(n) if v.inp[i]))

    def out(v):
        masked = v.m23[0]
        x, keys = v.m31[0]
        z, pos = [], 0
        for i in range(n):
            if x[i]:
                z.append(masked[i] ^ keys[pos])
                pos += 1
            else:
                z.append(2)
        return tuple(z)

    rounds = (
        Round(2, 1, Alphabet("K", bits), lambda v: v.rand),
        Round(2, 3, Alphabet("YK", bits), lambda v: _xor(v.inp, v.rand)),
        Round(1, 3, Alphabet("XKsel", reveal_syms), reveal),
    )
    spec = ProtocolSpec(
        x_axis, y_axis, z_axis,
        (_trivial("R1"), r2, _trivial("R3")),
        rounds,
        out,
    )
    p_xy = JointDist(
        (x_axis, y_axis),
        np.outer(_bernoulli_power(x_axis, p).probs, _bernoulli_power(y_axis, q).probs),
    )
    return Builtin("erasure", spec, ch, p_xy)


def remote_ot(m=2, n=1):
    """Remote one-out-of-m OT on n-bit strings: Alice pads all strings and a
    rotation offset to Bob, sends the rotated masked strings to Charlie; Bob
    forwards the rotated index and the one key Charlie needs."""
    if m < 1:
        raise ValueError("remote-ot m (the number of strings) must be >= 1, got %r" % m)
    if n < 1:
        raise ValueError("remote-ot n (the string length in bits) must be >= 1, got %r" % n)
    strings = _tuples((0, 1), n)
    x_syms = _tuples(strings, m)
    x_axis = Alphabet("X", x_syms)
    y_axis = Alphabet("Y", tuple(range(m)))
    z_axis = Alphabet("Z", strings)
    ch = Channel.from_function(x_axis, y_axis, z_axis, lambda x, y: x[y])
    r1_syms = _product(x_syms, range(m))
    r1 = Alphabet("R1", r1_syms)

    def masked(v):
        k, pi = v.rand
        return tuple(_xor(v.inp[(pi + i) % m], k[(pi + i) % m]) for i in range(m))

    def forward(v):
        k, pi = v.m12[0]
        return ((v.inp - pi) % m, k[v.inp])

    rounds = (
        Round(1, 2, Alphabet("KP", r1_syms), lambda v: v.rand),
        Round(1, 3, Alphabet("MS", x_syms), masked),
        Round(2, 3, Alphabet("CK", _product(range(m), strings)), forward),
    )
    spec = ProtocolSpec(
        x_axis, y_axis, z_axis,
        (r1, _trivial("R2"), _trivial("R3")),
        rounds,
        lambda v: _xor(v.m31[0][v.m23[0][0]], v.m23[0][1]),
    )
    return Builtin("remote-ot", spec, ch, JointDist.uniform((x_axis, y_axis)))


def and_protocol(n=1):
    """AND via a random labelling: Alice deals a random permutation of three
    labels to Bob; each sends Charlie one label (the shared one iff their bit
    is 1), and Charlie outputs whether the labels match."""
    bits = _tuples((0, 1), n)
    x_axis, y_axis = Alphabet("X", bits), Alphabet("Y", bits)
    z_axis = Alphabet("Z", bits)
    ch = Channel.from_function(
        x_axis, y_axis, z_axis, lambda x, y: tuple(a & b for a, b in zip(x, y))
    )
    perms = tuple(itertools.permutations((0, 1, 2)))
    r1 = Alphabet("R1", _tuples(perms, n))
    tern = _tuples((0, 1, 2), n)

    rounds = (
        Round(1, 2, Alphabet("Perm", _tuples(perms, n)), lambda v: v.rand),
        Round(
            1, 3, Alphabet("LA", tern),
            lambda v: tuple(s[0] if b else s[1] for s, b in zip(v.rand, v.inp)),
        ),
        Round(
            2, 3, Alphabet("LB", tern),
            lambda v: tuple(s[0] if b else s[2] for s, b in zip(v.m12[0], v.inp)),
        ),
    )
    spec = ProtocolSpec(
        x_axis, y_axis, z_axis,
        (r1, _trivial("R2"), _trivial("R3")),
        rounds,
        lambda v: tuple(int(a == b) for a, b in zip(v.m31[0], v.m23[0])),
    )
    return Builtin("and", spec, ch, JointDist.uniform((x_axis, y_axis)))


BUILTINS = {
    "and": and_protocol,
    "group-add": group_add,
    "sum": sum_protocol,
    "erasure": erasure,
    "remote-ot": remote_ot,
}


def builtin(name, **params):
    """Construct a named built-in from the parameters its builder's signature
    takes, at their defaults unless given; any other is a ValueError. Each
    builder builds its channel right after X, Y and Z, so an oversize kernel
    is refused before any round alphabet is built."""
    try:
        fn = BUILTINS[name]
    except KeyError:
        raise ValueError("unknown builtin %r; have %s" % (name, sorted(BUILTINS)))
    try:
        bound = inspect.signature(fn).bind(**params)
    except TypeError as exc:
        raise ValueError("builtin %r: %s" % (name, exc))
    bound.apply_defaults()
    params = bound.arguments
    # remote-ot's n is a string length, which remote_ot checks itself
    if name != "remote-ot" and params["n"] < 1:
        raise ValueError("block length n must be at least 1, got %r" % params["n"])
    return replace(fn(**params), params=params)


# ---------------------------------------------------------------------------
# JSON form: either {"builtin": name, "params": {...}} or explicit lookup
# tables listing (view -> symbol) for every reachable view.


def _view_json(view):
    row = {"rand": sym_str(view.rand)}
    if view.inp is not None:
        row["input"] = sym_str(view.inp)
    for field in LINKS:
        msgs = getattr(view, field)
        if msgs is not None:
            row[field] = [sym_str(s) for s in msgs]
    return row


def _view_from_json(row):
    """The View a JSON row describes, with string symbols: exactly the view a
    loaded protocol, whose symbols are all strings, meets at run time."""

    def msgs(field):
        return tuple(str(s) for s in row[field]) if field in row else None

    inp = row.get("input")
    return View(
        None if inp is None else str(inp), str(row["rand"]),
        *(msgs(link) for link in LINKS),
    )


def spec_to_json(spec):
    """Serialize by exhausting every view reachable from any input pair: one
    {view: symbol} table per round, and one for the output."""
    xs, ys = np.indices((len(spec.x_axis), len(spec.y_axis))).reshape(2, -1)
    tables, _, _ = _walk(spec, xs, ys, np.ones(len(xs)))

    def table_json(table, alphabet, key):
        return [{"view": _view_json(v), key: sym_str(alphabet.symbols[i])}
                for v, i in table.values()]

    return {
        "x_axis": alphabet_to_json(spec.x_axis),
        "y_axis": alphabet_to_json(spec.y_axis),
        "z_axis": alphabet_to_json(spec.z_axis),
        "randomness": [alphabet_to_json(a) for a in spec.randomness],
        "rounds": [
            {
                "sender": rnd.sender,
                "receiver": rnd.receiver,
                "alphabet": alphabet_to_json(rnd.alphabet),
                "map": table_json(table, rnd.alphabet, "send"),
            }
            for rnd, table in zip(spec.rounds, tables)
        ],
        "output_map": table_json(tables[-1], spec.z_axis, "z"),
    }


def _lookup(rows, key):
    """A message map that looks its View up in a table of JSON rows."""
    table = unique_dict(((_view_from_json(r["view"]), str(r[key])) for r in rows), "map view")

    def fn(view):
        try:
            return table[view]
        except KeyError:
            raise ProtocolSpecError("no table entry for view %r" % (view,))

    return fn


def _party(row, key):
    """A round's sender or receiver, which must be the JSON integer 1, 2 or 3."""
    party = row[key]
    if type(party) is not int or party not in (1, 2, 3):
        raise ProtocolSpecError("%s %r is not a party: parties are 1, 2, 3" % (key, party))
    return party


def spec_from_json(obj):
    """Rebuild a protocol from JSON; symbols become strings."""
    if "builtin" in obj:
        return builtin(obj["builtin"], **obj.get("params", {})).spec
    rounds = tuple(
        Round(
            _party(row, "sender"),
            _party(row, "receiver"),
            alphabet_from_json(row["alphabet"]),
            _lookup(row["map"], "send"),
        )
        for row in obj["rounds"]
    )
    return ProtocolSpec(
        alphabet_from_json(obj["x_axis"]),
        alphabet_from_json(obj["y_axis"]),
        alphabet_from_json(obj["z_axis"]),
        tuple(alphabet_from_json(a) for a in obj["randomness"]),
        rounds,
        _lookup(obj["output_map"], "z"),
    )
