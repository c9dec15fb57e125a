"""Every function of scbound is reached by a command, or it is listed here.

A fixed set of in-process `scbound` commands, and the body of the CLI
module, which every command imports and which builds the parser they all
parse with, run under `sys.setprofile`, which records each code object of
the package that is entered. Every `def`
in `src/scbound` must be among them or on ALLOWLIST with the reason it
stays. Dunders and the functions nested in an allowlisted one need no
entry. An allowlist entry that is no longer defined, or that the commands
now enter, fails too, so the list cannot go stale. No module rebinds its
own state through a `global` statement or memoizes a module-level function
with `functools.lru_cache` or `functools.cache` either: a cache that outlives a
call belongs to the object or the caller that owns it. No module imports
`threading`.
"""

import ast
import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from scbound import cli
from scbound.dists import dumps
from scbound.protocols import builtin, spec_to_json

SRC = pathlib.Path(cli.__file__).parent

_SPANS = "wrapped by name in perfbench/spans.py, whose traced run perfbench/selftest.py checks"
_REFERENCE = "a reference the tests compare the cone kernel against"
ALLOWLIST = {
    "bounds.improved_bounds": _SPANS,
    "bounds.switched_bounds": _SPANS,
    "bounds.conditional_bounds": _SPANS,
    "bounds._family": "the family reader behind improved/switched/conditional_bounds",
    "normal_form.is_channel_normal_form": _SPANS,
    "normal_form.is_pair_normal_form": _SPANS,
    "normal_form._keeps_symbols": "the symbol check of the three is_*_normal_form functions",
    "normal_form.sampling_normal_form": _SPANS,
    "normal_form.is_sampling_normal_form": _SPANS,
    "protocols.verify_transcript_independence": _SPANS,
    "common_info.residual_info": _SPANS + "; " + _REFERENCE,
    "dists.JointDist.marginal": _SPANS + "; execution joints take SupportJoint.marginal",
    "bounds.term_value": "re-evaluates a reported term; scripts/and_landscape.py calls it",
    "protocols.spec_to_json": "writes the --spec files simulate reads; perfbench inputs use it",
    "protocols._view_json": "the view rows of spec_to_json",
    "dists.channel_to_json": "writes the --channel files analyze reads; perfbench inputs use it",
}

# a channel that reduces to AND by one merge of each kind: x=1 and x=2 have
# equal rows, and outputs "0" and "0'" are proportional
_MERGES = {
    "axes": [{"name": "X", "symbols": ["0", "1", "2"]}, {"name": "Y", "symbols": ["0", "1"]},
             {"name": "Z", "symbols": ["0", "0'", "1"]}],
    "kernel": [{"t": [x, y], "row": {"1": 1.0} if x != "0" and y == "1"
                else {"0": 0.5, "0'": 0.5}}
               for x in ("0", "1", "2") for y in ("0", "1")],
}
_DIST = {
    "axes": _MERGES["axes"][:2],
    "pmf": [{"t": [x, y], "p": 0.25 if x == "0" else 0.125}
            for x in ("0", "1", "2") for y in ("0", "1")],
}


def _commands(tmp):
    channel, dist, spec = tmp / "channel.json", tmp / "dist.json", tmp / "spec.json"
    channel.write_text(json.dumps(_MERGES))
    dist.write_text(json.dumps(_DIST))
    spec.write_text(dumps(spec_to_json(builtin("and").spec)))
    return [
        ["reproduce", "--format", "csv"],
        ["analyze", "--builtin", "remote-ot", "--m", "3"],  # the Dirichlet scan
        ["analyze", "--builtin", "erasure", "--p", "1"],  # a pair-form drop
        ["analyze", "--channel", str(channel), "--dist", str(dist), "--format", "csv"],
        ["simulate", "--spec", str(spec)],
        ["simulate", "--builtin", "sum", "--n", "2", "--format", "csv"],
    ]


def _definitions():
    """{(file name, first line): qualified name} of every def in scbound.
    The first line is the first decorator's, as in the code object."""
    defs = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(path.name, line)] = prefix + child.name
                visit(path, child, prefix + child.name + ".")
            else:
                visit(path, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text()), path.stem + ".")
    return defs


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(every def's qualified name, the names the commands entered)."""
    commands = _commands(tmp_path_factory.mktemp("reach"))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            # the CLI module's body, run again into a module of its own
            spec = importlib.util.find_spec("scbound.cli")
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
            codes = [cli.main(argv) for argv in commands]
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(commands)
    defs = _definitions()
    keys = {(pathlib.Path(f).name, line) for f, line in seen if pathlib.Path(f).parent == SRC}
    return set(defs.values()), {defs[k] for k in keys & defs.keys()}


def _excused(name):
    """A dunder, an allowlisted name or a function nested in one."""
    last = name.rsplit(".", 1)[-1]
    if last.startswith("__") and last.endswith("__"):
        return True
    parts = name.split(".")
    return any(".".join(parts[:i]) in ALLOWLIST for i in range(2, len(parts) + 1))


def test_every_function_is_reached_or_allowlisted(reach):
    defined, entered = reach
    unreached = sorted(n for n in defined - entered if not _excused(n))
    assert not unreached, "no command reaches: %s" % ", ".join(unreached)


def test_allowlist_names_defined_functions(reach):
    defined, _ = reach
    assert all(reason for reason in ALLOWLIST.values())
    gone = sorted(set(ALLOWLIST) - defined)
    assert not gone, "allowlisted but not defined: %s" % ", ".join(gone)


def test_allowlist_names_unreached_functions(reach):
    _, entered = reach
    reached = sorted(set(ALLOWLIST) & entered)
    assert not reached, "allowlisted but reached by a command: %s" % ", ".join(reached)


def test_allowlist_only_shrinks():
    # an entry goes when its function goes or a command reaches it; the
    # bound is the list's size, so no new unreached function gets in
    assert len(ALLOWLIST) <= 16


def _memoizer(decorator):
    """Whether a decorator is functools.lru_cache or functools.cache, called
    or not, by its module name or imported bare."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in ("lru_cache", "cache")


def test_no_module_has_a_global_statement():
    # no global statement, and no module-level function memoized for the
    # life of the process
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s:%d global" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Global)]
        found += ["%s:%d %s" % (path.name, node.lineno, node.name) for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(map(_memoizer, node.decorator_list))]
    assert not found, "module state: %s" % ", ".join(found)


def test_no_module_imports_threading():
    # the nested sweep scores its slices on the calling thread, and no
    # module starts a thread
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += ["%s:%d %s" % (path.name, node.lineno, n) for n in names
                      if n.split(".")[0] == "threading"]
    assert not found, "threading imported: %s" % ", ".join(found)


def test_module_state_guard_finds_memoizers():
    tree = ast.parse("@functools.lru_cache(maxsize=64)\ndef f(): pass\n"
                     "@cache\ndef g(): pass\n@functools.cached_property\ndef h(): pass\n")
    assert [any(map(_memoizer, f.decorator_list)) for f in tree.body] == [True, True, False]
