#!/usr/bin/env python3
"""Print every float of the reports of scripts/report_digests.py's commands.

One line per float outside the `manifest` block: the command, the float's
JSON path and its repr, separated by tabs. Where two checkouts' digests
differ, `diff` of this script's outputs names each value that moved:

    python scripts/report_values.py > a.txt   # in each checkout
    diff a.txt b.txt

A path joins the keys and list indices from the report's root with "/".
A report that is not JSON (CSV, or nothing on an error exit) prints no
line. The commands run in this process, as report_digests.py runs them.

Usage: python scripts/report_values.py
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "report_digests", os.path.join(HERE, "report_digests.py"))
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)  # puts src/ on sys.path

from scbound.cli import main as scbound_main  # noqa: E402


def floats(obj, path=""):
    """(path, value) of every float in a JSON value, in document order."""
    if isinstance(obj, float):
        yield path, obj
    elif isinstance(obj, dict):
        for key, val in obj.items():
            yield from floats(val, "%s/%s" % (path, key))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from floats(val, "%s/%d" % (path, i))


def report_floats(argv):
    """(path, value) of every float of one in-process scbound command's
    report, the manifest left out; none for a report that is not JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        scbound_main(argv)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return []
    if not isinstance(report, dict):
        return []
    report.pop("manifest", None)
    return list(floats(report))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for argv in report_digests.commands(tmp):
            shown = " ".join(argv).replace(tmp + os.sep, "")
            for path, value in report_floats(argv):
                print("%s\t%s\t%r" % (shown, path, value), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
