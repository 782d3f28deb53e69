"""Random argv over the documented flag grammar: every run ends in a
documented exit code, with no traceback, JSON on stdout where JSON was
asked for, and the same bytes when it is run again.

Runs go in-process through ``cli.main``, so a traceback is an exception
escaping it.  ``--out`` and ``--timing`` are left out (files and timings are
checked in test_cli.py).  Each budget flag goes only to the commands that
spend it: enumerate and verify always get a small ``--node-budget``
(without it a grid such as ``--max-alpha 4`` walks CSSC 8^3 for minutes),
and identity may get a ``--subset-budget``.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsign import cli

SHORT_NAMES = ("tc", "stc", "stc-odd", "cstc", "tssc", "sc", "sc-odd", "cssc")
LONG_NAMES = ("tcpp", "stcpp", "stcpp-odd", "cstcpp", "tsscpp", "scpp", "scpp-odd", "csscpp")
CLASS_NAMES = (*SHORT_NAMES, *LONG_NAMES, "nope")
IDENTITIES = (
    "detl", "2ji", "m1", "mrr", "pfaff-saalschutz", "minor-summation", "recurrence-s4",
)
IDENTITY_FLAGS = ("--n", "--mu", "--alpha", "--beta", "--gamma", "--b")
BOX_FLAGS = ("--a", "--b", "--c", "--alpha")
# the box flags enumerate reads per class; an unknown class gets any of them
ENUMERATE_FLAGS = {
    "tc": ("--a", "--b"), "stc": ("--a", "--b"), "sc": ("--a", "--b", "--c"),
    "cstc": ("--alpha",), "tssc": ("--alpha",), "cssc": ("--alpha",),
}
PARAMETER = st.integers(-2, 5)
GRID_MAX = st.integers(-1, 3)
BUDGET = st.integers(-1, 20_000)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(("enumerate", "verify", "identity")))
    argv = [command]
    switches = ["--strict"]
    if command == "enumerate":
        name = draw(st.sampled_from(CLASS_NAMES))
        argv += ["--class", name]
        # the class's own box flags; a stray box flag now and then is a
        # usage error
        reads = ENUMERATE_FLAGS.get(cli._short_name(name), BOX_FLAGS)
        valued = {flag: PARAMETER for flag in reads}
        if draw(st.integers(0, 7)) == 0:
            valued[draw(st.sampled_from(BOX_FLAGS))] = PARAMETER
        valued["--method"] = st.sampled_from(("oracle", "lgv", "formula", "all"))
    elif command == "verify":
        valued = {flag: GRID_MAX for flag in ("--max-a", "--max-b", "--max-c", "--max-alpha")}
        valued["--class"] = st.sampled_from((*CLASS_NAMES, "all"))
        switches.append("--smoke")
    else:
        name = draw(st.sampled_from(IDENTITIES))
        argv += ["--name", name]
        # the identity's own parameter flags, or --fuzz, which reads none of
        # them; a stray flag now and then is a usage error
        valued = {"--seed": PARAMETER}
        if draw(st.booleans()):
            valued["--fuzz"] = PARAMETER
        else:
            valued.update({f"--{flag}": PARAMETER for flag in cli._IDENTITIES[name].flags})
        if draw(st.integers(0, 7)) == 0:
            valued[draw(st.sampled_from(IDENTITY_FLAGS))] = PARAMETER
        valued["--subset-budget"] = BUDGET
    valued["--format"] = st.sampled_from(("json", "tsv", "human"))
    for flag, values in valued.items():
        value = draw(st.none() | values)
        if value is not None:
            argv += [flag, str(value)]
    argv += [flag for flag in switches if draw(st.booleans())]
    if command != "identity":
        argv += ["--node-budget", str(draw(BUDGET))]
    return argv


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_random_argv_ends_in_a_documented_way(argv):
    with pytest.MonkeyPatch.context() as env:
        env.delenv("PPSIGN_NODE_BUDGET", raising=False)
        env.delenv("PPSIGN_SUBSET_BUDGET", raising=False)
        code, out, err = run(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, argv
        json_asked = "--format" not in argv or argv[argv.index("--format") + 1] == "json"
        if code in (0, 1) and json_asked:
            json.loads(out)
        assert run(argv) == (code, out, err), argv
