"""The CLI's exit-code contract, driven by generated argv and matrix JSON.

Whatever the input (malformed, huge, deeply nested or negative), main()
returns 0, 1, 2 or 3 and never raises; stderr never carries a traceback;
and exit 1 comes only with a summary line that counts a failed report.
Every example also has to finish inside the deadline below.
"""

import contextlib
import io
import json
import re
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from ringmat.cli import main
from ringmat.rings import MAX_INT_DIGITS

VALID_RINGS = ["int", "rat", "mod:8", "mod:1", "mod:2305843009213693951",
               "mod:" + "7" * 1300, "poly:int", "poly:rat", "poly:mod:6",
               "poly:poly:int",
               '{"kind": "mod", "m": 6}',
               '{"kind": "poly", "base": {"kind": "rat"}}']
BAD_RINGS = ["mod:0", "mod:-3", "mod:x", "poly:" * 4 + "int",
             "poly:" * 65 + "int", "galois:9", "",
             "mod:" + "1" * (MAX_INT_DIGITS + 1), '{"kind": "mod", "m": -1}',
             '{"kind": "poly"}', '{"kind": ', "[1, 2]"]
SUITES = ["all", "core", "adjugate", "blocks", "nilpotency", "traces",
          "derivations", "almkvist", "frobenius_trace", "det_product,jacobi",
          "bogus", ""]

small = st.integers(-9, 9)
wide = st.integers(-2**70, 2**70)
number = st.one_of(
    small, small.map(str), wide.map(str),
    st.integers(4290, 4310).map(lambda k: "-" + "9" * k),  # around the interpreter's limit
)
literal = st.one_of(
    number,
    st.just("1" * (MAX_INT_DIGITS + 1)),                   # past the cap
    st.text(max_size=6),                                   # malformed
)
junk = st.one_of(literal, st.booleans(), st.none(),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.fixed_dictionaries({"num": literal, "den": literal}),
                 st.lists(literal, max_size=3))
ring_text = st.one_of(st.sampled_from(VALID_RINGS), st.sampled_from(VALID_RINGS),
                      st.sampled_from(BAD_RINGS))


def _element(ring: str):
    """Well-formed JSON elements of the named ring."""
    if "poly" in ring:
        inner = st.lists(number, max_size=3)
        return st.lists(inner, max_size=2) if "poly:poly" in ring else inner
    if ring == "rat":
        return st.one_of(number, st.fixed_dictionaries(
            {"num": number, "den": st.integers(1, 12).map(str)}))
    return number


@st.composite
def matrix_text(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:                                          # deep nesting
        depth = draw(st.integers(1, 3000))
        return '{"ring": "int", "entries": ' + "[" * depth + "]" * depth + "}"
    if kind == 1:
        return draw(st.sampled_from([
            "{", "{}", "[]", "null", '{"entries": 5}',
            '{"ring": "int", "entries": [[1], []]}',
            '{"ring": "int", "rows": -1, "entries": []}',
            "/no/such/file.json"]))
    if kind <= 3:                                          # anything at all
        n = draw(st.integers(0, 3))
        rows = draw(st.lists(st.lists(junk, min_size=n, max_size=n + 1),
                             max_size=3))
        return json.dumps({"ring": draw(ring_text), "entries": rows})
    ring = draw(st.sampled_from(VALID_RINGS))              # well formed
    n = draw(st.integers(0, 3))
    cols = draw(st.sampled_from([n, n, n, n + 1]))
    element = _element(ring)
    rows = draw(st.lists(st.lists(element, min_size=cols, max_size=cols),
                         min_size=n, max_size=n))
    return json.dumps({"ring": json.loads(ring) if ring.startswith("{")
                       else ring, "entries": rows})


option = st.one_of(small, st.sampled_from([300, 1001, 10**25, -(2**70)]))


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["charpoly", "adjugate", "verify", "fuzz"]))
    if command == "fuzz":
        out = ["fuzz", "--ring", draw(ring_text),
               "--suite", draw(st.sampled_from(SUITES)),
               "--count", str(draw(st.integers(-1, 2))),
               "--size", str(draw(st.integers(-1, 3)))]
    else:
        out = [command]
        if command == "verify":
            out.append(draw(st.sampled_from(SUITES)))
        out += ["--matrix", draw(matrix_text())]
        if draw(st.integers(0, 3)) == 0:
            out += ["--ring", draw(ring_text)]
        if command == "charpoly" and draw(st.booleans()):
            out.append("--newton")
    if command in ("verify", "fuzz"):
        out += ["--seed", str(draw(st.one_of(small, wide)))]
        for flag in ("--k", "--imax", "--p"):
            if draw(st.integers(0, 3)) == 0:
                out += [flag, str(draw(option))]
    return out


def _run(args):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(args)
        except SystemExit as exc:                    # argparse usage errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=120, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(argv())
def test_exit_codes_hold_for_any_input(args):
    code, out, err = _run(args)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        failed = re.search(r"failed=(\d+)", out)
        assert failed and int(failed.group(1)) > 0
    if code in (2, 3):
        assert err.startswith(("error:", "usage:"))
