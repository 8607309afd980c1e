"""End-to-end CLI behavior through main(), plus a few subprocess runs."""

import json
import subprocess
import sys

import pytest

from ringmat import cli

A_JSON = json.dumps({"ring": {"kind": "int"}, "entries": [[1, 2], [3, 4]]})


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_reference(capsys):
    code, out, _ = run_main(["charpoly", "--matrix", A_JSON], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == ["1", "-5", "-2"]
    assert payload["chi"] == {"coeffs": ["-2", "-5", "1"]}
    assert payload["method"] == "direct"
    assert payload["D"][1]["entries"] == [["1", "0"], ["0", "1"]]


def test_charpoly_zero_matrix(capsys):
    m = json.dumps({"ring": "int", "entries": [[0] * 3] * 3})
    code, out, _ = run_main(["charpoly", "--matrix", m], capsys)
    assert code == 0
    assert json.loads(out)["chi"] == {"coeffs": ["0", "0", "0", "1"]}


def test_charpoly_mod8_canonical(capsys):
    m = json.dumps({"ring": {"kind": "mod", "m": 8}, "entries": [["2"]]})
    code, out, _ = run_main(["charpoly", "--matrix", m], capsys)
    assert code == 0
    assert json.loads(out)["chi"] == {"coeffs": ["6", "1"]}


def test_charpoly_newton_flag_needs_q_algebra(capsys):
    # --newton on Z silently falls back to the division-free route
    code, out, _ = run_main(["charpoly", "--matrix", A_JSON, "--newton"],
                            capsys)
    assert code == 0 and json.loads(out)["method"] == "direct"
    mq = json.dumps({"ring": "rat", "entries": [[1, 2], [3, 4]]})
    code, out, _ = run_main(["charpoly", "--matrix", mq, "--newton"], capsys)
    assert code == 0 and json.loads(out)["method"] == "newton"


def test_charpoly_output_reparses(capsys):
    from helpers import polynomial_from_json
    from ringmat.serialize import matrix_from_json, parse_ring
    code, out, _ = run_main(["charpoly", "--matrix", A_JSON], capsys)
    payload = json.loads(out)
    ring = parse_ring(payload["ring"])
    chi = polynomial_from_json(payload["chi"], ring)
    assert chi.coeffs == (-2, -5, 1)
    assert matrix_from_json(payload["D"][0]).entry(1, 1) == -4


def test_adjugate_reference(capsys):
    code, out, _ = run_main(["adjugate", "--matrix", A_JSON], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == [["4", "-2"], ["-3", "1"]]
    code, out, _ = run_main(["adjugate", "--matrix", A_JSON,
                             "--via-charpoly"], capsys)
    assert json.loads(out)["entries"] == [["4", "-2"], ["-3", "1"]]


def test_adjugate_1x1(capsys):
    m = json.dumps({"ring": "int", "entries": [[5]]})
    code, out, _ = run_main(["adjugate", "--matrix", m], capsys)
    assert json.loads(out)["entries"] == [["1"]]


def test_ring_override_flag(capsys):
    m = json.dumps({"entries": [[10]]})
    code, out, _ = run_main(["adjugate", "--matrix", m, "--ring", "mod:8"],
                            capsys)
    assert code == 0
    assert json.loads(out)["ring"] == {"kind": "mod", "m": 8}


def test_matrix_from_file_and_out(tmp_path, capsys):
    src = tmp_path / "a.json"
    src.write_text(A_JSON)
    dst = tmp_path / "out.json"
    code, out, _ = run_main(["adjugate", "--matrix", str(src),
                             "--out", str(dst)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(dst.read_text())["entries"] == [["4", "-2"],
                                                      ["-3", "1"]]


def test_verify_all_reference(capsys):
    code, out, _ = run_main(["verify", "all", "--matrix", A_JSON], capsys)
    assert code == 0
    body, summary = out.rsplit("\n", 2)[0], out.strip().splitlines()[-1]
    reports = json.loads(body)
    passed = [r for r in reports if r["passed"] and r["hypothesis_met"]]
    assert len(passed) >= 12
    assert summary.startswith("total=") and "failed=0" in summary


def test_verify_gate_exits_zero(capsys):
    code, out, _ = run_main(["verify", "frobenius_trace", "--matrix",
                             A_JSON, "--p", "2"], capsys)
    assert code == 0
    assert "hypothesis_not_met=1" in out


def test_verify_suite_params(capsys):
    m = json.dumps({"ring": "mod:8", "entries": [["2"]]})
    code, out, _ = run_main(["verify", "almkvist", "--matrix", m, "--k", "2"],
                            capsys)
    assert code == 0
    assert json.loads(out.rsplit("\n", 2)[0])[0]["passed"] is True


def test_fuzz_runs_and_summarizes(capsys):
    code, out, _ = run_main(["fuzz", "--ring", "mod:6", "--suite", "core",
                             "--count", "5", "--size", "3", "--seed", "9"],
                            capsys)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("total=90 ")


def test_fuzz_count_zero(capsys):
    code, out, _ = run_main(["fuzz", "--ring", "int", "--count", "0",
                             "--size", "2"], capsys)
    assert code == 0
    assert json.loads(out.rsplit("\n", 2)[0]) == []


def test_fuzz_writes_report_file(tmp_path, capsys):
    dst = tmp_path / "report.json"
    code, out, _ = run_main(["fuzz", "--ring", "int", "--suite", "laplace",
                             "--count", "3", "--size", "3",
                             "--out", str(dst)], capsys)
    assert code == 0
    assert out.startswith("total=3 ")
    assert len(json.loads(dst.read_text())) == 3


def test_exit_code_2_parse_errors(capsys):
    cases = [
        ["charpoly", "--matrix", "{not json"],
        ["charpoly", "--matrix", json.dumps({"ring": "mod:0",
                                             "entries": [[1]]})],
        ["charpoly", "--matrix", "/no/such/file.json"],
        ["verify", "bogus_suite", "--matrix", A_JSON],
        ["fuzz", "--ring", "galois:9", "--count", "1", "--size", "2"],
        ["fuzz", "--ring", "int", "--count", "1", "--size", "9",
         "--suite", "blocks"],
    ]
    for argv in cases:
        code, _, err = run_main(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error:"), argv


NILPOTENT = json.dumps({"ring": "int", "entries": [[0, 1], [0, 0]]})


def test_negative_almkvist_order_exits_2(capsys):
    code, out, err = run_main(["verify", "almkvist", "--k", "-1",
                               "--matrix", NILPOTENT], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_imax_below_one_exits_2(capsys):
    for argv in (["verify", "nilpotency_converse", "--matrix", NILPOTENT],
                 ["fuzz", "--ring", "int", "--suite", "nilpotency_converse",
                  "--count", "2", "--size", "3"]):
        for imax in ("0", "-4"):
            code, out, err = run_main(argv + ["--imax", imax], capsys)
            assert code == 2, (argv, imax)
            assert err.startswith("error:") and "imax" in err
            assert out == ""


def test_omitted_imax_defaults_to_2n_plus_1(capsys):
    code, out, _ = run_main(["fuzz", "--ring", "int", "--suite",
                             "nilpotency_converse", "--count", "6",
                             "--size", "4"], capsys)
    assert code == 0
    reports = json.loads(out.rsplit("\n", 2)[0])
    assert len(reports) == 6
    for rep in reports:
        assert rep["inputs"]["imax"] == 2 * rep["inputs"]["matrix"]["rows"] + 1
    code, out, _ = run_main(["verify", "nilpotency_converse", "--matrix",
                             NILPOTENT, "--imax", "1"], capsys)
    assert code == 0
    assert json.loads(out.rsplit("\n", 2)[0])[0]["inputs"]["imax"] == 1


def test_adjugate_via_charpoly_flag_matches_default(capsys):
    m = json.dumps({"ring": "mod:8", "entries": [[1, 2, 3], [4, 5, 6], [7, 0, 2]]})
    _, plain, _ = run_main(["adjugate", "--matrix", m], capsys)
    _, via, _ = run_main(["adjugate", "--matrix", m, "--via-charpoly"], capsys)
    assert via == plain


def test_exit_code_3_shape_errors(capsys):
    rect = json.dumps({"ring": "int", "entries": [[1, 2, 3], [4, 5, 6]]})
    for argv in (["charpoly", "--matrix", rect],
                 ["adjugate", "--matrix", rect],
                 ["verify", "cayley_hamilton", "--matrix", rect]):
        code, _, err = run_main(argv, capsys)
        assert code == 3, argv
        assert err.startswith("error:")


def _subprocess_run(argv, env_extra=None):
    import os
    env = dict(os.environ)
    env.pop("RINGMAT_MUTATE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ringmat.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_identical_invocations_are_byte_identical():
    argv = ["fuzz", "--ring", "mod:8", "--suite", "adjugate", "--seed", "42",
            "--count", "6", "--size", "4"]
    first = _subprocess_run(argv)
    second = _subprocess_run(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_mutation_hook_drives_exit_1():
    argv = ["verify", "cayley_hamilton", "--matrix", A_JSON]
    clean = _subprocess_run(argv)
    assert clean.returncode == 0
    broken = _subprocess_run(argv, {"RINGMAT_MUTATE": "cayley_hamilton"})
    assert broken.returncode == 1
    reports = json.loads(broken.stdout.rsplit("\n", 2)[0])
    assert reports[0]["passed"] is False
    assert reports[0]["residual"] is not None
    assert "failed=1" in broken.stdout.strip().splitlines()[-1]


def _descriptor(depth: int) -> str:
    return '{"kind": "poly", "base": ' * depth + '{"kind": "int"}' + "}" * depth


def test_deep_rings_exit_2_without_traceback(capsys):
    # --count 0: the refusal must come from parsing, before any work
    for ring, why in (("poly:" * 1200 + "int", "nested more than 64"),
                      ("poly:" * 65 + "int", "nested more than 64"),
                      (_descriptor(65), "nested more than 64"),
                      (_descriptor(1200), "nested too deeply")):
        code, out, err = run_main(["fuzz", "--ring", ring, "--count", "0",
                                   "--size", "1"], capsys)
        assert code == 2, ring[:40]
        assert err.startswith("error:") and why in err
        assert "Traceback" not in err and out == ""
    # an embedded ring goes through the same cap
    deep = '{"ring": "' + "poly:" * 65 + 'int", "entries": [[1]]}'
    code, _, err = run_main(["charpoly", "--matrix", deep], capsys)
    assert code == 2 and "nested more than 64" in err


def test_ring_depth_cap_admits_64_levels(capsys):
    m = '{"entries": [[' + "[" * 64 + '"1"' + "]" * 64 + "]]}"
    for ring in ("poly:" * 64 + "int", _descriptor(64)):
        code, out, _ = run_main(["charpoly", "--ring", ring, "--matrix", m],
                                capsys)
        assert code == 0
        assert json.loads(out)["n"] == 1


def test_recursion_error_maps_to_exit_2(capsys, monkeypatch):
    def explode(args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setitem(cli._DISPATCH, "charpoly", explode)
    code, out, err = run_main(["charpoly", "--matrix", A_JSON], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_mutation_hook_ends_with_the_call(capsys, monkeypatch):
    # RINGMAT_MUTATE corrupts the one main() call that read it; on every
    # exit path the hook is back to what it was, so later library calls
    # in the same process compute honestly
    from ringmat.identities import verify_det_product
    from ringmat.matrix import Matrix
    from ringmat.report import _MUTATED, set_mutation
    from ringmat.rings import ZZ
    one = Matrix.from_rows(ZZ, [[3]])
    monkeypatch.setenv("RINGMAT_MUTATE", "det_product")
    non_square = json.dumps({"ring": "int", "entries": [[1, 2]]})
    for argv, want in ((["charpoly", "--matrix", A_JSON], 0),
                       (["charpoly", "--matrix", "{"], 2),
                       (["adjugate", "--matrix", non_square], 3)):
        assert run_main(argv, capsys)[0] == want
        assert verify_det_product(one, one).passed, argv
        assert not _MUTATED
    set_mutation(["adj_inverse"])
    try:
        assert run_main(["charpoly", "--matrix", A_JSON], capsys)[0] == 0
        assert _MUTATED == {"adj_inverse"}
    finally:
        set_mutation(())


def test_oracle_identities_refuse_large_sizes(capsys):
    # the refusal comes before any work, so --count 0 is refused too
    for suite in ("adj_trace", "adj_via_charpoly", "core"):
        code, out, err = run_main(["fuzz", "--ring", "int", "--suite", suite,
                                   "--size", "20", "--count", "0"], capsys)
        assert code == 2, suite
        assert err.startswith("error:") and "size > 8" in err
        assert out == ""
    big = json.dumps({"ring": "int", "entries": [[1] * 9] * 9})
    for suite in ("adj_trace", "adj_via_charpoly", "charpoly_derivative",
                  "eval_zero_hom", "all"):
        code, out, err = run_main(["verify", suite, "--matrix", big], capsys)
        assert code == 2, suite
        assert err.startswith("error:") and "n > 8" in err
        assert out == ""


def test_unclamped_identities_refuse_sizes_above_16(capsys):
    # det_product draws n up to --size; --size 400 used to run past 30 s
    code, out, err = run_main(["fuzz", "--ring", "int", "--suite",
                               "cayley_hamilton,det_product", "--size", "400",
                               "--count", "3", "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert "size > 16 is refused for det_product" in err
    # with several caps exceeded, the smallest is named
    for suite, cap in (("core", 8), ("blocks", 6), ("all", 6), ("traces", 16)):
        code, out, err = run_main(["fuzz", "--ring", "int", "--suite", suite,
                                   "--size", "17", "--count", "0"], capsys)
        assert code == 2 and f"size > {cap} is refused" in err, suite
    code, out, err = run_main(["fuzz", "--ring", "int", "--suite",
                               "det_product", "--size", "16", "--count", "2"],
                              capsys)
    assert code == 0


@pytest.mark.parametrize("payload", [
    [], {}, [[]], [{}], {"a": []}, "plain", "é \"quoted\" \\ \n\t\x00  ",
    0, -5, 10 ** 60, True, False, None, 1.5, float("inf"),
    {"x": {"y": [1, "2", None, True, [{"z": []}]]}, 1: 2, None: 3, True: 4,
     2.5: 5},
    (1, 2, (3,)), [[["deep"]]],
])
def test_emit_writer_matches_json_dumps(payload):
    pieces = []
    cli._indented(payload, pieces, "")
    assert "".join(pieces) == json.dumps(payload, indent=2)


def test_emit_writer_matches_json_dumps_on_reports():
    # the writer reads each report's json_layout, with its matrices by
    # reference; json.dumps reads to_json; the last two runs give empty
    # matrices, and failing reports with element and matrix residuals
    from ringmat.report import set_mutation
    from ringmat.suite import IDENTITY_NAMES, run_suite
    from ringmat import parse_ring
    runs = [(ring, 3, ()) for ring in ("int", "mod:8", "rat", "poly:mod:8",
                                       "poly:poly:int", "mod:1", "poly:rat")]
    runs += [("rat", 0, ()), ("mod:8", 3, IDENTITY_NAMES)]
    for ring, size, mutated in runs:
        previous = set_mutation(mutated)
        try:
            reports = run_suite("all", ring=parse_ring(ring), seed=3, count=2,
                                size=size)
        finally:
            set_mutation(previous)
        assert all(r.passed for r in reports) == (not mutated)
        pieces = []
        cli._indented([r.json_layout() for r in reports], pieces, "")
        assert "".join(pieces) == json.dumps([r.to_json() for r in reports],
                                             indent=2), (ring, size)


def _matrix_cases(spec):
    """Matrices over the ring spec names: every empty and thin shape, a
    3 x 3 draw, and a 2 x 2 of zero, negative and drawn entries."""
    from ringmat import Matrix, parse_ring
    from ringmat.fuzz import sample_element, sample_matrix, stream
    ring = parse_ring(spec)
    rng = stream(5, spec)
    shapes = ((0, 0), (3, 0), (0, 3), (1, 4), (4, 1), (3, 3))
    out = [sample_matrix(rng, ring, r, c, poly_degree=2) for r, c in shapes]
    out.append(Matrix(ring, 2, 2, (ring.zero(), ring.from_int(-7),
                                   sample_element(rng, ring, 3),
                                   ring.neg(sample_element(rng, ring, 3)))))
    return out


MATRIX_RINGS = ("int", "mod:8", "mod:1", "rat", "poly:mod:8", "poly:rat",
                "poly:poly:int", "mod:18446744073709551629")


@pytest.mark.parametrize("indent", ["", "  ", "      "])
@pytest.mark.parametrize("spec", MATRIX_RINGS)
def test_matrix_case_matches_json_dumps(spec, indent):
    for m in _matrix_cases(spec):
        pieces = []
        cli._indented(m, pieces, indent)
        want = json.dumps(m.to_json(), indent=2).replace("\n", "\n" + indent)
        assert "".join(pieces) == want, (m.rows, m.cols)


def test_matrix_case_writes_entries_past_the_digit_limit():
    # str() refuses ints over 4300 digits; rings.decimal writes them
    from ringmat import QQ, ZZ, Matrix, PolynomialRing
    wide = -(10 ** 5000 + 7)
    cases = [Matrix(ZZ, 1, 2, (wide, 3)),
             Matrix(QQ, 1, 1, (QQ.coerce(wide) / 3,)),
             Matrix(PolynomialRing(ZZ), 1, 1,
                    (PolynomialRing(ZZ).coerce([0, wide]),))]
    for m in cases:
        pieces = []
        cli._indented([m], pieces, "")
        text = "".join(pieces)
        assert text == json.dumps([m.to_json()], indent=2)
        assert "10000" in text and len(text) > 5000


def _timed(argv, capsys):
    import time
    start = time.perf_counter()
    result = run_main(argv, capsys)
    return time.perf_counter() - start, result


def test_large_primes_and_moduli_finish(capsys):
    # both ran past 30 s with trial division
    dt, (code, out, _) = _timed(["verify", "frobenius_trace", "--matrix",
                                 A_JSON, "--p", "1000000000000000003"], capsys)
    assert code == 0 and dt < 5
    assert "hypothesis_not_met=1" in out
    dt, (code, out, _) = _timed(["fuzz", "--ring", "mod:10000000000000061",
                                 "--suite", "almkvist", "--size", "4"], capsys)
    assert code == 0 and dt < 5
    assert "total=100 " in out and "failed=0" in out


def test_cost_caps_exit_2_at_once(capsys):
    above = str(3317044064679887385961981)
    for extra, why in ((["--k", "100000000"], "exceeds the cap of 256"),
                       (["--imax", "1001"], "exceeds the cap of 1000"),
                       (["--p", above], "decided only below"),
                       (["--p", "4"], "p must be prime"),
                       (["--p", "1"], "p must be prime")):
        for argv in (["verify", "almkvist", "--matrix", A_JSON],
                     ["fuzz", "--ring", "int", "--suite", "almkvist",
                      "--size", "3", "--count", "0"]):
            code, out, err = run_main(argv + extra, capsys)
            assert code == 2, argv + extra
            assert err.startswith("error:") and why in err and out == ""
    # a composite p is refused before any identity runs, not after
    code, out, err = run_main(["verify", "all", "--matrix", A_JSON,
                               "--p", "4"], capsys)
    assert code == 2 and "p must be prime" in err and out == ""


def test_sampling_depth_cap(capsys):
    ring = "poly:" * 4 + "int"
    m = '{"entries": [[' + "[" * 4 + '"1"' + "]" * 4 + "]]}"
    for argv in (["fuzz", "--ring", ring, "--suite", "core", "--size", "2",
                  "--count", "0"],
                 ["verify", "det_product", "--ring", ring, "--matrix", m]):
        code, out, err = run_main(argv, capsys)
        assert code == 2 and "nested 4 deep" in err and out == ""
    # charpoly and adjugate keep the parse cap of 64
    for cmd in ("charpoly", "adjugate"):
        code, out, _ = run_main([cmd, "--ring", ring, "--matrix", m], capsys)
        assert code == 0
    code, out, _ = run_main(["verify", "det_product", "--ring", "poly:" * 3 +
                             "int", "--matrix", '{"entries": [[[[["1"]]]]]}'],
                            capsys)
    assert code == 0 and "failed=0" in out


def test_results_longer_than_4300_digits_print(capsys):
    # det = (10**3000 - 1)**2 - 2 has 6000 digits, past the interpreter's
    # 4300-digit conversion limit; it prints in full and reparses
    from ringmat.rings import parse_decimal
    big = "9" * 3000
    m = json.dumps({"ring": "int", "entries": [[big, "1"], ["2", big]]})
    code, out, err = run_main(["charpoly", "--matrix", m], capsys)
    assert code == 0, err
    c = json.loads(out)["c"]
    assert c[2] == "9" * 2999 + "7" + "9" * 3000
    assert parse_decimal(c[2]) == int(big) ** 2 - 2
    assert c[1] == "-1" + "9" * 2999 + "8"
    # a 5000-digit JSON number literal is read past the limit too
    m = '{"ring": "int", "entries": [[-%s]]}' % ("7" * 5000)
    code, out, err = run_main(["charpoly", "--matrix", m], capsys)
    assert code == 0, err
    assert json.loads(out)["c"] == ["1", "7" * 5000]
    # and a 5000-digit modulus, which the ring descriptor prints as a number
    m = '{"entries": [["3"]]}'
    code, out, err = run_main(["charpoly", "--ring", "mod:" + "7" * 5000,
                               "--matrix", m], capsys)
    assert code == 0, err
    payload = json.loads(out, parse_int=parse_decimal)
    assert payload["ring"] == {"kind": "mod", "m": parse_decimal("7" * 5000)}
    assert payload["c"] == ["1", "7" * 4999 + "4"]


def test_integer_literals_over_the_cap_exit_2(capsys):
    from ringmat.rings import MAX_INT_DIGITS
    over = "1" * (MAX_INT_DIGITS + 1)
    cases = [
        ["charpoly", "--matrix", json.dumps({"ring": "int",
                                             "entries": [[over]]})],
        ["charpoly", "--matrix", json.dumps({"ring": "rat", "entries": [[
            {"num": "1", "den": "-" + over}]]})],
        ["adjugate", "--matrix", '{"ring": "int", "entries": [[%s]]}' % over],
        ["adjugate", "--ring", "mod:" + over, "--matrix", A_JSON],
        ["fuzz", "--ring", '{"kind": "mod", "m": %s}' % over, "--count", "0",
         "--size", "1"],
    ]
    for argv in cases:
        code, out, err = run_main(argv, capsys)
        assert code == 2, argv[:2]
        assert err.startswith("error:") and "exceeds the cap" in err
        assert "Traceback" not in err and out == ""
    # at the cap itself the literal is read
    at = json.dumps({"ring": "int", "entries": [["-" + "1" * MAX_INT_DIGITS]]})
    code, out, _ = run_main(["adjugate", "--matrix", at], capsys)
    assert code == 0 and json.loads(out)["entries"] == [["1"]]


def test_one_parser_parses_every_call_independently(capsys, tmp_path):
    # build_parser() is built once per process; alternating commands and
    # flags must not leak values or defaults from one call to the next
    assert cli.build_parser() is cli.build_parser()
    mq = json.dumps({"ring": "rat", "entries": [[1, 2], [3, 4]]})
    out_file = tmp_path / "adj.json"
    runs = [
        (["charpoly", "--matrix", mq, "--newton"], 0, "newton"),
        (["charpoly", "--matrix", mq], 0, "direct"),
        (["adjugate", "--matrix", A_JSON, "--out", str(out_file)], 0, None),
        (["adjugate", "--matrix", A_JSON], 0, None),
        (["verify", "adj_trace", "--matrix", A_JSON, "--seed", "7"], 0, None),
        (["charpoly", "--matrix", A_JSON, "--bogus"], 2, None),
        (["fuzz", "--ring", "int", "--suite", "core", "--count", "1",
          "--size", "2"], 0, None),
        (["fuzz", "--ring", "int"], 2, None),
        (["charpoly", "--matrix", mq, "--newton"], 0, "newton"),
    ]
    for argv, want, method in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse refuses bad arguments
            code = exc.code
        out, err = capsys.readouterr()
        assert code == want, argv
        if want == 2:
            assert err.startswith("usage:") and out == ""
        elif method:
            assert json.loads(out)["method"] == method
        elif argv[0] == "adjugate":
            # --out from the earlier call must not carry over
            assert ("--out" in argv) == (out == "")
    assert json.loads(out_file.read_text())["entries"] == [["4", "-2"],
                                                           ["-3", "1"]]
