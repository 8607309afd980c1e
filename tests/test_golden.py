"""Golden digests: the CLI's output bytes, pinned across refactors.

Every case runs ringmat.cli.main in process and compares the SHA-256 of
what it wrote with a digest recorded from an earlier commit.  The fuzz
cases cover every suite over int, mod:8, rat and poly:mod:8 at a fixed
seed, count and size, and pin both stdout (the summary line) and the
--out report file; --suite all is pinned the same way over poly:int,
poly:rat and poly:mod:1.  The command cases pin charpoly, charpoly
--newton, adjugate and verify all on fixed integer and rational
matrices, and charpoly and adjugate on a fixed poly:int matrix.  A kernel
rewrite that changes a single output byte (a reordered report, a
differently reduced fraction, a shifted random draw) fails here.

To re-pin after an intended output change, print fresh digests with
fuzz_bytes/command_bytes and sha below, and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import pytest

from ringmat.cli import main

FUZZ_RINGS = ("int", "mod:8", "rat", "poly:mod:8")
SUITES = ("core", "adjugate", "blocks", "nilpotency", "traces", "derivations")
ALL_SUITE_RINGS = ("poly:int", "poly:rat", "poly:mod:1")
FUZZ_ARGS = ("--seed", "20251", "--count", "10", "--size", "5")

_INT = [[3, -1, 4, 1, -5],
        [9, 2, -6, 5, 3],
        [5, -8, 9, 7, -9],
        [3, 2, -3, 8, 4],
        [-6, 2, 6, 4, -3]]
# mixed signs; denominators 1, 2, 3, 5, 7, 11, 13, so the common
# denominator is a product of distinct primes
_RAT = [[(1, 2), (-3, 7), (5, 1), (0, 1), (2, 3)],
        [(-4, 5), (1, 11), (-1, 13), (7, 2), (3, 1)],
        [(6, 7), (-2, 3), (9, 5), (-5, 11), (1, 1)],
        [(0, 1), (8, 13), (-7, 2), (4, 3), (-9, 7)],
        [(2, 11), (5, 3), (-1, 1), (3, 5), (-6, 13)]]

# coefficient lists, constant term first: negative coefficients, zero
# polynomials, a zero constant term and degrees 0 to 3
_POLY = [[[3, -1], [0, 2, -5], [-4], [1, 0, 1]],
         [[], [-7, 1], [2, -3, 0, 1], [5]],
         [[-1, -1, -1], [6], [0, -2], [9, -8, 7]],
         [[4, 0, -6], [-2, 5], [1], [-3, 3]]]

INT_MATRIX = json.dumps({"ring": "int", "entries": _INT})
RAT_MATRIX = json.dumps({
    "ring": "rat",
    "entries": [[{"num": str(p), "den": str(q)} for p, q in row]
                for row in _RAT]})

COMMANDS = {}
for _label, _m in (("int", INT_MATRIX), ("rat", RAT_MATRIX)):
    COMMANDS[f"charpoly-{_label}"] = ["charpoly", "--matrix", _m]
    COMMANDS[f"charpoly-newton-{_label}"] = ["charpoly", "--newton",
                                             "--matrix", _m]
    COMMANDS[f"adjugate-{_label}"] = ["adjugate", "--matrix", _m]
    COMMANDS[f"verify-all-{_label}"] = ["verify", "all", "--seed", "7",
                                        "--matrix", _m]
POLY_MATRIX = json.dumps({"ring": "poly:int", "entries": _POLY})
COMMANDS["charpoly-poly-int"] = ["charpoly", "--matrix", POLY_MATRIX]
COMMANDS["adjugate-poly-int"] = ["adjugate", "--matrix", POLY_MATRIX]

# Recorded from the code before the rational kernels ran on the integer
# lift (see CHANGES.md); the lift must not move a byte.
FUZZ_DIGESTS = {
    ("int", "core"): (
        "9c10d55c502dd4393820c96fd57b56af573d705fbce01cccb45a763726530bc4",
        "f371ed02056285ccebbdf1301182e9f584d623c9830f36ee99a1f4ff09a9079b"),
    ("int", "adjugate"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "173a97c0f33d6f7d5eef13f6566166105b5f40ff079c3d6074f00138986d688d"),
    ("int", "blocks"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "a58097baebd1819a1314fd489a941279f4a579bdc6f3927e497bf467d840d8f3"),
    ("int", "nilpotency"): (
        "ba013b45533a85063e650b847d04b07f51c35792c4182430fb3ff80b820dfdf2",
        "cb98415ceee9a02ccd863c77e346c37b87b6249d91f0ae837efc9226c97b15b4"),
    ("int", "traces"): (
        "7fc958fce5ef590d795dcde66a086bfb1d34cfcd93cf4f962906468152929a31",
        "8c309a7704e6cca6fcdb7cc640ab74e18f893e0518292f906f58fc62b86d789a"),
    ("int", "derivations"): (
        "cc6f18d5377f80c9f447fcfb390db05d0a8f161c0d786d711a1879a2f92bfe11",
        "c392d62d6bb4fa170218bbe51eb2440d8eb62c25683d1d674cdd524f97c896f1"),
    ("mod:8", "core"): (
        "9c10d55c502dd4393820c96fd57b56af573d705fbce01cccb45a763726530bc4",
        "e2559be84659b809d0b1f6df7eb8d7415196ddebe45e2d136f81baf6112da5df"),
    ("mod:8", "adjugate"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "6589916736f4ec96506a7b7bd8086e7ac59e80ba1a0895041ad5a3255e4b98fa"),
    ("mod:8", "blocks"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "c2c15493329c0d71305461b718022e16ddd55095ca6446ff679a53eac6063bb4"),
    ("mod:8", "nilpotency"): (
        "dcb08256c8ad9e3926edcc47e4b396a59a33a90efa9cbe8b8491b8af3e9432c7",
        "f7b62b86c3e99cf8ddf34fab831c2557c3ea0e0ae9aef3b24311e73ea85eba62"),
    ("mod:8", "traces"): (
        "7fc958fce5ef590d795dcde66a086bfb1d34cfcd93cf4f962906468152929a31",
        "030c75c6b730c1ccc4ffbc52f34fbc381fc28e5543ec750258dca74760f40691"),
    ("mod:8", "derivations"): (
        "cc6f18d5377f80c9f447fcfb390db05d0a8f161c0d786d711a1879a2f92bfe11",
        "c737fd00109fa54f236d284be39417f29eb086d37b48ad469fce09539f23ce07"),
    ("rat", "core"): (
        "01a4d3d7c3972ae181005280a443724c261f77ff748a072c2cefa6382621c875",
        "aff6e2ec29cce4656acfb49a8de693981cb3ba70ed492ef46a10a41831c6d7ea"),
    ("rat", "adjugate"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "558847e9a434a43896cc9f084099d343b11e71af37c1e42c244d7e1d3fa76188"),
    ("rat", "blocks"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "3d92b75bbd722ed04df89b439fd15276f1a4fa4e28b73be09266f0dcb325a048"),
    ("rat", "nilpotency"): (
        "9ab6465fe4a89e4267e827123a5e9a072c54906ad8a83e1f76b4991e65ff5191",
        "90695680e474cbf2ce43c924b31effff50de5bf710e324f3cd6e763c0d65cbdc"),
    ("rat", "traces"): (
        "7fc958fce5ef590d795dcde66a086bfb1d34cfcd93cf4f962906468152929a31",
        "f9357ad63a217d968efaafe9c0df0285900772ff0490d6451429ec1cb6db8e41"),
    ("rat", "derivations"): (
        "cc6f18d5377f80c9f447fcfb390db05d0a8f161c0d786d711a1879a2f92bfe11",
        "86cccc33ffe6d7d7ada546c9237b1b868fc2f23ad3fd4c0843f1fd9065444e9e"),
    ("poly:mod:8", "core"): (
        "9c10d55c502dd4393820c96fd57b56af573d705fbce01cccb45a763726530bc4",
        "899fd2a0728f68eddb33380a17aef688ba56d6a1e24b58fdd92ef9ca489b483f"),
    ("poly:mod:8", "adjugate"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "6522f939f57bad421083b1ab652f1b7860baf0c76965ccb4478df7005d765bfc"),
    ("poly:mod:8", "blocks"): (
        "e82967a830ec9a32a3875811e6d88899dd531cce71d8a9af7074fabea25c9feb",
        "24286749225c0359cac151b0476175921dfd737fab4c88f0549e8120eec7d399"),
    ("poly:mod:8", "nilpotency"): (
        "dcb08256c8ad9e3926edcc47e4b396a59a33a90efa9cbe8b8491b8af3e9432c7",
        "af497a80fbe61f07a2cc721324e9aaaec321fdd1c80df568600aeae916d8d487"),
    ("poly:mod:8", "traces"): (
        "7fc958fce5ef590d795dcde66a086bfb1d34cfcd93cf4f962906468152929a31",
        "6dd7ad4f04d655e98549b95c1991a2d268e711f78c3af7a13d5c8ba2c5703392"),
    ("poly:mod:8", "derivations"): (
        "cc6f18d5377f80c9f447fcfb390db05d0a8f161c0d786d711a1879a2f92bfe11",
        "c737fd00109fa54f236d284be39417f29eb086d37b48ad469fce09539f23ce07"),
}
# Recorded from the code before the R[t] kernels ran on the Kronecker
# lift (see CHANGES.md); that lift must not move a byte either.
ALL_SUITE_DIGESTS = {
    "poly:int": (
        "6450c7343e46c5b78bbf57ac8dddf86dfac1c48d8a026bb5d0edfd129fa1713d",
        "37e0027070affcadf054dec700718f971cb6679e1222dfa7b9e99de6dae56823"),
    "poly:rat": (
        "46462da7e06ca0053e4cfa0c4e08b1609b9be05bb5fcf35c7c1b291eee8bcd87",
        "bc96d06b25773628bb786aadc71de480b16069f5e5aab6503288f975ec0e9b2e"),
    "poly:mod:1": (
        "8e3a9b858e87670acff3be0f25bd7778f587c35a064deeb2cfc1de483548b00c",
        "9aad27d6ff4545bd650c245e87b1f6fc24c4f30fdd412fda8801305473f0c248"),
}
COMMAND_DIGESTS = {
    "charpoly-int":
        "d9e430d8350c833c798bafba2d7aeaf37d2e4487ef1a32341ec5d6feff01b7b2",
    "charpoly-newton-int":
        "d9e430d8350c833c798bafba2d7aeaf37d2e4487ef1a32341ec5d6feff01b7b2",
    "adjugate-int":
        "adceb70b2003489ae3d2f7253531fb6e3774ad8289491e6d3b3cfef43d5c324f",
    "verify-all-int":
        "95d42de21b3d50489e9dc739be1906dd5564120e78a9df641776b3e9a08b40db",
    "charpoly-rat":
        "f6347abdb8485e007d3eda5235c2b13794db46e9950cd9c32c8989272bd56e16",
    "charpoly-newton-rat":
        "024e751cce6f63fbc07c4a1adffa8baf95159dbf87b9f1933bfd2dfa1c6f426f",
    "adjugate-rat":
        "334ba0367d9bb7bfcec10b0051c8a4c5b0e25f7a81b86509b0069b0974cb5945",
    "verify-all-rat":
        "b863df9532bd73ceaf17ba27c8d3d646f7378344035df770b02b8c9202d281af",
    "charpoly-poly-int":
        "23200cf772a43c78dbd52d75d988286e3fabf5ad25a7b5002fd79860541ff2fe",
    "adjugate-poly-int":
        "24b03430e0652ce31e69991730e92bb201b468528498d65fbeb36059981699c0",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


def fuzz_bytes(ring: str, suite: str, tmp_path) -> tuple:
    """(--out file bytes, stdout bytes) of one fuzz campaign."""
    out = tmp_path / f"{ring.replace(':', '_')}-{suite}.json"
    code, stdout = _run(["fuzz", "--ring", ring, "--suite", suite,
                         *FUZZ_ARGS, "--out", str(out)])
    assert code == 0, stdout
    return out.read_bytes(), stdout


def command_bytes(argv) -> bytes:
    code, stdout = _run(argv)
    assert code == 0, stdout
    return stdout


@pytest.fixture(autouse=True)
def _no_mutation(monkeypatch):
    monkeypatch.delenv("RINGMAT_MUTATE", raising=False)


@pytest.mark.parametrize("ring,suite", list(FUZZ_DIGESTS),
                         ids=[f"{r}-{s}" for r, s in FUZZ_DIGESTS])
def test_fuzz_digest(ring, suite, tmp_path):
    out, stdout = fuzz_bytes(ring, suite, tmp_path)
    assert (sha(stdout), sha(out)) == FUZZ_DIGESTS[ring, suite]


@pytest.mark.parametrize("ring", list(ALL_SUITE_DIGESTS))
def test_fuzz_all_digest(ring, tmp_path):
    out, stdout = fuzz_bytes(ring, "all", tmp_path)
    assert (sha(stdout), sha(out)) == ALL_SUITE_DIGESTS[ring]


@pytest.mark.parametrize("name", list(COMMAND_DIGESTS))
def test_command_digest(name):
    assert sha(command_bytes(COMMANDS[name])) == COMMAND_DIGESTS[name]


def test_every_ring_suite_and_command_is_pinned():
    assert set(FUZZ_DIGESTS) == {(r, s) for r in FUZZ_RINGS for s in SUITES}
    assert set(ALL_SUITE_DIGESTS) == set(ALL_SUITE_RINGS)
    assert set(COMMAND_DIGESTS) == set(COMMANDS)
