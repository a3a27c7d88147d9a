"""Byte-identity snapshots of CLI stdout for fixed arguments.

Each group runs a family of CLI calls, requires exit code 0 from every
call and hashes their concatenated stdout.  The pinned sha256 values are
the output of the package before its cohomology bases, Kneser block lists
and matrix cuts came from one block enumeration; a mismatch means that
stdout changed.  The groups cover:

* ``lefschetz --emit-matrix`` with and without ``--check-kneser``, in json
  and text, for every m and n = 2..5 in both modes.  This includes the
  block cuts: generic even m >= 2 cuts at C(n-1, k-1), generic m = 0 has
  none, and ones mode reports cuts only under ``--check-kneser``;
* ``cohomology --basis --degree d`` for every d, same n and modes;
* ``--format csv lefschetz --emit-matrix`` for every m, same n and modes,
  and ``kneser --emit-matrix`` in json, text and csv for every k at
  n = 1..6, including k = 0 and the edgeless n < 2k.  These were pinned
  from the dense-row renderer, before matrix payloads became sparse;
* the CLI examples of the README.  ``verify-all --max-n 6`` is left to the
  benchmark, which pins it too, because it takes longer than this suite;
* ``lefschetz --hl`` in ones mode for n = 8..11, past the n <= 9 reach of
  the whole-matrix oracle of the report's tests.  These were pinned from
  the report that walked every block of every L_m;
* ``kneser --verify`` for every k >= 1 with n >= 2k at n = 2..8, and for
  K(10, 5), the largest graph it admits.  These were pinned from the
  certificate that carried the annihilator as a dense matrix;
* ``lattice --alt-k`` at seven and at twelve exponents, and a case I pair
  whose t-values differ by under 1e-6.  These were pinned when ``--alt-k``
  read a floating subset-sum gap and case I required coprime moduli;
* ``hodge`` in ones mode for n = 5..7 and with the non-integral explicit
  weights 9/5, 9, 3/4, 2.  These were pinned when the operator suite
  rebuilt its monomial dicts on every check and ran Fraction arithmetic.
"""

import hashlib

import pytest

import aacohom.cli as cli

SNAPSHOT_N = range(2, 6)
MODES = ("generic", "ones")

README_EXAMPLES = (
    "cohomology --n 5 --mode generic --betti --check-brute",
    "cohomology --n 5 --mode generic --basis --degree 4",
    "--format text lefschetz --n 5 --m 4 --mode generic --emit-matrix "
    "--check-kneser",
    "lefschetz --n 6 --mode ones --hl",
    "kneser --n 5 --k 2 --spectrum --verify",
    "hodge --n 3 --mode explicit --b 3,9",
    "lattice --case I --n 5 --d 2,3,5,7",
    "lattice --case II --n 3 --m 3",
    "lattice --n 5 --alt-k 1,2,3,4",
    "verify-all --max-n 5",
)

LATTICE_PINS = (
    "lattice --n 8 --alt-k 1,2,3,4,5,6,7",
    "lattice --n 13 --alt-k 5,6,7,8,9,10,11,12,13,14,15,16",
    "lattice --case I --n 3 --d 25000020000005,25000040000017",
)


def _lefschetz_calls(mode, n):
    for m in range(n + 1):
        for fmt in ("json", "text"):
            for extra in ([], ["--check-kneser"]):
                yield [
                    "--format", fmt, "lefschetz", "--n", str(n), "--mode",
                    mode, "--m", str(m), "--emit-matrix", *extra,
                ]


def _cohomology_calls(mode, n):
    for degree in range(2 * n + 1):
        yield [
            "cohomology", "--n", str(n), "--mode", mode, "--basis",
            "--degree", str(degree),
        ]


def _csv_lefschetz_calls(mode):
    for n in SNAPSHOT_N:
        for m in range(n + 1):
            for extra in ([], ["--check-kneser"]):
                yield [
                    "--format", "csv", "lefschetz", "--n", str(n), "--mode",
                    mode, "--m", str(m), "--emit-matrix", *extra,
                ]


def _kneser_calls(fmt):
    for n in range(1, 7):
        for k in range(n + 1):
            yield [
                "--format", fmt, "kneser", "--n", str(n), "--k", str(k),
                "--emit-matrix",
            ]


def _groups():
    groups = {}
    for mode in MODES:
        for n in SNAPSHOT_N:
            groups[f"lefschetz {mode} n={n}"] = list(_lefschetz_calls(mode, n))
            groups[f"cohomology {mode} n={n}"] = list(_cohomology_calls(mode, n))
        groups[f"lefschetz csv {mode}"] = list(_csv_lefschetz_calls(mode))
    for fmt in ("json", "text", "csv"):
        groups[f"kneser {fmt}"] = list(_kneser_calls(fmt))
    for example in README_EXAMPLES + LATTICE_PINS:
        groups[example] = [example.split()]
    groups["lefschetz --hl ones n=8..11"] = [
        ["lefschetz", "--n", str(n), "--mode", "ones", "--hl"]
        for n in range(8, 12)
    ]
    verified = [(n, k) for n in range(2, 9) for k in range(1, n // 2 + 1)]
    groups["hodge ones n=5..7 and explicit n=5"] = [
        ["hodge", "--n", str(n), "--mode", "ones"] for n in (5, 6, 7)
    ] + [["hodge", "--n", "5", "--mode", "explicit", "--b", "9/5,9,3/4,2"]]
    groups["kneser --verify n=2..8 and K(10,5)"] = [
        ["kneser", "--n", str(n), "--k", str(k), "--verify"]
        for n, k in verified + [(10, 5)]
    ]
    return groups


GROUPS = _groups()

PINNED = {
    "lefschetz generic n=2":
        "7955e1f253d70d7ebc5b0c2830e206ff84521f3981e5b958cf8c2f628c0ba165",
    "cohomology generic n=2":
        "7b250bd28c23ffd986fa723a1dea88787f2e9f44a2e8291e98fd11186ce39cda",
    "lefschetz generic n=3":
        "a215f823160b89f5fd84f87636421d6a36458623d25c8ecc9088fa1f7f512c00",
    "cohomology generic n=3":
        "0182c03a392801b101a387f769183ef3fc989d71df77d110b1493e81b2c7d14e",
    "lefschetz generic n=4":
        "307832cb7ba7669199cda7aa9874223c9747af7225cf20515443420f9a63bf15",
    "cohomology generic n=4":
        "c3d5b663a1e54507dffe06e94353a73e7f10fb513c80b79378cda2641eb061bc",
    "lefschetz generic n=5":
        "96637ceafb22cf2422b23812b7c323d9e20b7ec5cea05aac39094a7121ba0ee6",
    "cohomology generic n=5":
        "3ba78f96445d77e15dcf56f16752fd9ffe938abe7c4265022844022aa5155464",
    "lefschetz ones n=2":
        "98f6da777d0272dd263886f6bda6c1c61a99303b3570983d1dd44cfae9bac122",
    "cohomology ones n=2":
        "3635a0a0c78e4f1e7a9d4a00d2a3ad84bc0f180a592bf2536b728a4a62a79d26",
    "lefschetz ones n=3":
        "f9b7c231ae6acd0493fa1ed9ce5a1b29bcc6d80b6ba809dcac9068e493de004c",
    "cohomology ones n=3":
        "e8d9db51c312076953cd3ea638ad9d2fa85762dece42069f8f285e9d49e36a65",
    "lefschetz ones n=4":
        "0e542d65b0c79a0d719f3fe704e0966d7580f81920d767d5550e658da1eab48c",
    "cohomology ones n=4":
        "72eca9d3efe1d74268ef81e5afe033fa8de3d9df282709a2f9f018c7ccfc970a",
    "lefschetz ones n=5":
        "d0c733e71149b2364913e362dc38addef27723f412fac1611efe51f16bd7c4d6",
    "cohomology ones n=5":
        "9e338d57661b223336f46f91520c75c330df2b1e51fb266155884c934ca978fa",
    "lefschetz csv generic":
        "b5a3b0ef1601b13d13c5c8d1d05a835335b0b1482a85c009d45bef6bc15a594e",
    "lefschetz csv ones":
        "2997d29851b704246d8ce8a69a526084e63b789de2a3c2965de039777c89329f",
    "kneser json":
        "18a669019a51f95c277a4e9cf7ddd212829a83c328178f96b15a6a7348cdb7c9",
    "kneser text":
        "63736af641c025fe93c61e34402f810bc7cd88ba5ea7edc8afbccd8319380615",
    "kneser csv":
        "fbbac9f04d7776a5cd8d613abe517b6a40d8f8aca88b0a2eb403631ab109591f",
    "cohomology --n 5 --mode generic --betti --check-brute":
        "d8ff2e692ad8ba1b211768b4fa1340ad83e6ae2846aa94df17a9b535cb6e7062",
    "cohomology --n 5 --mode generic --basis --degree 4":
        "7f659c640c06ec5e45cec0266ace5d502939c90fdd8caa12eb72a76dc11b1c99",
    "--format text lefschetz --n 5 --m 4 --mode generic --emit-matrix --check-kneser":
        "0100f15da3e7b2c21eead46f7739a6faf37f9b7f62135b9af4ea58d452c74970",
    "lefschetz --n 6 --mode ones --hl":
        "63f744d626e094c3521acc6cdc56ebbcef5d8dae25d35aa316958c420ccc291f",
    "kneser --n 5 --k 2 --spectrum --verify":
        "cb049ccf2683f3bb95d5f12bfd5cba2d1d687c91d3e674bf648c211e092a5b5a",
    "hodge --n 3 --mode explicit --b 3,9":
        "36c1dbe12365141dfe533f9b47c2a27017300afa10d19b96183a891d49428f2b",
    "lattice --case I --n 5 --d 2,3,5,7":
        "0206ee93b34352da3ebfac8440d0694c04f506ca2c452d48ba725929e4492217",
    "lattice --case II --n 3 --m 3":
        "1002a3b5654db2b45e85b462624d76b08cbc9ea143c8895f853cd0109a81402e",
    "lattice --n 5 --alt-k 1,2,3,4":
        "643f3646cff062c535b266f68615e392a4885af12d34d3262a5130cca6f6c46b",
    "verify-all --max-n 5":
        "d2501fea31a9458df3c258fb7b97595913072de4a932b631317e6e8ae4d25add",
    "lefschetz --hl ones n=8..11":
        "1abf6a4082bd933e8ae3d50aa9a104412dc304a36eba011a1dc279c74dfe9c4b",
    "hodge ones n=5..7 and explicit n=5":
        "0f08fda831f5b8435943c17ce6dee6e6da0f88f5ad272d530406ae70a58fe297",
    "kneser --verify n=2..8 and K(10,5)":
        "8080b6838551ae989a271d4d040b372a785d1b4047afa30b49e1f12065c61885",
    "lattice --n 8 --alt-k 1,2,3,4,5,6,7":
        "2c7a00a126657692ceb3482228efed29c49bd307401e20868f57b9da5ef0adcd",
    "lattice --n 13 --alt-k 5,6,7,8,9,10,11,12,13,14,15,16":
        "c545c7aceb7bcbd33844de2a0a8b8a09abea56d2aad0a007df521c8488dd0cc2",
    "lattice --case I --n 3 --d 25000020000005,25000040000017":
        "4b13e763a3d44845eb7f1b1ff00c910fbd84135ec5163a291b1141a71a989251",
}


def stdout_digest(calls, capsys) -> str:
    digest = hashlib.sha256()
    for argv in calls:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, " ".join(argv)
        digest.update(out.encode())
    return digest.hexdigest()


def test_every_group_is_pinned():
    assert sorted(PINNED) == sorted(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_stdout_matches_snapshot(group, capsys):
    assert stdout_digest(GROUPS[group], capsys) == PINNED[group]
