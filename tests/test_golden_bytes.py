"""Byte-identity guard for every CLI output format.

Each case pins the sha256 of the bytes one ``eechain`` command writes to
stdout, or to ``--out`` when its argv ends in that flag.  The digests were
taken under the numpy version below; another numpy may change a last
digit, so the cases skip there instead of failing.
"""

import hashlib

import numpy as np
import pytest

from eechain.cli import main

NUMPY_VERSION = "2.4.6"

POINT = "--n 64 --na 8 --z 3 --mass 0.3 --beta 20 --theta 0.25"
SWEEP = "sweep --n 40 --zs 1,2 --betas inf,10 --nas 2,5 --mass 0.2"

ARGV = {  # name: the command; a final --out gets a file path
    "ee-plain": f"ee {POINT}",
    "ee-csv": f"ee {POINT} --format csv",
    "ee-json": f"ee {POINT} --format json --out",
    "sweep-csv": f"{SWEEP} --eps 0.5",
    "sweep-json": f"{SWEEP} --format json --out",
    "sweep-svg": "sweep --n 40 --z 1 --beta inf --nas 2,4,8,16 --format svg",
    "fit-text": "fit --n 400 --na 10 --z 1 --regime low",
    "fit-json": "fit --n 400 --na 10 --z 2 --regime low --format json --out",
    "cmera-csv": "cmera --z 1 --mass 1",
    "cmera-json": "cmera --z 2 --mass 0.5 --eps 0.5 --format json --out",
    "cmera-svg": "cmera --z 3 --format svg",
    # oracle-check prints 1e-16 round-off residues; it computes on one BLAS
    # thread, so they do not depend on the core count at any N
    "oracle-check": "oracle-check --n 3 --na 2 --z 2 --mass 0.5 --beta 2",
    "oracle-check-gibbs-n5": (
        "oracle-check --n 5 --na 2 --z 3 --mass 0.7 --beta 1.5 --theta 0.3"
    ),
}

SHA256 = {
    "ee-plain": "2eb58b13b0fb856ce8faee53348f27ccf71a53fb21197876d174403027c0279f",
    "ee-csv": "77e3bd0fffe377ba7f132b31917ae944d75e6a82c0372f79d2ecf3b1afd43b62",
    "ee-json": "2f34614541f89df623602c4862648519fe65ede1bab5f203afb8f4a97d2370bc",
    "sweep-csv": "709892b633f56fb67f92219a9c786816ba538c31e16ecc7a9c4a06094e49783e",
    "sweep-json": "b4d96cefb9e0f14c292155cf4406a41ebc7ce4f77099521e23401442a73aea96",
    "sweep-svg": "b9bcc0fa8aa44ca2e84f51e2d2ed411f3be3d79322a984318eb18fe874b32f6e",
    "fit-text": "64484d4a33330bf6a87871bec5ea644ed933d4a5f5b2dc6f1985d8a52221d5ec",
    "fit-json": "8f9db256e1b743cc4cd1f890d54081e372dcadbe4c28f403e9622977a8d1c53e",
    "cmera-csv": "0a3d799ed2fdf6b5b6eaf6265c043975bd50857b77f81adb4e446f79aadd7e8b",
    "cmera-json": "61ad73d24f2c6dd0bad7828df080a69732207ec9534af8a29a39138c07293093",
    "cmera-svg": "0f877269846b1e4951cabb118b50ebd61360ccae915380ee0642649839e11740",
    "oracle-check": "d614dc1d55b77525697ca23c62ac217313de6d2b97c433fad1689039d280f102",
    "oracle-check-gibbs-n5": (
        "caead82cf5043a45e924cb49c0224bf145b18a9204b9afc400362aba6d9bb3b5"
    ),
}


def _output_bytes(argv, tmp_path, capsysbinary):
    if argv[-1] == "--out":
        out = tmp_path / "out"
        assert main([*argv, str(out)]) == 0
        return out.read_bytes()
    assert main(argv) == 0
    return capsysbinary.readouterr().out


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were taken under numpy {NUMPY_VERSION}",
)
@pytest.mark.parametrize("name", sorted(ARGV))
def test_cli_bytes_unchanged(name, tmp_path, capsysbinary):
    data = _output_bytes(ARGV[name].split(), tmp_path, capsysbinary)
    assert hashlib.sha256(data).hexdigest() == SHA256[name]
