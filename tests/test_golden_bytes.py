"""Byte-identity guard for every CLI output format.

Each case pins the sha256 of the bytes one ``eechain`` command writes to
stdout, or to ``--out`` when its argv ends in that flag.  The digests were
taken under the numpy version below; another numpy may change a last
digit, so the cases skip there instead of failing.
"""

import hashlib
from xml.etree import ElementTree

import numpy as np
import pytest
from conftest import NUMPY_VERSION

from eechain.cli import main

POINT = "--n 64 --na 8 --z 3 --mass 0.3 --beta 20 --theta 0.25"
SWEEP = "sweep --n 40 --zs 1,2 --betas inf,10 --nas 2,5 --mass 0.2"

ARGV = {  # name: the command; a final --out gets a file path
    "ee-plain": f"ee {POINT}",
    "ee-csv": f"ee {POINT} --format csv",
    "ee-json": f"ee {POINT} --format json --out",
    # the Fermi-sea closed form
    "ee-fermi-sea": "ee --n 100003 --na 40 --z 3 --beta inf --theta 0.25",
    # N the N-site partial DFT would take, at generic theta and at theta in
    # {0, 1/2}, at an even and an odd N; every d they need takes the short
    # chain (M = 640)
    "ee-partial-dft": "ee --n 131072 --na 40 --z 2 --mass 0.3 --beta 20 --theta 0.25",
    "ee-partial-dft-theta0": (
        "ee --n 131072 --na 40 --z 3 --mass 0.3 --beta 20 --format json --out"
    ),
    "ee-partial-dft-theta-half": (
        "ee --n 100003 --na 40 --z 2 --mass 0.3 --beta 20 --theta 0.5 --format json --out"
    ),
    # the N-site partial DFT, whose points are too long for a short chain:
    # massive at even N, and thermal at a prime N under the reflection rule
    "ee-n-site-partial-dft": "ee --n 131072 --na 40 --z 1 --mass 1e-5 --theta 0.25",
    "ee-n-site-partial-dft-theta-half": (
        "ee --n 100003 --na 40 --z 1 --beta 100000 --theta 0.5 --format json --out"
    ),
    "sweep-csv": f"{SWEEP} --eps 0.5",
    "sweep-json": f"{SWEEP} --format json --out",
    # one plot per sweep axis: N_A, beta and z
    "sweep-svg": "sweep --n 40 --z 1 --beta inf --nas 2,4,8,16 --format svg",
    "sweep-svg-betas": "sweep --n 40 --zs 1,2 --betas 1,10,inf --nas 4 --format svg",
    "sweep-svg-zs": "sweep --n 40 --zs 1,2,3,4 --beta inf --na 4 --format svg",
    "fit-text": "fit --n 400 --na 10 --z 1 --regime low",
    "fit-json": "fit --n 400 --na 10 --z 2 --regime low --format json --out",
    # the high regime; the last row of its grid reads x = 3.0000000000000004
    "fit-json-high": "fit --n 400 --na 40 --z 3 --regime high --format json --out",
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
    "ee-partial-dft": "537ba15dd90575f2e4a56dabbcbe466f4796c4a61bdacb912bd04be917795e95",
    "ee-fermi-sea": "ae0017b6b32c7a151c31829d502c5321fc56e9975a0ae0b1c042dc47650f9886",
    "ee-partial-dft-theta0": (
        "f30afb1593bf5b10336eed0cc1d210a2440006e315ce6643ea999b205164d551"
    ),
    "ee-partial-dft-theta-half": (
        "619ddd8e49e654f26931d8560fcf3368e5c8c4790ed2a71b9e1aa2d6c327291b"
    ),
    "ee-n-site-partial-dft": "55428e411c18f796e2643235c401127e4d8bc5744921eb5a356c650a270f70cd",
    "ee-n-site-partial-dft-theta-half": (
        "ab53c42b9cb8b6677cdf20ef6d48ca6815a67613d25ca1ee63313611a9c138eb"
    ),
    "sweep-csv": "709892b633f56fb67f92219a9c786816ba538c31e16ecc7a9c4a06094e49783e",
    "sweep-json": "b4d96cefb9e0f14c292155cf4406a41ebc7ce4f77099521e23401442a73aea96",
    "sweep-svg": "96df2719847d32950a91547abc9c88735c791322a1de1ef2355562517fc34955",
    "sweep-svg-betas": "475b7b9bf08e29fbfec163371260befe9b04492f96820f2af9c3198225080cf0",
    "sweep-svg-zs": "d98730a21ba306dec2060841810859a6a92ea2f181c8ff7f4e917fa91a118365",
    "fit-text": "64484d4a33330bf6a87871bec5ea644ed933d4a5f5b2dc6f1985d8a52221d5ec",
    # every fit point is an even-z massless thermal point at theta = 0, whose
    # spectrum is now a real eigvalsh of P: the repr coefficients moved by
    # <= 2.4e-13 (0.1349715860326112 -> 0.13497158603263054).  Re-pinned
    # when the FFT path set the entries the even-N parity rule forbids
    # (round-off of about 1e-17 at N = 400) to exact zeros: the repr
    # coefficients moved by <= 4.0e-12 (0.13497158603263054 ->
    # 0.13497158603254258, 2.1456369678980605 -> 2.145636967899485,
    # 0.631727592593326 -> 0.6317275925893199).  Re-pinned when the solve
    # split by sublattice: P is block diagonal over the even and the odd
    # sites, two equal 5 x 5 blocks here, and the eigvalsh of one of them
    # rounds the spectrum differently from the 10 x 10 one.  The
    # repr coefficients moved by <= 2.5e-12 (0.13497158603254258 ->
    # 0.13497158603253645, 2.145636967899485 -> 2.145636967899987,
    # 0.6317275925893199 -> 0.6317275925868127)
    "fit-json": "de9de3ac0fc66231214e5c568a0be19488ccda5c1c9e2f937392787e8b53dd65",
    "fit-json-high": "0550740ceefaa849f1ec06f33658c5fea83c830edb3ab5a2a77e5468884abb35",
    "cmera-csv": "0a3d799ed2fdf6b5b6eaf6265c043975bd50857b77f81adb4e446f79aadd7e8b",
    # g = -phi + (z/4) sin 2 alpha: 173 of its 501 g values moved, by <= 2.2e-16
    "cmera-json": "db252eafe449454030db925d7fa1ca6ecf2901193d4fe511c867d7a4ca6073af",
    "cmera-svg": "0f877269846b1e4951cabb118b50ebd61360ccae915380ee0642649839e11740",
    "oracle-check": "7cff4d3e8aa3fd61ec6f33c48c4ed2695ecb0e238c50df5ac1c2b3d91e3390a1",
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


@pytest.mark.parametrize("name", sorted(n for n in ARGV if "svg" in ARGV[n].split()))
def test_cli_svg_is_xml(name, tmp_path, capsysbinary):
    svg = ElementTree.fromstring(_output_bytes(ARGV[name].split(), tmp_path, capsysbinary))
    assert svg.tag == "{http://www.w3.org/2000/svg}svg"
