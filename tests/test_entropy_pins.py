"""Full-precision entropy pins, one point per block-entry path.

The CLI prints 12 significant digits, so its byte pins cannot show an
entropy moving in its last bits.  These pin float.hex of the entropy
itself: the FFT at theta = 0, 1/2 and a generic theta, the partial DFT at
a generic theta and mirrored at theta in {0, 1/2} (even and odd N), the
Fermi-sea closed form, the even-z delta and one sweep row.  Like the CLI
digests they were taken under one numpy version and skip under another.
"""

import math

import numpy as np
import pytest
from conftest import NUMPY_VERSION

from eechain import LatticeSpec, entropy_of, sweep_entropy

INF = math.inf

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"entropies were pinned under numpy {NUMPY_VERSION}",
)

# Re-pinned when odd-z spectra at theta in {0, 1/2} became a real SVD of
# Im P + Re C (the FFT path drops its round-off parts first): S moved by
# -6.7e-14 (fft-theta0), -6.7e-15 (fft-theta-half), +5.4e-14
# (partial-dft-mirrored-even-n) and -3.5e-14, -2.7e-14 (the sweep rows).
POINTS = {  # name: (N, z, m, beta, theta, N_A), S as float.hex
    "fft-theta0": ((2000, 3, 0.3, 50.0, 0.0, 160), "0x1.5a6856abfc585p+0"),
    "fft-theta-half": ((2000, 5, 0.2, 100.0, 0.5, 40), "0x1.8cf69a31b8488p+0"),
    "fft-generic-theta": ((2000, 1, 0.5, 10.0, 0.3183, 40), "0x1.eadf5a2542c8cp+0"),
    "partial-dft-generic-theta": ((131072, 2, 0.3, 20.0, 0.25, 40), "0x1.53bed2d6adef0p+0"),
    "partial-dft-mirrored-even-n": ((131072, 3, 0.3, 20.0, 0.0, 40), "0x1.d371c3eb980c5p+0"),
    "partial-dft-mirrored-odd-n": ((100003, 2, 0.3, 20.0, 0.5, 40), "0x1.53bed2d6add4ap+0"),
    "fermi-sea": ((100003, 3, 0.0, INF, 0.25, 40), "0x1.f4a7a2fb27245p+1"),
    "even-z-delta": ((2000, 2, 0.0, INF, 0.0, 40), "0x0.0p+0"),
}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_entropy_bits_unchanged(name):
    (n, z, mass, beta, theta, na), pinned = POINTS[name]
    spec = LatticeSpec(n, z, mass, 1.0, theta)
    assert entropy_of(spec, beta, range(na)).entropy.hex() == pinned


def test_sweep_row_bits_unchanged():
    table = sweep_entropy((1,), (50.0,), (16, 40), n_sites=2000, mass=0.3, boundary_phase=0.5)
    pinned = ["0x1.a69e20378f3a1p+0", "0x1.a6a019eb18857p+0"]
    assert [row.entropy.hex() for row in table.rows] == pinned
