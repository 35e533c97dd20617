"""Full-precision entropy pins, one point per block-entry path.

The CLI prints 12 significant digits, so its byte pins cannot show an
entropy moving in its last bits.  These pin float.hex of the entropy
itself.  The points named after the FFT (theta = 0, 1/2 and generic) and
the partial DFT (generic theta, and theta in {0, 1/2} at even and odd N)
were first pinned on those N-site paths; being massive and thermal, they
now take the short chain, an FFT at M = 600 to 648 sites.  The N-site FFT
and the partial DFT keep a pin each at a correlation length too long for
a short chain, and one point spans both a short chain (d < 512) and the
N-site FFT (d >= 512).  The Fermi-sea
closed form, the even-z delta and one sweep row complete the set.  Like
the CLI digests they were taken under one numpy version and skip under
another.
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

# Re-pinned when the short chain came in, and the FFT path set the entries
# the even-N parity rule forbids (round-off of about 1e-17) to exact zeros.
# Both change the blocks by round-off only, and S moves by what crosses
# PURE_SNAP: the parity zeros alone moved fft-theta0, fft-theta-half and
# fft-generic-theta by +1.4e-13, -1.4e-13 and -1.5e-13; with the short
# chain they moved by +3.2e-13, +1.8e-13, -1.5e-13, the three partial-DFT
# points by -5.7e-14 (generic theta), -9.0e-14 (even N) and +1.9e-14 (odd
# N), and the sweep rows by -3.1e-14 and -2.9e-15.  The last three pins
# are new.  n-site-partial-dft was re-pinned when the partial DFT at theta
# in {0, 1/2} stopped summing cosine and sine series over the
# reflection-distinct modes and took the sum over all distinct modes, with
# the reflection rule's zeros set after the twist: the entries moved by
# round-off, and S by -7.7e-14 (0x1.f4a7a6822da14p+1 before).
# Re-pinned when the solve split by sublattice: the blocks are unchanged,
# and the smaller solves of the split give each s_j another rounding, so S
# moves by the eigenvalues that cross PURE_SNAP and by round-off.  The moves
# (new - old): fft-theta0 -3.7e-13, fft-theta-half -2.2e-13,
# fft-generic-theta +2.0e-13, partial-dft-generic-theta +1.1e-14,
# partial-dft-mirrored-even-n +1.0e-13, partial-dft-mirrored-odd-n
# +4.3e-14, n-site-fft +1.3e-14, n-site-partial-dft +4.9e-14,
# short-chain-and-n-site -1.5e-13, and the sweep rows +7.5e-14 and
# -8.7e-14.  fermi-sea (odd N, no parity zeros) takes the whole solve, and
# even-z-delta is still exactly 0.
# Re-pinned when the short chain ran untwisted at every theta: its entries
# move by round-off and aliases below 1e-16 and gain the reflection zeros,
# so a twisted point takes a real solve.  The moves (new - old), with the
# N-site chain's own S at each point (new - N-site): fft-generic-theta
# -7.8e-14 (-1.3e-14), fft-theta-half +1.4e-13 (+5.4e-14),
# partial-dft-generic-theta +6.0e-14 (-2.2e-14), partial-dft-mirrored-odd-n
# +4.6e-14 (+4.2e-14), short-chain-and-n-site +7.9e-13 (+1.3e-12), and the
# sweep rows +1.3e-13 (+1.4e-13) and +3.5e-13 (+3.5e-13).  The two
# partial-DFT points now share one short chain, and so one value.
POINTS = {  # name: (N, z, m, beta, theta, N_A), S as float.hex
    "fft-theta0": ((2000, 3, 0.3, 50.0, 0.0, 160), "0x1.5a6856abfc4c4p+0"),
    "fft-theta-half": ((2000, 5, 0.2, 100.0, 0.5, 40), "0x1.8cf69a31b860cp+0"),
    "fft-generic-theta": ((2000, 1, 0.5, 10.0, 0.3183, 40), "0x1.eadf5a2542c38p+0"),
    "partial-dft-generic-theta": ((131072, 2, 0.3, 20.0, 0.25, 40), "0x1.53bed2d6adf30p+0"),
    "partial-dft-mirrored-even-n": ((131072, 3, 0.3, 20.0, 0.0, 40), "0x1.d371c3eb980fbp+0"),
    "partial-dft-mirrored-odd-n": ((100003, 2, 0.3, 20.0, 0.5, 40), "0x1.53bed2d6adf30p+0"),
    "fermi-sea": ((100003, 3, 0.0, INF, 0.25, 40), "0x1.f4a7a2fb27245p+1"),
    "even-z-delta": ((2000, 2, 0.0, INF, 0.0, 40), "0x0.0p+0"),
    "n-site-fft": ((2000, 1, 0.0, 1000.0, 0.3183, 40), "0x1.f4dffe3d7afbbp+1"),
    "n-site-partial-dft": ((131072, 1, 0.0, 1e5, 0.0, 40), "0x1.f4a7a6822d9d5p+1"),
    "short-chain-and-n-site": ((2000, 1, 0.5, 10.0, 0.3183, 530), "0x1.530c059b7d75ap+3"),
}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_entropy_bits_unchanged(name):
    (n, z, mass, beta, theta, na), pinned = POINTS[name]
    spec = LatticeSpec(n, z, mass, 1.0, theta)
    assert entropy_of(spec, beta, range(na)).entropy.hex() == pinned


def test_sweep_row_bits_unchanged():
    table = sweep_entropy((1,), (50.0,), (16, 40), n_sites=2000, mass=0.3, boundary_phase=0.5)
    pinned = ["0x1.a69e20378f6a6p+0", "0x1.a6a019eb18cfcp+0"]
    assert [row.entropy.hex() for row in table.rows] == pinned
