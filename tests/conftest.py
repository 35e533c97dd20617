import pytest

from eechain import (
    default_high_temperature_betas,
    default_low_temperature_betas,
    sweep_entropy,
)

# the numpy version the golden CLI digests and the entropy pins were taken
# under; the pin tests skip under another
NUMPY_VERSION = "2.4.6"

CHAIN_SITES = 2000
SUBSYSTEM = 50


@pytest.fixture(scope="session")
def low_t_tables():
    """Default low-temperature sweeps at N=2000, N_A=50, keyed by z."""
    tables = {}
    for z in (1, 2, 3, 5):
        betas = default_low_temperature_betas(z, SUBSYSTEM)
        tables[z] = sweep_entropy(
            (z,), tuple(betas), (SUBSYSTEM,), n_sites=CHAIN_SITES
        )
    return tables


@pytest.fixture(scope="session")
def high_t_tables():
    """Default high-temperature sweeps at N=2000, N_A=50, keyed by z."""
    tables = {}
    for z in (2, 6, 7, 8, 9):
        betas = default_high_temperature_betas(z, SUBSYSTEM)
        tables[z] = sweep_entropy(
            (z,), tuple(betas), (SUBSYSTEM,), n_sites=CHAIN_SITES
        )
    return tables
