"""Bad library input raises a typed error.

Every scalar argument of the library's entry points goes through the input
rules of eechain.lattice, so a wrong value raises InvalidParameter (an
EechainError): never a bare TypeError or IndexError, and never a value
that is silently taken for another, such as True for 1.
"""

import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eechain import (
    EechainError,
    InvalidParameter,
    LatticeSpec,
    build_correlation_matrix,
    entropy_of,
    many_body_state,
    offdiagonal_sum_check,
    reduced_entropy,
    regime_scales,
    sweep_entropy,
)

SPEC = LatticeSpec(n_sites=8, z_exponent=1, mass=0.5)
ORACLE_SPEC = LatticeSpec(n_sites=3, z_exponent=1, mass=0.5)


@functools.cache
def _oracle_state():
    return many_body_state(ORACLE_SPEC, 2.0)


# Each entry point as a function of its scalar arguments, every default a
# valid value.  A subsystem's sites and a sweep axis's values count as
# scalars.
def _lattice_spec(n_sites=8, z=2, mass=0.5, spacing=1.0, theta=0.25):
    return LatticeSpec(n_sites, z, mass, spacing, theta)


def _entropy_of(beta=2.0, site0=0, site1=3):
    return entropy_of(SPEC, beta, [site0, site1])


def _build_correlation_matrix(beta=2.0, site0=0, site1=3):
    return build_correlation_matrix(SPEC, beta, [site0, site1])


def _sweep_entropy(
    z=1, beta=2.0, na=2, n_sites=8, mass=0.5, spacing=1.0, theta=0.0, jobs=None
):
    return sweep_entropy((z,), (beta,), (na,), n_sites, mass, spacing, theta, jobs)


def _regime_scales(na=2):
    return regime_scales(SPEC, na)


def _offdiagonal_sum_check(n=16, length=10.0, dx=1.0):
    return offdiagonal_sum_check(n, length, dx)


def _many_body_state(beta=2.0):
    return many_body_state(ORACLE_SPEC, beta)


def _reduced_entropy(site0=0, site1=2):
    return reduced_entropy(_oracle_state(), [site0, site1])


ENTRY_POINTS = {
    "LatticeSpec": _lattice_spec,
    "entropy_of": _entropy_of,
    "build_correlation_matrix": _build_correlation_matrix,
    "sweep_entropy": _sweep_entropy,
    "regime_scales": _regime_scales,
    "offdiagonal_sum_check": _offdiagonal_sum_check,
    "many_body_state": _many_body_state,
    "reduced_entropy": _reduced_entropy,
}

# calls that raised a bare TypeError or IndexError, or were accepted, before
# every entry point shared the input rules
BAD_CALLS = [
    ("LatticeSpec", {"mass": "x"}),
    ("LatticeSpec", {"mass": None}),
    ("LatticeSpec", {"mass": 1j}),
    ("LatticeSpec", {"spacing": "1"}),
    ("LatticeSpec", {"theta": "0"}),
    ("LatticeSpec", {"theta": None}),
    ("LatticeSpec", {"z": True}),
    ("entropy_of", {"beta": True}),
    ("build_correlation_matrix", {"site0": True, "site1": False}),
    ("sweep_entropy", {"na": True}),
    ("regime_scales", {"na": True}),
    ("sweep_entropy", {"jobs": 2.5}),
    ("sweep_entropy", {"jobs": "2"}),
    ("offdiagonal_sum_check", {"n": 0}),
    ("offdiagonal_sum_check", {"n": 2.5}),
]


@pytest.mark.parametrize("name, kwargs", BAD_CALLS)
def test_bad_input_raises_invalid_parameter(name, kwargs):
    with pytest.raises(InvalidParameter):
        ENTRY_POINTS[name](**kwargs)


@pytest.mark.parametrize("subsystem", [5, None, 2.0])
def test_subsystem_that_is_not_a_sequence_raises_invalid_parameter(subsystem):
    with pytest.raises(InvalidParameter):
        build_correlation_matrix(SPEC, 2.0, subsystem)
    with pytest.raises(InvalidParameter):
        reduced_entropy(_oracle_state(), subsystem)


_JUNK = st.one_of(
    st.sampled_from(
        [True, False, np.True_, np.False_, "1", "x", None, 1j, 2 + 0j,
         math.nan, math.inf, -math.inf]
    ),
    st.integers(max_value=-1),
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(
        lambda x: not x.is_integer()
    ),
)


@st.composite
def _calls(draw):
    """(entry point, kwargs): one to all of its scalars replaced by junk."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    params = list(inspect.signature(ENTRY_POINTS[name]).parameters)
    chosen = draw(st.lists(st.sampled_from(params), min_size=1, unique=True))
    return name, {param: draw(_JUNK) for param in chosen}


def _with_bad_calls_as_examples(test):
    """test with every row of BAD_CALLS as an explicit @example."""
    for call in BAD_CALLS:
        test = example(call)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(_calls())
@_with_bad_calls_as_examples
def test_any_library_input_raises_typed_or_succeeds(call):
    name, kwargs = call
    try:
        ENTRY_POINTS[name](**kwargs)
    except EechainError:
        pass
