"""Property test of the one integer check: every count and index site of
``test_arraymodel.COUNT_SITES`` rejects any finite non-integral float by name,
rather than flooring it or failing later with a bare builtin error.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superdir import DomainError  # noqa: E402
from test_arraymodel import COUNT_SITES  # noqa: E402

# floats of magnitude 2**52 and above are all integral, so the filter keeps smaller ones
NON_INTEGRAL = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(value=NON_INTEGRAL)
def test_a_non_integral_float_is_rejected_at_every_site(site, value):
    name, _, call = COUNT_SITES[site]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer"
