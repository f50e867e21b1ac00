"""The pytest configuration turns ``DeprecationWarning`` into an error."""

import warnings

import pytest


def test_deprecation_warning_is_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn("probe", DeprecationWarning)
