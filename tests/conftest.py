"""Session hooks shared by every test module."""

import warnings

import pytest
from hypothesis import is_hypothesis_test


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # To report a failing property test, hypothesis imports libcst, and that
    # import (through mypy_extensions) warns DeprecationWarning, which the
    # filters in pyproject.toml turn into an INTERNALERROR that ends the run.
    # Import it first with only that import's warnings silenced, so the test
    # is reported as a failure and the run goes on.
    if call.excinfo is not None and is_hypothesis_test(getattr(item, "obj", None)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # libcst is optional; without it hypothesis skips the report
                pass
    yield
