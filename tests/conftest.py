"""Test-session setup shared by every test module."""

import warnings

# When a property test fails, hypothesis imports hypothesis.extra._patching
# to report the falsifying example. That module imports libcst, and libcst
# 1.0 touches the deprecated mypy_extensions.TypedDict, so under -W error the
# import raises inside pytest's report hook and ends the session with
# INTERNALERROR, hiding every later result. Importing it once here, with
# that warning ignored, leaves the module cached for the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # an older hypothesis or no libcst: nothing to cache
        pass
