"""Load hypothesis's failure-patch writer before any test runs.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch for the falsifying example.
That module imports ``libcst``, which in some versions subclasses the
deprecated ``mypy_extensions.TypedDict``; under ``-W error`` the warning then
ends the run in INTERNALERROR instead of reporting the failure.  Importing the
module here once, with only that warning ignored, lets the plugin find it
loaded.  Without ``libcst`` the plugin skips the patch and so does this.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
