"""Session-wide pytest setup.

Hypothesis reports a failing example through ``hypothesis.extra
._patching``, which imports ``libcst`` on first use; ``libcst`` emits a
``DeprecationWarning`` (``mypy_extensions.TypedDict``) as it loads.
Under this suite's ``filterwarnings = ["error"]`` that warning would be
raised inside pytest's report hook, ending the run in
``INTERNALERROR`` and losing the falsifying example.  Importing the
module once here, with that one warning ignored, leaves the error
filter in force for everything the tests themselves run.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
