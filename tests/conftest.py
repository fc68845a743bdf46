import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis reports a failing example through a module that imports
# libcst, whose mypy_extensions.TypedDict raises a DeprecationWarning; under
# filterwarnings = ["error"] that turns the report into a pytest
# INTERNALERROR. Importing the module here, once, with the warning
# ignored, lets falsifying examples print.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# Make the oracle helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and keep no example
# database. Hypothesis still caches the constants it reads from source
# files; that cache goes to the system temp directory, not .hypothesis/.
settings.register_profile("selfreid", derandomize=True, deadline=None, database=None)
settings.load_profile("selfreid")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "selfreid-hypothesis")
