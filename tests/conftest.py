import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Make the oracle helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and keep no example
# database. Hypothesis still caches the constants it reads from source
# files; that cache goes to the system temp directory, not .hypothesis/.
settings.register_profile("selfreid", derandomize=True, deadline=None, database=None)
settings.load_profile("selfreid")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "selfreid-hypothesis")
