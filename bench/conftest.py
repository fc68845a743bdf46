import sys
from pathlib import Path

# The helpers under test import the package from the source tree.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
