"""The package's one exception type.

Every failure the package checks for raises `SelfReidError`, never a
subclass, and its message says what to fix: the file (and line), key or
value at fault, and what was expected. The CLI prints it and exits 1.
The only other deliberate raise is `selfreid train`'s FileNotFoundError
when no training data is given. The CLI maps it, like every OSError from
opening a path (a missing file, a directory), to exit code 2. A closed
stdout and a MemoryError print one error line and exit 1. A warning prints
as one `warning:` line, and the command goes on.
"""


class SelfReidError(Exception):
    """A bad input or a failed run; the message names what to fix."""
